#pragma once

/// \file scheduler.hpp
/// The v2 front door of the scheduling service: a handle-based, streaming
/// Scheduler facade with objective-aligned admission.
///
/// Lifecycle:
///
///     auto registry = SolverRegistry::with_default_solvers();
///     Scheduler scheduler(registry, {.threads = 8});
///     InstanceHandle h = intern(std::move(instance));  // once per instance
///     Ticket long_job  = scheduler.submit("optimal", h);
///     Ticket short_job = scheduler.submit("wdeq", h);
///     SolveResult r = short_job.get();   // ready long before long_job
///     long_job.cancel();                 // client went away: abandon it
///
/// `intern` canonicalizes the instance once (both quotients, see
/// canonical.hpp) and wraps it in a cheap copyable handle — a shared_ptr
/// plus precomputed cache-key material — so R requests on one instance share
/// one task vector instead of copying it R times.  `submit` enqueues onto a
/// bounded MPMC admission queue and returns a Ticket immediately; worker
/// threads stream jobs off the queue one at a time, so a long `optimal`
/// solve occupies one worker while short `wdeq` requests keep flowing
/// through the others — no whole-batch barrier.
///
/// Admission order: the queue is a *weighted priority* queue by default,
/// mirroring the paper's Σ w_i C_i objective at the serving layer.  Each
/// request's rank is
///
///     admitted_at  +  aging_factor · estimated_seconds / priority_weight
///
/// (seconds since the scheduler started) — weighted-shortest-estimated-work
/// ordering, where the estimate comes from the solver's registered cost
/// hint and n.  Cheap/urgent work overtakes a backlog of heavy solves,
/// which is what minimizes weighted mean response time when the queue backs
/// up; the admitted_at term is the anti-starvation aging: a heavy request
/// is overtaken by fresh arrivals for at most aging_factor ·
/// estimated_seconds / priority_weight seconds before its rank is the
/// minimum, so nothing waits forever.  Ranks are fixed at admission, so the
/// queue is an ordinary ordered multimap — no re-heapify over time.
/// Options::admission = Admission::Fifo restores the strict v2 FIFO order
/// (every rank 0, ties broken by admission id).
///
/// Cancellation and deadlines: `submit` takes SubmitOptions{priority_weight,
/// deadline}; `Ticket::cancel()` removes still-queued work immediately
/// (resolving the ticket with ErrorCode::Cancelled and freeing its queue
/// slot — no worker ever touches it) or, once a worker picked the job up,
/// sets a cooperative flag that cancellation-aware solvers (the `optimal`
/// branch-and-bound/enumeration loops) poll at node boundaries.  A deadline
/// that passes while the job is still queued resolves it as
/// ErrorCode::DeadlineExceeded when a worker pops it, again without
/// solving; during a solve the deadline rides the same cooperative token.
/// Solvers without cancellation support simply run to completion and their
/// result is delivered as usual — cancellation is best-effort by design.
///
/// Backpressure: when the queue is full, `submit` blocks until a worker
/// frees a slot.  After `close()` (or destruction), `submit` returns an
/// already-resolved Ticket carrying ErrorCode::QueueClosed; jobs admitted
/// before the close still run to completion.
///
/// Determinism note: admission order changes *latency*, never *results* —
/// each result still depends only on its own (solver, instance) pair, so
/// the batch determinism contract (identical result bytes for any thread
/// count) is unchanged.  Deadlines are the exception: whether a request
/// beats its deadline is wall-clock dependent by definition.

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "malsched/core/instance.hpp"
#include "malsched/service/cache.hpp"
#include "malsched/service/solver_registry.hpp"
#include "malsched/support/contracts.hpp"

namespace malsched::service {

class InstanceHandle;

namespace detail {

/// One interned instance: the client-space instance plus lazily built
/// canonical quotients (permuted for order-invariant solvers, scale-only
/// otherwise) and their serialized cache-key texts.  Each quotient is
/// computed at most once, on first use; instances that never meet a cache
/// pay nothing beyond the instance itself.  Defined in scheduler.cpp.
struct Interned;

/// Shared queue core (mutex, admission multimap, close flag) co-owned by
/// the Scheduler and every outstanding Ticket, so Ticket::cancel() stays
/// safe even after the Scheduler itself is gone.  Defined in scheduler.cpp.
struct SchedulerShared;

/// Per-ticket shared state: promise, cancellation source, deadline and the
/// queued/running/done stage.  Defined in scheduler.cpp.
struct TicketShared;

/// The shared solve core of the v2 service: dispatches `solver` on the
/// interned instance through the canonicalization cache (when eligible),
/// falling back to a client-space solve.  Never throws — solver exceptions
/// become SolverFailure results.  Does not fill latency_seconds.  The
/// context's cancellation token reaches solvers registered context-aware;
/// when it aborts a cache-path solve the failure is returned as-is (no
/// client-space re-solve, and failures are never cached).
[[nodiscard]] SolveResult solve_dispatch(const SolverRegistry& registry,
                                         const std::string& solver,
                                         const InstanceHandle& instance,
                                         ResultCache* cache,
                                         const SolveContext& context = {});

}  // namespace detail

/// Canonicalizes and wraps `instance` for cheap sharing across requests.
[[nodiscard]] InstanceHandle intern(core::Instance instance);

/// Cheap copyable reference to an interned instance.  Copying a handle
/// copies a shared_ptr, never the task vector; every submit() holding this
/// handle solves the very same core::Instance object.
class InstanceHandle {
 public:
  InstanceHandle() = default;  ///< invalid until assigned from intern()

  [[nodiscard]] bool valid() const noexcept { return interned_ != nullptr; }
  explicit operator bool() const noexcept { return valid(); }

  [[nodiscard]] const core::Instance& instance() const;
  [[nodiscard]] std::size_t size() const { return instance().size(); }

  /// Fixed-width fingerprint of the instance's scale/permutation
  /// equivalence class (CanonicalForm::key, built lazily on first use);
  /// 0 for invalid handles.  Earmarked for consistent-hash sharding across
  /// worker processes.
  [[nodiscard]] std::uint64_t key() const;

  /// Number of live references (handles + in-flight jobs) to the interned
  /// instance; observability aid for tests and telemetry.
  [[nodiscard]] long use_count() const noexcept {
    return interned_.use_count();
  }

 private:
  friend InstanceHandle intern(core::Instance);
  friend SolveResult detail::solve_dispatch(const SolverRegistry&,
                                            const std::string&,
                                            const InstanceHandle&,
                                            ResultCache*,
                                            const SolveContext&);

  explicit InstanceHandle(std::shared_ptr<const detail::Interned> interned)
      : interned_(std::move(interned)) {}

  std::shared_ptr<const detail::Interned> interned_;
};

/// Per-submit request options: how urgent the request is relative to its
/// queue peers, and how long the client is willing to wait at all.
struct SubmitOptions {
  /// Relative urgency under priority admission (the serving-layer analogue
  /// of the paper's task weight w_i): a request's queue rank divides its
  /// estimated work by this.  Must be positive; non-finite or non-positive
  /// values are clamped to 1.  Ignored under Admission::Fifo.
  double priority_weight = 1.0;
  /// Absolute latest useful completion time.  Expired-while-queued requests
  /// resolve as DeadlineExceeded without consuming a solve; during a solve
  /// the deadline rides the cooperative cancellation token, so only
  /// cancellation-aware solvers abort mid-flight (others deliver their
  /// result late — completed work is never discarded).
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Claim on one submitted request.  Move-only, future-like: `get()` blocks
/// until the worker resolves the job and may be called once.
class Ticket {
 public:
  Ticket() = default;  ///< invalid until assigned from submit()

  [[nodiscard]] bool valid() const noexcept { return future_.valid(); }
  explicit operator bool() const noexcept { return valid(); }

  /// Monotonic per-scheduler admission id (1-based, assigned at enqueue in
  /// FIFO order); 0 for invalid tickets and for submits rejected by a
  /// closed scheduler (they were never admitted).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Non-blocking poll: true once the result is available.  Like get() and
  /// wait(), requires a valid (unconsumed) ticket.
  [[nodiscard]] bool ready() const {
    MALSCHED_EXPECTS_MSG(valid(), "ready() on an invalid Ticket");
    return future_.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  void wait() const {
    MALSCHED_EXPECTS_MSG(valid(), "wait() on an invalid Ticket");
    future_.wait();
  }

  /// Blocks until resolved and consumes the result (one-shot; the ticket is
  /// invalid afterwards).
  [[nodiscard]] SolveResult get() {
    MALSCHED_EXPECTS_MSG(valid(), "get() on an invalid Ticket");
    return future_.get();
  }

  /// Abandons the request.  Still-queued work is removed immediately: the
  /// ticket resolves with ErrorCode::Cancelled, its queue slot frees, and
  /// no worker ever solves it.  Work already on a worker gets the
  /// cooperative cancellation flag; cancellation-aware solvers (see the
  /// registry's `cancellable` flag) abort at their next node boundary and
  /// the ticket resolves Cancelled, while unaware solvers run to completion
  /// and deliver normally.  Returns true when the cancel removed queued
  /// work or delivered the flag to a running job; false when the result was
  /// already resolved (or the ticket never entered the queue).  Safe to
  /// call from any thread, concurrently with get()/wait(), and after the
  /// Scheduler is destroyed; idempotent.
  bool cancel() noexcept;

 private:
  friend class Scheduler;

  std::uint64_t id_ = 0;
  std::future<SolveResult> future_;
  std::shared_ptr<detail::TicketShared> shared_;  ///< null: never admitted
};

/// Concurrent streaming scheduler over a SolverRegistry.  Thread-safe:
/// submit() from any number of threads.  The registry must outlive the
/// scheduler and must not be mutated while it runs.
class Scheduler {
 public:
  /// Admission queue discipline (see the file comment for the rank
  /// formula).
  enum class Admission {
    Fifo,              ///< strict arrival order (the v2 behaviour)
    WeightedPriority,  ///< weighted-shortest-estimated-work with aging
  };

  struct Options {
    unsigned threads = 0;  ///< worker count (0 = hardware concurrency)
    /// Admission queue bound; full-queue submits block (backpressure).
    std::size_t queue_capacity = 1024;
    /// Borrowed result cache; overrides the owned one when non-null (the
    /// caller keeps it alive and may share it across schedulers).
    ResultCache* cache = nullptr;
    /// Weight budget of the owned cache (see cache.hpp; ~1 unit per
    /// completion time).  An n = 8 entry weighs 9 units and occupies ~170
    /// bytes, so the default holds ~116k of them in ~20 MB.
    std::size_t cache_capacity = std::size_t{1} << 20;
    /// Optional TTL of the owned cache, in seconds: entries older than this
    /// stop serving hits and are evicted lazily at lookup (cache.hpp).
    /// Ignored for a borrowed `cache` — its owner configured it.
    std::optional<double> cache_ttl_seconds;
    /// TinyLFU admission on the owned cache (cache.hpp): when the cache is
    /// full, a first-seen key must out-score the LRU victims it would evict
    /// on estimated popularity, so one-off instances cannot flush recurring
    /// ones.  Ignored for a borrowed `cache` — its owner configured it.
    bool cache_admission = true;
    /// False disables memoization entirely, even when `cache` is set.
    bool use_cache = true;
    /// Queue discipline; WeightedPriority mirrors the paper's objective at
    /// the admission layer.
    Admission admission = Admission::WeightedPriority;
    /// Anti-starvation knob of the priority rank: a request may be
    /// overtaken by fresh arrivals for at most aging_factor ·
    /// estimated_seconds / priority_weight seconds of queue time.  Lower is
    /// closer to pure weighted-shortest-work (more reordering), 0 degrades
    /// to arrival-time order.  Must be >= 0 and finite.
    double aging_factor = 16.0;
  };

  explicit Scheduler(const SolverRegistry& registry)
      : Scheduler(registry, Options{}) {}
  Scheduler(const SolverRegistry& registry, Options options);

  /// Closes admission, drains the queue and joins the workers.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Convenience forward of the free intern().
  [[nodiscard]] static InstanceHandle intern(core::Instance instance) {
    return service::intern(std::move(instance));
  }

  /// Enqueues one request and returns its claim immediately.  Blocks only
  /// when the admission queue is full.  After close(), returns an
  /// already-resolved QueueClosed failure.  Invalid handles resolve to a
  /// ParseError failure.
  [[nodiscard]] Ticket submit(std::string solver, InstanceHandle instance,
                              const SubmitOptions& options = {});

  /// One-shot convenience: interns per call — prefer intern() + the handle
  /// overload for repeated instances.
  [[nodiscard]] Ticket submit(std::string solver, core::Instance instance,
                              const SubmitOptions& options = {}) {
    return submit(std::move(solver), service::intern(std::move(instance)),
                  options);
  }

  /// Stops admission (idempotent).  Already-admitted jobs run to
  /// completion; subsequent submits resolve to QueueClosed.
  void close() noexcept;
  [[nodiscard]] bool closed() const noexcept;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] bool cache_enabled() const noexcept {
    return cache_ != nullptr;
  }
  /// Zero-capacity stats when the cache is disabled.
  [[nodiscard]] CacheStats cache_stats() const;
  [[nodiscard]] const SolverRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  void worker_loop();

  const SolverRegistry& registry_;
  std::unique_ptr<ResultCache> owned_cache_;
  ResultCache* cache_ = nullptr;
  std::size_t queue_capacity_;
  Admission admission_;
  double aging_factor_;

  /// Queue guts, co-owned by outstanding Tickets (see SchedulerShared).
  std::shared_ptr<detail::SchedulerShared> shared_;

  std::vector<std::thread> workers_;
};

}  // namespace malsched::service
