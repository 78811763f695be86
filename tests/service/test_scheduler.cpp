#include "malsched/service/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "malsched/core/generators.hpp"
#include "malsched/support/rng.hpp"
#include "malsched/support/stats.hpp"

namespace mc = malsched::core;
namespace msvc = malsched::service;
namespace ms = malsched::support;

namespace {

mc::Instance small_instance() {
  return mc::Instance(4.0, {{2.0, 2.0, 1.0}, {1.5, 1.0, 0.5}});
}

// A solver that spins until `released` flips: a deterministic "long solve"
// for streaming-admission tests (no wall-clock assumptions).
msvc::SolverRegistry registry_with_blocker(const std::atomic<bool>& released) {
  auto registry = msvc::SolverRegistry::with_default_solvers();
  registry.register_solver(
      "blocker",
      [&released](const mc::Instance& inst) {
        while (!released.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return msvc::SolveResult::success(
            "", msvc::SolveOutput{1.0, 1.0,
                                  std::vector<double>(inst.size(), 1.0)});
      },
      /*order_invariant=*/false, "test blocker", /*cacheable=*/false);
  return registry;
}

}  // namespace

TEST(Scheduler, SubmitReturnsResolvableTicketsWithMonotonicIds) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::Scheduler scheduler(registry, {.threads = 2});
  const auto handle = msvc::intern(small_instance());

  std::vector<msvc::Ticket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(scheduler.submit("wdeq", handle));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(tickets[i].valid());
    EXPECT_EQ(tickets[i].id(), i + 1);  // admission order, 1-based
    auto result = tickets[i].get();
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.solver, "wdeq");
    EXPECT_GT(result.latency_seconds, 0.0);
    EXPECT_FALSE(tickets[i].valid()) << "get() is one-shot";
  }
  EXPECT_FALSE(msvc::Ticket{}.valid());
  EXPECT_EQ(msvc::Ticket{}.id(), 0u);
}

TEST(Scheduler, ShortRequestsResolveWhileALongSolveStillRuns) {
  // The heart of streaming admission, made deterministic with a latch
  // solver: with 2 workers, the blocker occupies one while the other drains
  // every short request — all short tickets must resolve while the long
  // ticket is still pending.  A barrier-style executor would hand back
  // nothing until the blocker finished.
  std::atomic<bool> released{false};
  const auto registry = registry_with_blocker(released);
  msvc::Scheduler scheduler(registry, {.threads = 2});
  const auto handle = msvc::intern(small_instance());

  auto long_ticket = scheduler.submit("blocker", handle);
  std::vector<msvc::Ticket> short_tickets;
  for (int i = 0; i < 16; ++i) {
    short_tickets.push_back(scheduler.submit("wdeq", handle));
  }
  for (auto& ticket : short_tickets) {
    const auto result = ticket.get();  // resolves with the blocker still held
    EXPECT_TRUE(result.ok()) << result.error().to_string();
  }
  EXPECT_FALSE(long_ticket.ready());

  released.store(true, std::memory_order_release);
  const auto long_result = long_ticket.get();
  EXPECT_TRUE(long_result.ok()) << long_result.error().to_string();
}

TEST(Scheduler, MixedOptimalAndWdeqShortLatencyIsNotGatedOnTheLongSolve) {
  // Wall-clock flavour of the claim on the real zoo: one `optimal` request
  // (n = 11: ~0.2 s of branch-and-bound in a Release build, ~13.5k nodes)
  // admitted *first*, then a stream of wdeq requests.  Short-request p50
  // latency must sit far below the long solve's latency, i.e. shorts are
  // not serialized behind the exact search.  (n = 7 took seconds under
  // the n! enumeration; branch-and-bound solves it in milliseconds, too
  // short to tell a gate from noise.)
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::Scheduler scheduler(registry, {.threads = 2});
  ms::Rng rng(2012);
  mc::GeneratorConfig long_config;
  long_config.num_tasks = 11;
  long_config.processors = 4.0;
  auto long_ticket =
      scheduler.submit("optimal", msvc::intern(mc::generate(long_config, rng)));

  std::vector<msvc::Ticket> short_tickets;
  for (int i = 0; i < 32; ++i) {
    mc::GeneratorConfig config;
    config.num_tasks = 4;
    config.processors = 4.0;
    short_tickets.push_back(
        scheduler.submit("wdeq", msvc::intern(mc::generate(config, rng))));
  }

  ms::Sample short_latencies;
  for (auto& ticket : short_tickets) {
    const auto result = ticket.get();
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    short_latencies.add(result.latency_seconds);
  }
  const auto long_result = long_ticket.get();
  ASSERT_TRUE(long_result.ok()) << long_result.error().to_string();

  EXPECT_LT(short_latencies.quantile(0.5),
            0.1 * long_result.latency_seconds)
      << "short p50 " << short_latencies.quantile(0.5) << "s vs long "
      << long_result.latency_seconds << "s";
}

TEST(Scheduler, ConcurrentSubmitStressIsRaceFree) {
  // Many client threads hammering submit() against few workers and a small
  // admission queue (so backpressure blocking is exercised).  Run under
  // -DMALSCHED_SANITIZE=thread for the data-race proof; the functional
  // assertion is that every ticket resolves correctly exactly once.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::Scheduler::Options options;
  options.threads = 4;
  options.queue_capacity = 16;
  msvc::Scheduler scheduler(registry, options);

  const std::size_t submitters = 8;
  const std::size_t per_thread = 64;
  std::vector<msvc::InstanceHandle> handles;
  for (int i = 0; i < 4; ++i) {
    ms::Rng rng(100 + i);
    mc::GeneratorConfig config;
    config.num_tasks = 3 + static_cast<std::size_t>(i);
    config.processors = 2.0;
    handles.push_back(msvc::intern(mc::generate(config, rng)));
  }

  std::atomic<std::size_t> ok_count{0};
  std::atomic<std::uint64_t> id_xor{0};
  std::vector<std::thread> clients;
  clients.reserve(submitters);
  for (std::size_t t = 0; t < submitters; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        auto ticket = scheduler.submit(i % 2 == 0 ? "wdeq" : "deq",
                                       handles[(t + i) % handles.size()]);
        id_xor.fetch_xor(ticket.id(), std::memory_order_relaxed);
        const auto result = ticket.get();
        if (result.ok() &&
            result.completions().size() ==
                handles[(t + i) % handles.size()].size()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(ok_count.load(), submitters * per_thread);
  // Ids 1..N each seen exactly once: xor over tickets equals xor over 1..N.
  std::uint64_t expected = 0;
  for (std::uint64_t id = 1; id <= submitters * per_thread; ++id) {
    expected ^= id;
  }
  EXPECT_EQ(id_xor.load(), expected);
}

TEST(Scheduler, BackpressureBlocksSubmitWithoutDeadlock) {
  // queue_capacity 1 with a single worker: every submit beyond the first
  // waits for a slot, and all of them still complete.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::Scheduler::Options options;
  options.threads = 1;
  options.queue_capacity = 1;
  msvc::Scheduler scheduler(registry, options);
  const auto handle = msvc::intern(small_instance());
  std::vector<msvc::Ticket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(scheduler.submit("wdeq", handle));
  }
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket.get().ok());
  }
}

TEST(Scheduler, SubmitAfterCloseYieldsQueueClosed) {
  std::atomic<bool> released{false};
  const auto registry = registry_with_blocker(released);
  msvc::Scheduler scheduler(registry, {.threads = 1});
  const auto handle = msvc::intern(small_instance());

  auto admitted = scheduler.submit("blocker", handle);  // occupies the worker
  auto queued = scheduler.submit("wdeq", handle);       // waits in the queue
  scheduler.close();
  EXPECT_TRUE(scheduler.closed());

  // Rejected immediately: the ticket is already resolved, no worker needed,
  // and no admission id was consumed.
  auto rejected = scheduler.submit("wdeq", handle);
  EXPECT_TRUE(rejected.ready());
  EXPECT_EQ(rejected.id(), 0u);
  const auto rejected_result = rejected.get();
  ASSERT_FALSE(rejected_result.ok());
  EXPECT_EQ(rejected_result.error().code, msvc::ErrorCode::QueueClosed);
  EXPECT_EQ(rejected_result.solver, "wdeq");

  // Jobs admitted before the close still run to completion.
  released.store(true, std::memory_order_release);
  EXPECT_TRUE(admitted.get().ok());
  EXPECT_TRUE(queued.get().ok());
}

TEST(Scheduler, InterningEliminatesPerRequestInstanceCopies) {
  // The copy-counting double: a solver that records the address of every
  // instance it receives.  Registered non-cacheable, so each of the R
  // requests reaches the solver with the client-space instance — if submit
  // copied instances per request (as v1 SolveRequest did), R distinct
  // addresses would show up here.  One interned handle => one address, the
  // handle's own.
  std::set<const mc::Instance*> seen_addresses;
  std::mutex seen_mutex;
  auto registry = msvc::SolverRegistry::with_default_solvers();
  registry.register_solver(
      "address-recorder",
      [&](const mc::Instance& inst) {
        {
          const std::lock_guard<std::mutex> lock(seen_mutex);
          seen_addresses.insert(&inst);
        }
        return msvc::SolveResult::success(
            "", msvc::SolveOutput{0.0, 0.0,
                                  std::vector<double>(inst.size(), 0.0)});
      },
      /*order_invariant=*/false, "copy counter", /*cacheable=*/false);

  const auto handle = msvc::intern(small_instance());
  const msvc::InstanceHandle copy = handle;  // handle copy: shared_ptr only
  EXPECT_EQ(&copy.instance(), &handle.instance());
  EXPECT_GE(handle.use_count(), 2) << "copies share the interned instance";

  msvc::Scheduler scheduler(registry, {.threads = 4});
  std::vector<msvc::Ticket> tickets;
  for (int i = 0; i < 32; ++i) {
    tickets.push_back(
        scheduler.submit("address-recorder", i % 2 == 0 ? handle : copy));
  }
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket.get().ok());
  }
  ASSERT_EQ(seen_addresses.size(), 1u)
      << "per-request Instance copies detected";
  EXPECT_EQ(*seen_addresses.begin(), &handle.instance());
}

TEST(Scheduler, InvalidHandleResolvesToParseError) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::Scheduler scheduler(registry, {.threads = 1});
  auto ticket = scheduler.submit("wdeq", msvc::InstanceHandle{});
  const auto result = ticket.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, msvc::ErrorCode::ParseError);
}

TEST(Scheduler, BorrowedCacheIsSharedAndReported) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::ResultCache cache(1024);
  msvc::Scheduler::Options options;
  options.threads = 1;
  options.cache = &cache;
  const auto handle = msvc::intern(small_instance());
  {
    msvc::Scheduler scheduler(registry, options);
    EXPECT_TRUE(scheduler.cache_enabled());
    (void)scheduler.submit("wdeq", handle).get();
    (void)scheduler.submit("wdeq", handle).get();
    EXPECT_EQ(scheduler.cache_stats().hits, 1u);
  }
  // A second scheduler over the same cache starts warm.
  {
    msvc::Scheduler scheduler(registry, options);
    auto result = scheduler.submit("wdeq", handle).get();
    EXPECT_TRUE(result.cache_hit);
  }

  msvc::Scheduler::Options uncached;
  uncached.threads = 1;
  uncached.use_cache = false;
  msvc::Scheduler scheduler(registry, uncached);
  EXPECT_FALSE(scheduler.cache_enabled());
  EXPECT_EQ(scheduler.cache_stats().capacity, 0u);

  // use_cache = false wins even when a borrowed cache is supplied, so an
  // uncached A/B baseline over a shared cache object is actually uncached.
  uncached.cache = &cache;
  const auto before = cache.stats();
  msvc::Scheduler off(registry, uncached);
  EXPECT_FALSE(off.cache_enabled());
  auto result = off.submit("wdeq", handle).get();
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);
}

TEST(Scheduler, HandleExposesCanonicalFingerprint) {
  const auto a = msvc::intern(small_instance());
  // Power-of-two rescale of volumes+weights: same equivalence class.
  const auto b = msvc::intern(
      mc::Instance(4.0, {{4.0, 2.0, 2.0}, {3.0, 1.0, 1.0}}));
  // Genuinely different instance.
  const auto c = msvc::intern(mc::Instance(4.0, {{1.0, 1.0, 1.0}}));
  EXPECT_NE(a.key(), 0u);
  EXPECT_EQ(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_EQ(msvc::InstanceHandle{}.key(), 0u);
  EXPECT_EQ(a.size(), 2u);
}

TEST(Scheduler, CancelQueuedTicketResolvesWithoutConsumingASolve) {
  // The acceptance-criterion scenario: a queued-then-cancelled request must
  // resolve Cancelled immediately and no worker may ever spend a solve on
  // it.  The blocker pins the single worker so "counted" stays queued.
  std::atomic<bool> released{false};
  std::atomic<int> solves{0};
  auto registry = registry_with_blocker(released);
  registry.register_solver(
      "counted",
      [&solves](const mc::Instance& inst) {
        solves.fetch_add(1, std::memory_order_relaxed);
        return msvc::SolveResult::success(
            "", msvc::SolveOutput{0.0, 0.0,
                                  std::vector<double>(inst.size(), 0.0)});
      },
      /*order_invariant=*/false, "solve counter", /*cacheable=*/false);
  msvc::Scheduler scheduler(registry, {.threads = 1});
  const auto handle = msvc::intern(small_instance());

  auto holder = scheduler.submit("blocker", handle);
  auto queued = scheduler.submit("counted", handle);
  EXPECT_TRUE(queued.cancel());
  // Resolved by cancel() itself — ready before the worker frees up.
  EXPECT_TRUE(queued.ready());
  const auto result = queued.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, msvc::ErrorCode::Cancelled);
  EXPECT_EQ(result.solver, "counted");

  released.store(true, std::memory_order_release);
  EXPECT_TRUE(holder.get().ok());
  EXPECT_EQ(solves.load(), 0) << "cancelled queued work must never solve";
}

TEST(Scheduler, CancelWhileRunningAbortsACancellableSolve) {
  // cancel() after a worker picked the job up flips the cooperative flag;
  // a context-aware solver (registered via SolverInfo, like `optimal`)
  // observes it at its next poll and returns Cancelled.
  std::atomic<bool> running{false};
  auto registry = msvc::SolverRegistry::with_default_solvers();
  {
    msvc::SolverRegistry::SolverInfo info;
    info.fn = [&running](const mc::Instance& inst,
                         const msvc::SolveContext& context) {
      running.store(true, std::memory_order_release);
      while (!context.cancel.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return msvc::SolveResult::failure(
          "", msvc::ErrorCode::Cancelled,
          "aborted by the cancellation token");
    };
    info.description = "cancellable latch";
    info.cacheable = false;
    info.cancellable = true;
    registry.register_solver("cancellable", std::move(info));
  }
  msvc::Scheduler scheduler(registry, {.threads = 1});
  auto ticket = scheduler.submit("cancellable", msvc::intern(small_instance()));
  while (!running.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ticket.cancel());
  const auto result = ticket.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, msvc::ErrorCode::Cancelled);
}

TEST(Scheduler, CancelAbortsARealBranchAndBoundSolve) {
  // End-to-end through the real `optimal` path: an n = 12 branch-and-bound
  // runs far longer than the cancellation latency (one node, i.e. one LP
  // push), so a cancel shortly after the solve starts must come back
  // Cancelled — and promptly.  No wall-clock upper bound is asserted on
  // the solve itself; only the outcome.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::Scheduler::Options options;
  options.threads = 1;
  options.use_cache = false;
  msvc::Scheduler scheduler(registry, options);
  ms::Rng rng(20120521);
  mc::GeneratorConfig config;
  config.num_tasks = 12;
  config.processors = 4.0;
  auto ticket =
      scheduler.submit("optimal", msvc::intern(mc::generate(config, rng)));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  (void)ticket.cancel();
  const auto result = ticket.get();
  if (!result.ok()) {  // a very fast machine may legitimately finish first
    EXPECT_EQ(result.error().code, msvc::ErrorCode::Cancelled)
        << result.error().to_string();
    // Normally the abort comes from the solve loop itself ("... completion
    // orders"); on a heavily loaded host the cancel may land while still
    // queued, which is the other legitimate Cancelled path.
    const bool from_solver =
        result.error().detail.find("completion orders") != std::string::npos;
    const bool from_queue =
        result.error().detail.find("queued") != std::string::npos;
    EXPECT_TRUE(from_solver || from_queue) << result.error().detail;
  }
}

TEST(Scheduler, CancelRaceStressResolvesEveryTicketExactlyOnce) {
  // cancel() racing the worker's queued->running->resolved transitions,
  // many times over: every ticket must resolve exactly once, as either its
  // real result or Cancelled.  Run under -DMALSCHED_SANITIZE=thread for the
  // data-race proof.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::Scheduler::Options options;
  options.threads = 2;
  options.queue_capacity = 8;
  msvc::Scheduler scheduler(registry, options);
  const auto handle = msvc::intern(small_instance());

  const int rounds = 64;
  std::atomic<int> resolved{0};
  for (int i = 0; i < rounds; ++i) {
    auto ticket = scheduler.submit(i % 2 == 0 ? "wdeq" : "deq", handle);
    std::thread canceller([&ticket] { (void)ticket.cancel(); });
    const auto result = ticket.get();
    if (result.ok()) {
      ++resolved;
    } else {
      EXPECT_EQ(result.error().code, msvc::ErrorCode::Cancelled);
      ++resolved;
    }
    canceller.join();
  }
  EXPECT_EQ(resolved.load(), rounds);
}

TEST(Scheduler, PriorityAdmissionServesCheapUrgentWorkFirst) {
  // Deterministic pop-order check: the blocker pins the single worker while
  // the backlog queues, so the pop order is exactly the rank order.  The
  // heavy request is admitted *first* but its cost hint dwarfs the light
  // ones, so weighted-priority admission must reorder — and Fifo must not.
  for (const bool fifo : {false, true}) {
    std::atomic<bool> released{false};
    std::vector<std::string> order;
    std::mutex order_mutex;
    auto registry = registry_with_blocker(released);
    const auto recorder = [&](const char* name, double cost_seconds) {
      msvc::SolverRegistry::SolverInfo info;
      info.fn = [&order, &order_mutex, label = std::string(name)](
                    const mc::Instance& inst, const msvc::SolveContext&) {
        {
          const std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(label);
        }
        return msvc::SolveResult::success(
            "", msvc::SolveOutput{0.0, 0.0,
                                  std::vector<double>(inst.size(), 0.0)});
      };
      info.description = "pop-order recorder";
      info.cacheable = false;
      info.cost_hint = [cost_seconds](std::size_t) { return cost_seconds; };
      registry.register_solver(name, std::move(info));
    };
    recorder("rec-heavy", 100.0);
    recorder("rec-light", 1e-4);

    msvc::Scheduler::Options options;
    options.threads = 1;
    options.admission = fifo ? msvc::Scheduler::Admission::Fifo
                             : msvc::Scheduler::Admission::WeightedPriority;
    msvc::Scheduler scheduler(registry, options);
    const auto handle = msvc::intern(small_instance());

    auto holder = scheduler.submit("blocker", handle);
    std::vector<msvc::Ticket> tickets;
    tickets.push_back(scheduler.submit("rec-heavy", handle));
    for (int i = 0; i < 3; ++i) {
      tickets.push_back(scheduler.submit("rec-light", handle));
    }
    released.store(true, std::memory_order_release);
    for (auto& ticket : tickets) {
      EXPECT_TRUE(ticket.get().ok());
    }
    EXPECT_TRUE(holder.get().ok());

    ASSERT_EQ(order.size(), 4u);
    if (fifo) {
      EXPECT_EQ(order.front(), "rec-heavy") << "Fifo must keep arrival order";
    } else {
      EXPECT_EQ(order.back(), "rec-heavy")
          << "priority admission must serve the cheap requests first";
    }
  }
}

TEST(Scheduler, PriorityWeightOutranksEqualWork) {
  // Two identical heavy requests, the later one carrying 16x the priority
  // weight: its aged-work term shrinks 16x, so it must pop first.
  std::atomic<bool> released{false};
  std::vector<int> order;
  std::mutex order_mutex;
  auto registry = registry_with_blocker(released);
  {
    msvc::SolverRegistry::SolverInfo info;
    info.fn = [&order, &order_mutex](const mc::Instance& inst,
                                     const msvc::SolveContext&) {
      {
        const std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(static_cast<int>(inst.size()));
      }
      return msvc::SolveResult::success(
          "", msvc::SolveOutput{0.0, 0.0,
                                std::vector<double>(inst.size(), 0.0)});
    };
    info.description = "records n as identity";
    info.cacheable = false;
    info.cost_hint = [](std::size_t) { return 100.0; };
    registry.register_solver("rec-n", std::move(info));
  }
  msvc::Scheduler scheduler(registry, {.threads = 1});

  auto holder = scheduler.submit("blocker", msvc::intern(small_instance()));
  // n identifies the request: 2 tasks = low weight, 3 tasks = high weight.
  auto low = scheduler.submit("rec-n", small_instance(),
                              {.priority_weight = 1.0});
  auto high = scheduler.submit(
      "rec-n",
      mc::Instance(4.0, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}}),
      {.priority_weight = 16.0});
  released.store(true, std::memory_order_release);
  EXPECT_TRUE(low.get().ok());
  EXPECT_TRUE(high.get().ok());
  EXPECT_TRUE(holder.get().ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 3) << "the 16x-weight request must be served first";
}

TEST(Scheduler, DeadlineExpiredWhileQueuedResolvesWithoutSolve) {
  std::atomic<bool> released{false};
  std::atomic<int> solves{0};
  auto registry = registry_with_blocker(released);
  registry.register_solver(
      "counted",
      [&solves](const mc::Instance& inst) {
        solves.fetch_add(1, std::memory_order_relaxed);
        return msvc::SolveResult::success(
            "", msvc::SolveOutput{0.0, 0.0,
                                  std::vector<double>(inst.size(), 0.0)});
      },
      /*order_invariant=*/false, "solve counter", /*cacheable=*/false);
  msvc::Scheduler scheduler(registry, {.threads = 1});
  const auto handle = msvc::intern(small_instance());

  auto holder = scheduler.submit("blocker", handle);
  msvc::SubmitOptions options;
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  auto doomed = scheduler.submit("counted", handle, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  released.store(true, std::memory_order_release);

  const auto result = doomed.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, msvc::ErrorCode::DeadlineExceeded);
  EXPECT_NE(result.error().detail.find("admission queue"), std::string::npos);
  EXPECT_TRUE(holder.get().ok());
  EXPECT_EQ(solves.load(), 0) << "expired queued work must never solve";
}

TEST(Scheduler, GenerousDeadlineDoesNotPerturbTheResult) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::Scheduler scheduler(registry, {.threads = 1});
  const auto handle = msvc::intern(small_instance());
  msvc::SubmitOptions options;
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  auto with_deadline = scheduler.submit("wdeq", handle, options);
  auto without = scheduler.submit("wdeq", handle);
  const auto a = with_deadline.get();
  const auto b = without.get();
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  EXPECT_EQ(a.objective(), b.objective());
  EXPECT_EQ(a.completions(), b.completions());
}

TEST(Scheduler, DestructorDrainsPendingWork) {
  // Tickets taken before the scheduler dies must still resolve (the
  // destructor closes admission and drains the queue, it does not drop it).
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto handle = msvc::intern(small_instance());
  std::vector<msvc::Ticket> tickets;
  {
    msvc::Scheduler scheduler(registry, {.threads = 2});
    for (int i = 0; i < 16; ++i) {
      tickets.push_back(scheduler.submit("wdeq", handle));
    }
  }  // ~Scheduler joins workers
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket.get().ok());
  }
}
