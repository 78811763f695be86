// E-SVC — service layer: batch throughput, cache speedup, determinism,
// streaming admission, priority admission, cancellation, and multi-process
// sharding.
//
// Eight claims about malsched::service are measured here:
//   1. batch throughput scales with worker threads (requests stream off the
//      Scheduler's admission queue; speedup is bounded by the host's core
//      count — a single-core host shows ~1x by construction),
//   2. a warm canonicalization cache answers repeated traffic much faster
//      than re-solving (target: >= 10x on the mean request),
//   3. the per-request output stream is byte-identical for every thread
//      count (deterministic request-order results),
//   4. streaming admission beats the barrier: on a batch mixing one long
//      `optimal` solve with many short `wdeq` requests, the client-observed
//      short-request p50 latency under the v2 Scheduler is strictly lower
//      than under a barrier-style fan-out (which hands back nothing until
//      the whole batch — long solve included — has finished),
//   5. priority admission beats FIFO on weighted mean response time: on a
//      backlogged mixed-duration batch (a burst of exponential `optimal`
//      solves ahead of many cheap high-weight `wdeq` requests), the
//      weighted-shortest-estimated-work queue must come out strictly ahead
//      — the headline number of the objective-aligned admission work,
//   6. a queued-then-cancelled `optimal` ticket resolves Cancelled without
//      ever consuming a worker solve,
//   7. multi-process sharding (shard::ShardRouter) is output-transparent —
//      byte-identical results to single-process serving — and scales
//      throughput with shard count on a cache-miss-heavy workload (like the
//      thread-scaling claim, the speedup is bounded by the host's core
//      count; a single-core host shows ~1x by construction, so the scaling
//      gate arms only on multi-core hosts).  Emitted to BENCH_shard.json,
//   8. on zipf-skewed repeated traffic arriving in fresh units and task
//      orders, the quantized rational normal form's hit rate beats the
//      legacy divide-only quotient by >= 20 points while a warm replay of
//      the stream is byte-identical to the first pass (TinyLFU admission
//      enabled, counters reported).

#include <benchmark/benchmark.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "malsched/core/generators.hpp"
#include "malsched/service/batch.hpp"
#include "malsched/service/canonical.hpp"
#include "malsched/service/scheduler.hpp"
#include "malsched/service/service.hpp"
#include "malsched/shard/router.hpp"
#include "malsched/support/rng.hpp"
#include "malsched/support/stats.hpp"
#include "malsched/support/table.hpp"
#include "malsched/support/thread_pool.hpp"

using namespace malsched;

namespace {

// Mixed workload: heterogeneous families/sizes, solver mix from cheap fluid
// policies to the order LP, and repeated instances (the cloud-batch pattern
// the cache is built for).  Instances are interned once and shared by
// handle, so repeats cost a shared_ptr copy, not a task-vector copy.
std::vector<service::BatchRequest> make_mixed_batch(std::size_t num_requests,
                                                    std::uint64_t seed) {
  support::Rng rng(seed);
  const std::vector<core::Family> families = {
      core::Family::Uniform, core::Family::BandwidthLike,
      core::Family::HeavyTailVolumes, core::Family::EqualWeights};
  std::vector<core::Instance> bases;
  std::vector<service::InstanceHandle> handles;
  const std::size_t num_bases = 48;
  for (std::size_t b = 0; b < num_bases; ++b) {
    core::GeneratorConfig config;
    config.family = families[b % families.size()];
    config.num_tasks = 4 + static_cast<std::size_t>(rng.uniform_int(0, 10));
    config.processors = static_cast<double>(1 << rng.uniform_int(1, 4));
    bases.push_back(core::generate(config, rng));
    handles.push_back(service::intern(bases.back()));
  }

  const std::vector<std::string> solvers = {
      "wdeq",          "deq",           "wrr",
      "smith-greedy",  "greedy-heuristic", "water-fill-smith",
      "order-lp-smith"};
  std::vector<service::BatchRequest> requests;
  requests.reserve(num_requests);
  for (std::size_t r = 0; r < num_requests; ++r) {
    const auto base_index =
        static_cast<std::size_t>(rng.uniform_int(0, num_bases - 1));
    service::BatchRequest request{
        solvers[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(solvers.size()) - 1))],
        handles[base_index]};
    // A third of the traffic is the same work in different units: scale
    // volumes/weights by powers of two, which the canonicalization cache
    // maps onto the base instance's entry exactly.
    if (rng.bernoulli(1.0 / 3.0)) {
      const auto& base = bases[base_index];
      std::vector<core::Task> tasks = base.tasks();
      const double vs = rng.bernoulli(0.5) ? 2.0 : 0.5;
      const double ws = rng.bernoulli(0.5) ? 4.0 : 0.25;
      for (auto& t : tasks) {
        t.volume *= vs;
        t.weight *= ws;
      }
      request.instance = service::intern(
          core::Instance(base.processors(), std::move(tasks)));
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

double time_batch(const service::SolverRegistry& registry,
                  const std::vector<service::BatchRequest>& requests,
                  unsigned threads, service::ResultCache* cache,
                  std::vector<service::SolveResult>* results_out = nullptr) {
  // Scheduler construction (thread spawn) stays outside the timed window so
  // the numbers measure solving, not worker startup.
  service::Scheduler::Options options;
  options.threads = threads;
  options.cache = cache;
  options.use_cache = cache != nullptr;
  service::Scheduler scheduler(registry, options);
  const auto start = std::chrono::steady_clock::now();
  auto results = service::solve_batch(scheduler, requests);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (results_out != nullptr) {
    *results_out = std::move(results);
  }
  return seconds;
}

std::string results_text(std::vector<service::SolveResult> results) {
  service::ServiceReport report;
  report.results = std::move(results);
  return service::format_results(report);
}

// --- 4. streaming admission vs the barrier, on a mixed-duration batch. ---
//
// The batch is one `optimal` request (n = 11: ~0.2 s of branch-and-bound)
// buried among short `wdeq` requests.  Client-observed latency
// of request i is "when can the client act on result i":
//   * barrier style (v1 solve_batch): the call returns the whole vector at
//     once, so every request's latency is the full batch wall time;
//   * streaming (v2 Scheduler): each Ticket resolves independently, so a
//     short request's latency is its own submit-to-completion time.
// Returns false when the v2 short-request p50 is not strictly lower.
bool run_streaming_vs_barrier(const service::SolverRegistry& registry,
                              const bench::BenchConfig& config,
                              bench::BenchJson& json) {
  const unsigned threads = 8;
  const std::size_t num_short = bench::scaled(256, config.scale);
  support::Rng rng(config.seed + 7);
  core::GeneratorConfig long_config;
  long_config.family = core::Family::Uniform;
  long_config.num_tasks = 11;  // branch-and-bound: a ~0.2 s solve
  long_config.processors = 4.0;
  const auto long_handle = service::intern(core::generate(long_config, rng));

  std::vector<service::BatchRequest> requests;
  requests.reserve(num_short + 1);
  requests.push_back({"optimal", long_handle});  // long solve admitted first
  for (std::size_t i = 0; i < num_short; ++i) {
    core::GeneratorConfig config_short;
    config_short.family = core::Family::Uniform;
    config_short.num_tasks = 4 + i % 6;
    config_short.processors = 4.0;
    requests.push_back(
        {"wdeq", service::intern(core::generate(config_short, rng))});
  }

  // Barrier style: fan out over a ThreadPool, results visible only when the
  // whole batch returns (this is exactly what v1 solve_batch offered).
  support::Sample barrier_latencies;
  {
    support::ThreadPool pool(threads);
    std::vector<service::SolveResult> results(requests.size());
    const auto start = std::chrono::steady_clock::now();
    pool.parallel_for(0, requests.size(), [&](std::size_t i) {
      results[i] = service::solve_cached(registry, requests[i].solver,
                                         requests[i].instance, nullptr);
    });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    for (std::size_t i = 1; i < results.size(); ++i) {
      barrier_latencies.add(wall);  // nothing observable before the barrier
    }
  }

  // Streaming: every ticket resolves on its own; latency_seconds is the
  // Scheduler's submit-to-completion measurement (queueing included).
  support::Sample streaming_latencies;
  double long_latency = 0.0;
  {
    service::Scheduler::Options options;
    options.threads = threads;
    options.use_cache = false;
    service::Scheduler scheduler(registry, options);
    std::vector<service::Ticket> tickets;
    tickets.reserve(requests.size());
    for (const auto& request : requests) {
      tickets.push_back(scheduler.submit(request.solver, request.instance));
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const auto result = tickets[i].get();
      if (i == 0) {
        long_latency = result.latency_seconds;
      } else {
        streaming_latencies.add(result.latency_seconds);
      }
    }
  }

  const double p50_barrier = barrier_latencies.quantile(0.5);
  const double p50_streaming = streaming_latencies.quantile(0.5);
  support::TextTable table({{"path", support::Align::Left},
                            {"short p50 (ms)", support::Align::Right},
                            {"short p99 (ms)", support::Align::Right},
                            {"long solve (s)", support::Align::Right}});
  table.add_row({"barrier (v1)", support::fmt_double(p50_barrier * 1e3),
                 support::fmt_double(barrier_latencies.quantile(0.99) * 1e3),
                 "-"});
  table.add_row({"streaming (v2)", support::fmt_double(p50_streaming * 1e3),
                 support::fmt_double(streaming_latencies.quantile(0.99) * 1e3),
                 support::fmt_double(long_latency)});
  std::printf(
      "mixed-duration batch (1 optimal n=11 + %zu wdeq, %u threads):\n%s",
      num_short, threads, table.to_string().c_str());
  const bool streaming_wins = p50_streaming < p50_barrier;
  std::printf("streaming admission: short-request p50 %.3f ms vs %.3f ms "
              "under the barrier — %s\n\n",
              p50_streaming * 1e3, p50_barrier * 1e3,
              streaming_wins ? "STRICTLY LOWER (ok)" : "NOT LOWER (BUG)");
  json.add("streaming_admission", "short_p50_ns_barrier", p50_barrier * 1e9);
  json.add("streaming_admission", "short_p50_ns_streaming",
           p50_streaming * 1e9);
  json.add("streaming_admission", "short_p99_ns_streaming",
           streaming_latencies.quantile(0.99) * 1e9);
  json.add("streaming_admission", "long_solve_ns", long_latency * 1e9);
  return streaming_wins;
}

// --- 5. priority vs FIFO admission on a backlogged mixed-duration batch. --
//
// The paper's objective at the serving layer: a burst of heavy `optimal`
// solves (n = 9, tens of milliseconds each via branch-and-bound) is
// admitted *ahead of* a stream of cheap high-priority-weight `wdeq`
// requests, with fewer workers than the backlog.  Under FIFO every cheap
// request waits for the whole heavy burst; under the weighted-priority
// queue the cheap requests overtake it.  The score is the weighted mean
// response time Σ w·latency / Σ w over all requests (w = priority weight),
// which priority admission must strictly beat.  Returns false otherwise.
bool run_priority_vs_fifo(const service::SolverRegistry& registry,
                          const bench::BenchConfig& config,
                          bench::BenchJson& json) {
  const unsigned threads = 2;
  // Floors keep the scenario meaningful at CI smoke scale: the heavy burst
  // must exceed the worker count, or both workers grab the whole burst
  // immediately, no backlog ever forms, and the strict priority-vs-FIFO
  // gate would be decided by noise.
  const std::size_t num_heavy = bench::scaled(8, config.scale, threads + 4);
  const std::size_t num_light = bench::scaled(64, config.scale, 16);
  const double heavy_weight = 1.0;
  const double light_weight = 4.0;

  struct Request {
    std::string solver;
    service::InstanceHandle instance;
    double weight;
  };
  std::vector<Request> requests;
  requests.reserve(num_heavy + num_light);
  support::Rng rng(config.seed + 13);
  for (std::size_t i = 0; i < num_heavy; ++i) {
    core::GeneratorConfig heavy_config;
    heavy_config.family = core::Family::Uniform;
    heavy_config.num_tasks = 9;  // branch-and-bound territory: ~10s of ms
    heavy_config.processors = 4.0;
    requests.push_back({"optimal",
                        service::intern(core::generate(heavy_config, rng)),
                        heavy_weight});
  }
  for (std::size_t i = 0; i < num_light; ++i) {
    core::GeneratorConfig light_config;
    light_config.family = core::Family::Uniform;
    light_config.num_tasks = 4 + i % 5;
    light_config.processors = 4.0;
    requests.push_back({"wdeq",
                        service::intern(core::generate(light_config, rng)),
                        light_weight});
  }

  const auto weighted_mean_response =
      [&](service::Scheduler::Admission admission) {
        service::Scheduler::Options options;
        options.threads = threads;
        options.use_cache = false;  // measure solving, not memoization
        options.admission = admission;
        options.queue_capacity = requests.size() + 1;  // a true backlog
        service::Scheduler scheduler(registry, options);
        std::vector<service::Ticket> tickets;
        tickets.reserve(requests.size());
        for (const auto& request : requests) {
          service::SubmitOptions submit_options;
          submit_options.priority_weight = request.weight;
          tickets.push_back(scheduler.submit(request.solver, request.instance,
                                             submit_options));
        }
        double weighted_sum = 0.0;
        double weight_sum = 0.0;
        for (std::size_t i = 0; i < tickets.size(); ++i) {
          const auto result = tickets[i].get();
          weighted_sum += requests[i].weight * result.latency_seconds;
          weight_sum += requests[i].weight;
        }
        return weighted_sum / weight_sum;
      };

  const double fifo = weighted_mean_response(service::Scheduler::Admission::Fifo);
  const double priority =
      weighted_mean_response(service::Scheduler::Admission::WeightedPriority);

  support::TextTable table({{"admission", support::Align::Left},
                            {"weighted mean response (ms)",
                             support::Align::Right}});
  table.add_row({"fifo", support::fmt_double(fifo * 1e3)});
  table.add_row({"weighted priority", support::fmt_double(priority * 1e3)});
  std::printf(
      "backlogged mixed-duration batch (%zu optimal n=9 ahead of %zu wdeq, "
      "weights %g/%g, %u threads):\n%s",
      num_heavy, num_light, heavy_weight, light_weight, threads,
      table.to_string().c_str());
  const bool priority_wins = priority < fifo;
  std::printf("priority admission: weighted mean response %.3f ms vs "
              "%.3f ms under FIFO (%.1fx) — %s\n\n",
              priority * 1e3, fifo * 1e3, fifo / priority,
              priority_wins ? "STRICTLY LOWER (ok)" : "NOT LOWER (BUG)");
  json.add("priority_admission", "weighted_mean_response_ns_fifo",
           fifo * 1e9);
  json.add("priority_admission", "weighted_mean_response_ns_priority",
           priority * 1e9);
  json.add("priority_admission", "improvement_x", fifo / priority);
  return priority_wins;
}

// --- 6. queued-then-cancelled optimal ticket: Cancelled, zero solves. ---
//
// One worker is pinned by a heavy `optimal` solve; a second `optimal`
// request is admitted behind it, cancelled while queued, and must resolve
// ErrorCode::Cancelled without the (instrumented) solver ever running.
bool run_cancel_check(bench::BenchJson& json) {
  auto registry = service::SolverRegistry::with_default_solvers();
  std::atomic<int> solves{0};
  {
    const auto* base = registry.find("optimal");
    service::SolverRegistry::SolverInfo counted = *base;
    counted.fn = [inner = base->fn, &solves](
                     const core::Instance& instance,
                     const service::SolveContext& context) {
      solves.fetch_add(1, std::memory_order_relaxed);
      return inner(instance, context);
    };
    registry.register_solver("counted-optimal", std::move(counted));
  }

  service::Scheduler::Options options;
  options.threads = 1;
  options.use_cache = false;
  service::Scheduler scheduler(registry, options);
  support::Rng rng(20120521);
  core::GeneratorConfig config;
  config.family = core::Family::Uniform;
  config.num_tasks = 10;
  config.processors = 4.0;
  auto running = scheduler.submit("counted-optimal",
                                  service::intern(core::generate(config, rng)));
  auto queued = scheduler.submit("counted-optimal",
                                 service::intern(core::generate(config, rng)));
  const bool cancel_accepted = queued.cancel();
  const auto cancelled_result = queued.get();  // resolved by cancel() itself
  const bool first_ok = running.get().ok();

  const bool cancelled_ok = cancel_accepted && !cancelled_result.ok() &&
                            cancelled_result.error().code ==
                                service::ErrorCode::Cancelled &&
                            first_ok && solves.load() == 1;
  std::printf("queued-then-cancelled optimal ticket: code=%s, solver "
              "invocations=%d (want 1) — %s\n\n",
              cancelled_result.ok()
                  ? "ok"
                  : service::error_code_name(cancelled_result.error().code),
              solves.load(), cancelled_ok ? "CANCELLED CLEANLY (ok)" : "BUG");
  json.add("cancellation", "queued_cancel_ok", cancelled_ok ? 1.0 : 0.0);
  json.add("cancellation", "solver_invocations", solves.load());
  return cancelled_ok;
}

// --- 7. sharded vs single-process serving on a cache-miss-heavy batch. ---
//
// Every request is a *distinct* generated instance solved once, so nothing
// is served from a cache and the solver cost dominates — the regime where
// horizontal fan-out across worker processes must pay.  Two gates: the
// sharded output must be byte-identical to single-process serving (exact
// hexfloat wire round-trip, the sharding transparency contract), and on a
// multi-core host throughput with 2 shards must strictly beat 1 shard.
// Emits BENCH_shard.json.
//
// MUST run before anything touches ThreadPool::global() or leaves other
// threads alive: the router forks, and the fork-without-exec contract
// requires a single-threaded parent.
bool run_sharded_vs_single(const service::SolverRegistry& registry,
                           const bench::BenchConfig& config) {
  bench::BenchJson json("shard", config);
  const std::size_t num_requests = bench::scaled(128, config.scale, 64);
  service::BatchSpec batch;
  support::Rng rng(config.seed + 29);
  for (std::size_t i = 0; i < num_requests; ++i) {
    const std::string name = "miss-" + std::to_string(i);
    core::GeneratorConfig generator;
    generator.family = core::Family::Uniform;
    generator.num_tasks = 24;  // order LP ~10 ms: solver cost dominates wire
    generator.processors = 8.0;
    batch.instances.emplace(name, core::generate(generator, rng));
    batch.requests.push_back({"order-lp-smith", name, i + 1, 1.0, {}});
  }

  support::TextTable table({{"mode", support::Align::Left},
                            {"seconds", support::Align::Right},
                            {"req/s", support::Align::Right},
                            {"speedup vs 1 shard", support::Align::Right}});
  const auto add = [&](const std::string& mode, const std::string& scenario,
                       double seconds, double base_seconds) {
    table.add_row({mode, support::fmt_double(seconds),
                   support::fmt_double(static_cast<double>(num_requests) /
                                       seconds),
                   support::fmt_double(base_seconds / seconds)});
    json.add(scenario, "wall_ns", seconds * 1e9);
    json.add(scenario, "requests_per_second",
             static_cast<double>(num_requests) / seconds);
  };

  std::string single_text;
  double single_seconds = 0.0;
  {
    service::ServiceOptions options;
    options.threads = 1;
    const auto report = service::run_service(batch, registry, options);
    single_seconds = report.wall_seconds;
    single_text = service::format_results(report);
  }

  std::string sharded_text;
  double shard_seconds[3] = {0.0, 0.0, 0.0};
  const std::size_t shard_counts[3] = {1, 2, 4};
  for (std::size_t s = 0; s < 3; ++s) {
    shard::RouterOptions options;
    options.shards = shard_counts[s];
    options.worker.threads = 1;
    shard::ShardRouter router(registry, options);
    const auto report = router.run(batch);
    shard_seconds[s] = report.wall_seconds;
    if (shard_counts[s] == 2) {
      sharded_text = service::format_results(report);
    }
    add("sharded x" + std::to_string(shard_counts[s]),
        "shards_" + std::to_string(shard_counts[s]), report.wall_seconds,
        shard_seconds[0]);
  }
  add("single-process (1 thread)", "single_process", single_seconds,
      shard_seconds[0]);

  // Data plane: the same cache-miss-heavy batch with the transport forced
  // to shm rings and to socketpair frames, at 1/2/4 shards.  The gated
  // floor is the tentpole's claim: on a multi-core host, 2 shards over shm
  // must clear 1.5x the single-process wall time.  Socketpair rows make
  // the plane's own contribution visible next to the fork-parallelism win.
  double shm_2shard_seconds = 0.0;
  {
    support::TextTable plane_table({{"plane", support::Align::Left},
                                    {"shards", support::Align::Right},
                                    {"seconds", support::Align::Right},
                                    {"req/s", support::Align::Right},
                                    {"speedup vs single", support::Align::Right}});
    const struct {
      shard::DataPlaneMode mode;
      const char* name;
    } planes[] = {{shard::DataPlaneMode::Shm, "shm"},
                  {shard::DataPlaneMode::Socketpair, "socketpair"}};
    for (const auto& plane : planes) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                       std::size_t{4}}) {
        shard::RouterOptions options;
        options.shards = shards;
        options.worker.threads = 1;
        options.data_plane = plane.mode;
        shard::ShardRouter router(registry, options);
        const auto report = router.run(batch);
        if (plane.mode == shard::DataPlaneMode::Shm && shards == 2) {
          shm_2shard_seconds = report.wall_seconds;
        }
        plane_table.add_row(
            {plane.name, support::fmt_int(shards),
             support::fmt_double(report.wall_seconds),
             support::fmt_double(static_cast<double>(num_requests) /
                                 report.wall_seconds),
             support::fmt_double(single_seconds / report.wall_seconds)});
        const std::string scenario = "data_plane_" + std::string(plane.name) +
                                     "_x" + std::to_string(shards);
        json.add(scenario, "wall_ns", report.wall_seconds * 1e9);
        json.add(scenario, "requests_per_second",
                 static_cast<double>(num_requests) / report.wall_seconds);
        json.add(scenario, "speedup_vs_single_process",
                 single_seconds / report.wall_seconds);
      }
    }
    std::printf("data plane sweep (same miss-heavy batch, forced plane):\n%s\n",
                plane_table.to_string().c_str());
  }

  // Failover under load: the same batch, replication 2, and one worker
  // SIGKILLed about 40% into the healthy x2 wall time.  Every request must
  // still succeed — queued work fails over to the primed replica, in-flight
  // work is *retried* under its idempotency token — and the run finishes at
  // a useful fraction of the healthy rate.  The killer thread is joined
  // before this function returns, restoring the fork-safety invariant.
  bool failover_ok = false;
  double failover_seconds = 0.0;
  std::uint64_t retries_replayed = 0;
  {
    shard::RouterOptions options;
    options.shards = 2;
    options.replication = 2;
    options.worker.threads = 1;
    shard::ShardRouter router(registry, options);
    const pid_t victim = router.pid_of(0);
    std::thread killer([victim, delay = shard_seconds[1] * 0.4] {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      if (victim > 0) {
        ::kill(victim, SIGKILL);
      }
    });
    const auto report = router.run(batch);
    killer.join();
    failover_seconds = report.wall_seconds;
    std::size_t ok_count = 0;
    for (const auto& result : report.results) {
      ok_count += result.ok() ? 1 : 0;
    }
    const auto& stats = router.transport_stats();
    retries_replayed = stats.retries_replayed;
    failover_ok = ok_count == report.results.size() && stats.dead_peers == 1;
    add("sharded x2, 1 killed mid-run", "failover_under_load",
        failover_seconds, shard_seconds[0]);
    json.add("failover_under_load", "ok_requests",
             static_cast<double>(ok_count));
    json.add("failover_under_load", "retries_replayed",
             static_cast<double>(stats.retries_replayed));
    json.add("failover_under_load", "dead_peers",
             static_cast<double>(stats.dead_peers));
    json.add("failover_under_load", "all_ok", failover_ok ? 1 : 0);
  }

  const bool identical = sharded_text == single_text;
  const unsigned cores = std::thread::hardware_concurrency();
  // Router + workers need their own cores for fan-out to pay; on a
  // single-core host the claim degenerates and only transparency is gated.
  const bool scaling_armed = cores >= 2;
  const bool scales = shard_seconds[1] < shard_seconds[0];
  std::printf("sharded vs single-process (%zu distinct order-lp-smith "
              "requests, cold caches, %u hardware threads):\n%s",
              num_requests, cores, table.to_string().c_str());
  std::printf("sharding transparency: --shards 2 output %s\n",
              identical ? "IDENTICAL to single-process (byte-for-byte)"
                        : "DIFFERS (BUG)");
  std::printf("shard scaling: x2 vs x1 speedup %.2fx — %s\n",
              shard_seconds[0] / shard_seconds[1],
              !scaling_armed ? "not gated on a single-core host"
              : scales      ? "FASTER (ok)"
                            : "NOT FASTER (BUG)");
  std::printf("failover under load: SIGKILL at 40%% of the x2 run, "
              "%llu in-flight retr%s replayed, finished in %.2fs — %s\n\n",
              static_cast<unsigned long long>(retries_replayed),
              retries_replayed == 1 ? "y" : "ies", failover_seconds,
              failover_ok ? "ALL REQUESTS OK (ok)" : "REQUESTS LOST (BUG)");
  // The data-plane floor, gated like the scaling claim: fan-out cannot pay
  // without cores to fan out onto.
  const double shm_speedup = single_seconds / shm_2shard_seconds;
  const bool shm_floor_ok = shm_speedup >= 1.5;
  std::printf("data plane floor: 2-shard shm %.2fx single-process "
              "(floor 1.5x) — %s\n\n",
              shm_speedup,
              !scaling_armed ? "not gated on a single-core host"
              : shm_floor_ok ? "CLEARED (ok)"
                             : "BELOW FLOOR (BUG)");
  json.add("transparency", "sharded_identical_to_single", identical ? 1 : 0);
  json.add("scaling", "speedup_2_shards_vs_1", shard_seconds[0] / shard_seconds[1]);
  json.add("scaling", "speedup_4_shards_vs_1", shard_seconds[0] / shard_seconds[2]);
  json.add("scaling", "gate_armed", scaling_armed ? 1 : 0);
  json.add("data_plane", "speedup_shm_2_shards_vs_single", shm_speedup);
  json.add("data_plane", "floor", 1.5);
  json.add("data_plane", "gate_armed", scaling_armed ? 1 : 0);
  json.write();
  return identical && (!scaling_armed || scales) &&
         (!scaling_armed || shm_floor_ok) && failover_ok;
}

// --- 8. zipf-skewed repeated traffic: the cache normal form's hit rate. ---
//
// The cloud-batch pattern the rational normal form exists for: a small set
// of base workloads arrives over and over under zipf-skewed popularity,
// each time in different units (arbitrary continuous volume/weight scales,
// nothing power-of-two) and with tasks listed in a different order.  The
// legacy divide-only quotient keys on raw ratio bits, so every non-pow2
// rescaling is a distinct key and the cache never warms; the quantized
// normal form snaps the ratios to shared rationals and every repeat after a
// base's first arrival hits.  Three CI gates:
//   * the quantized hit rate must clear an absolute floor (0.5),
//   * it must beat the legacy quotient's (simulated by first-seen counting
//     of quantize=false keys over the same stream) by >= 20 points — the
//     acceptance bar of the normal-form PR,
//   * replaying the stream against the warm cache must reproduce the first
//     pass byte-for-byte (hits denormalize through the same canonical entry
//     the miss filled, so output bytes cannot depend on cache state).
// TinyLFU admission runs on the cache to exercise the production
// configuration; admitted/rejected counters land in the JSON.
bool run_zipf_hit_rate(const service::SolverRegistry& registry,
                       const bench::BenchConfig& config,
                       bench::BenchJson& json) {
  const std::size_t num_bases = 24;
  const std::size_t num_requests = bench::scaled(1500, config.scale, 256);
  support::Rng rng(config.seed + 41);

  std::vector<core::Instance> bases;
  const std::vector<core::Family> families = {
      core::Family::Uniform, core::Family::BandwidthLike,
      core::Family::HeavyTailVolumes, core::Family::EqualWeights};
  for (std::size_t b = 0; b < num_bases; ++b) {
    core::GeneratorConfig generator;
    generator.family = families[b % families.size()];
    generator.num_tasks = 4 + static_cast<std::size_t>(rng.uniform_int(0, 8));
    generator.processors = static_cast<double>(1 << rng.uniform_int(1, 4));
    bases.push_back(core::generate(generator, rng));
  }

  // Zipf(1.2) popularity over the bases.
  std::vector<double> cdf(num_bases, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < num_bases; ++r) {
    total += std::pow(static_cast<double>(r + 1), -1.2);
    cdf[r] = total;
  }

  std::vector<service::InstanceHandle> stream;
  stream.reserve(num_requests);
  for (std::size_t r = 0; r < num_requests; ++r) {
    const double u = rng.uniform(0.0, total);
    const std::size_t b = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const auto& base = bases[std::min(b, num_bases - 1)];
    // The same work in fresh units and a fresh task order.
    const double vs = rng.uniform(0.25, 4.0);
    const double ws = rng.uniform(0.25, 4.0);
    std::vector<core::Task> tasks = base.tasks();
    for (auto& t : tasks) {
      t.volume *= vs;
      t.weight *= ws;
    }
    for (std::size_t i = tasks.size(); i > 1; --i) {
      std::swap(tasks[i - 1], tasks[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    stream.push_back(
        service::intern(core::Instance(base.processors(), std::move(tasks))));
  }

  // Legacy quotient baseline: first sight of a quantize=false key is the
  // miss it would have been; everything else would have hit.
  std::size_t legacy_hits = 0;
  {
    std::vector<std::string> seen;
    for (const auto& handle : stream) {
      service::CanonicalOptions legacy;
      legacy.quantize = false;
      const auto form = service::canonicalize(handle.instance(), legacy);
      std::string text = service::canonical_text(form);
      if (std::find(seen.begin(), seen.end(), text) != seen.end()) {
        ++legacy_hits;
      } else {
        seen.push_back(std::move(text));
      }
    }
  }

  service::CacheOptions cache_options;
  cache_options.capacity = std::size_t{1} << 16;
  cache_options.admission = true;
  service::ResultCache cache(cache_options);

  const auto pass = [&](std::size_t* hits_out) {
    std::vector<service::SolveResult> results;
    results.reserve(stream.size());
    std::size_t hits = 0;
    for (const auto& handle : stream) {
      results.push_back(service::solve_cached(registry, "wdeq", handle, &cache));
      hits += results.back().cache_hit ? 1 : 0;
    }
    if (hits_out != nullptr) {
      *hits_out = hits;
    }
    return results_text(std::move(results));
  };
  std::size_t quantized_hits = 0;
  const std::string first_pass = pass(&quantized_hits);
  const std::string warm_replay = pass(nullptr);

  const double n = static_cast<double>(num_requests);
  const double hit_rate_quantized = static_cast<double>(quantized_hits) / n;
  const double hit_rate_legacy = static_cast<double>(legacy_hits) / n;
  const double gain = hit_rate_quantized - hit_rate_legacy;
  const bool byte_identical = warm_replay == first_pass;
  const auto stats = cache.stats();

  support::TextTable table({{"canonicalization", support::Align::Left},
                            {"hit rate", support::Align::Right}});
  table.add_row({"legacy divide-only (simulated)",
                 support::fmt_ratio(hit_rate_legacy, 3)});
  table.add_row({"rational normal form",
                 support::fmt_ratio(hit_rate_quantized, 3)});
  std::printf("zipf-skewed repeats (%zu requests over %zu bases, continuous "
              "rescales + permutations, wdeq):\n%s",
              num_requests, num_bases, table.to_string().c_str());
  const bool floor_ok = hit_rate_quantized >= 0.5;
  const bool gain_ok = gain >= 0.20;
  std::printf("normal-form hit-rate gain: %.1f points (floor 20) — %s;  "
              "absolute floor 0.5: %s\n",
              gain * 100.0, gain_ok ? "CLEARED (ok)" : "BELOW (BUG)",
              floor_ok ? "CLEARED (ok)" : "BELOW (BUG)");
  std::printf("warm replay: output %s;  admission: %llu admitted, "
              "%llu rejected\n\n",
              byte_identical ? "IDENTICAL to first pass (byte-for-byte)"
                             : "DIFFERS (BUG)",
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.rejected));

  json.add("zipf_normal_form", "hit_rate_quantized", hit_rate_quantized);
  json.add("zipf_normal_form", "hit_rate_legacy", hit_rate_legacy);
  json.add("zipf_normal_form", "gain_points", gain * 100.0);
  json.add("zipf_normal_form", "byte_identical_replay",
           byte_identical ? 1.0 : 0.0);
  json.add("zipf_normal_form", "admitted", static_cast<double>(stats.admitted));
  json.add("zipf_normal_form", "rejected", static_cast<double>(stats.rejected));
  return floor_ok && gain_ok && byte_identical;
}

// Returns false when a correctness claim (determinism, streaming admission)
// fails, so CI's bench-smoke step turns red instead of just printing the
// mismatch.
[[nodiscard]] bool run_report(const bench::BenchConfig& config) {
  bench::print_banner("E-SVC (service layer)",
                      "batch scheduling service throughput", config);
  bench::BenchJson json("service_throughput", config);
  const auto registry = service::SolverRegistry::with_default_solvers();

  // Sharding forks worker processes, so it goes first — before the global
  // thread pool (or any other thread) exists in this process.
  const bool sharded = run_sharded_vs_single(registry, config);

  // --- 8. zipf-skewed repeated traffic through the cache normal form. ---
  const bool zipf = run_zipf_hit_rate(registry, config, json);

  const std::size_t num_requests = bench::scaled(1000, config.scale);
  const auto requests = make_mixed_batch(num_requests, config.seed);
  std::printf("mixed batch: %zu requests over %zu solvers, hardware threads: %u\n\n",
              requests.size(), registry.size(),
              support::ThreadPool::global().thread_count());

  // --- 1. throughput vs thread count (cold cache each run). ---
  {
    support::TextTable table({{"threads", support::Align::Right},
                              {"seconds", support::Align::Right},
                              {"req/s", support::Align::Right},
                              {"speedup", support::Align::Right}});
    double base_seconds = 0.0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      service::ResultCache cache(1 << 16);
      const double seconds = time_batch(registry, requests, threads, &cache);
      if (threads == 1) {
        base_seconds = seconds;
      }
      table.add_row({support::fmt_int(threads), support::fmt_double(seconds),
                     support::fmt_double(static_cast<double>(requests.size()) /
                                         seconds),
                     support::fmt_double(base_seconds / seconds)});
      const std::string scenario =
          "throughput_threads_" + std::to_string(threads);
      json.add(scenario, "wall_ns", seconds * 1e9);
      json.add(scenario, "requests_per_second",
               static_cast<double>(requests.size()) / seconds);
      json.add(scenario, "speedup_vs_1_thread", base_seconds / seconds);
    }
    std::printf("throughput vs threads (cold cache):\n%s\n",
                table.to_string().c_str());
  }

  // --- 2. cache: cold vs warm vs disabled. ---
  {
    service::ResultCache cache(1 << 16);
    const double cold = time_batch(registry, requests, 1, &cache);
    const double warm = time_batch(registry, requests, 1, &cache);
    const double uncached = time_batch(registry, requests, 1, nullptr);
    const auto stats = cache.stats();
    support::TextTable table({{"mode", support::Align::Left},
                              {"seconds", support::Align::Right},
                              {"mean us/req", support::Align::Right}});
    const auto us = [&](double seconds) {
      return seconds * 1e6 / static_cast<double>(requests.size());
    };
    table.add_row({"no cache", support::fmt_double(uncached),
                   support::fmt_double(us(uncached))});
    table.add_row({"cold cache", support::fmt_double(cold),
                   support::fmt_double(us(cold))});
    table.add_row({"warm cache", support::fmt_double(warm),
                   support::fmt_double(us(warm))});
    std::printf("canonicalization cache (1 thread):\n%s", table.to_string().c_str());
    std::printf("warm-vs-cold speedup: %.1fx (target >= 10x)  "
                "hit_rate after both passes: %.3f  entries: %zu  weight: %zu\n\n",
                cold / warm, stats.hit_rate(), stats.entries, stats.weight);
    json.add("cache", "cold_wall_ns", cold * 1e9);
    json.add("cache", "warm_wall_ns", warm * 1e9);
    json.add("cache", "uncached_wall_ns", uncached * 1e9);
    json.add("cache", "warm_speedup", cold / warm);
    json.add("cache", "hit_rate", stats.hit_rate());
  }

  // --- 3. determinism across thread counts. ---
  bool deterministic = false;
  {
    std::vector<service::SolveResult> results_1, results_8;
    service::ResultCache cache_1(1 << 16), cache_8(1 << 16);
    time_batch(registry, requests, 1, &cache_1, &results_1);
    time_batch(registry, requests, 8, &cache_8, &results_8);
    deterministic =
        results_text(std::move(results_1)) == results_text(std::move(results_8));
    std::printf("determinism: --threads 1 vs --threads 8 output %s\n\n",
                deterministic ? "IDENTICAL (byte-for-byte)" : "DIFFERS (BUG)");
  }

  const bool streaming = run_streaming_vs_barrier(registry, config, json);
  const bool priority = run_priority_vs_fifo(registry, config, json);
  const bool cancelled = run_cancel_check(json);
  json.add("determinism", "threads_1_vs_8_identical", deterministic ? 1.0 : 0.0);
  json.write();
  return deterministic && streaming && priority && cancelled && sharded && zipf;
}

void bm_solve_batch(benchmark::State& state) {
  static const auto registry = service::SolverRegistry::with_default_solvers();
  static const auto requests = make_mixed_batch(256, 20120521);
  const auto threads = static_cast<unsigned>(state.range(0));
  service::ResultCache cache(1 << 16);
  service::Scheduler::Options options;
  options.threads = threads;
  options.cache = &cache;
  service::Scheduler scheduler(registry, options);  // workers hoisted
  for (auto _ : state) {
    // Cold cache every iteration: otherwise rounds 2..N are pure hit
    // dispatch and the thread-scaling numbers measure lookups, not solving.
    state.PauseTiming();
    cache.clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        service::solve_batch(scheduler, requests).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(requests.size()));
}
// Real time, not CPU time: the work runs on Scheduler workers, so the main
// thread's CPU clock would report near-zero and inflate items/s.
BENCHMARK(bm_solve_batch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void bm_cache_hit(benchmark::State& state) {
  static const auto registry = service::SolverRegistry::with_default_solvers();
  static const auto requests = make_mixed_batch(64, 7);
  service::ResultCache cache(1 << 16);
  for (const auto& request : requests) {  // prime
    benchmark::DoNotOptimize(
        service::solve_cached(registry, request.solver, request.instance,
                              &cache)
            .ok());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& request = requests[i % requests.size()];
    benchmark::DoNotOptimize(
        service::solve_cached(registry, request.solver, request.instance,
                              &cache)
            .cache_hit);
    ++i;
  }
}
BENCHMARK(bm_cache_hit)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_config(argc, argv);
  const bool ok = run_report(config);
  if (config.timing) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return ok ? 0 : 1;
}
