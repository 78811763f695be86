// Workload `sharded`: generated batch text parsed by service::parse_batch
// and served closed-batch by a ShardRouter over 2 forked shards x 1
// scheduler thread on the default (shm) data plane.  The batch holds many
// distinct small instances (n = 8..40) under wdeq / deq / smith-greedy /
// water-fill-smith; ~60% of its requests repeat an earlier request, so they
// hit the owning worker's cache deterministically.  Solves are short, so
// parse, wire codec, shm rings and the router loop carry a large share.
//
// Each round serves the whole batch on cold worker caches: between rounds
// (untimed) both workers are restarted, so every round does the same work
// and the cache is insert-heavy in every round.  The end-to-end metrics are
// medians over the fastest quarter of a run's rounds (see run_sharded).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>

#include "malsched/core/generators.hpp"
#include "malsched/service/canonical.hpp"
#include "malsched/service/service.hpp"
#include "malsched/shard/router.hpp"
#include "malsched/shard/wire.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = malsched::core;
namespace service = malsched::service;
namespace shard = malsched::shard;
using malsched::support::Rng;
using malsched::support::Sample;

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kRequests = 4000;
constexpr double kRepeatShare = 0.6;
/// Rounds the traced run times with spans (after one untraced round).
constexpr std::size_t kTracedRounds = 4;
const char* const kSolvers[] = {"wdeq", "deq", "smith-greedy",
                                "water-fill-smith"};

/// The batch file the program receives: instance blocks in core/io.hpp
/// syntax (17 significant digits, so parsing restores the drawn doubles)
/// followed by the solve lines.
std::string make_batch_text(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 37);
  const core::Family families[] = {
      core::Family::Uniform, core::Family::UniformIntegral,
      core::Family::BandwidthLike, core::Family::HeavyTailVolumes};
  std::string instances;
  std::string solves;
  std::vector<std::pair<std::size_t, std::size_t>> issued;  // solver, inst
  std::size_t next_instance = 0;
  char buf[128];
  for (std::size_t k = 0; k < kRequests; ++k) {
    std::pair<std::size_t, std::size_t> request;
    if (!issued.empty() && rng.bernoulli(kRepeatShare)) {
      request = issued[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(issued.size()) - 1))];
    } else {
      core::GeneratorConfig config;
      config.family = families[next_instance % 4];
      config.num_tasks = static_cast<std::size_t>(rng.uniform_int(8, 40));
      config.processors = static_cast<double>(1 << rng.uniform_int(1, 4));
      const core::Instance instance = generate_conditioned(config, rng);
      std::snprintf(buf, sizeof buf, "instance i%zu\nprocessors %.17g\n",
                    next_instance, instance.processors());
      instances += buf;
      for (const core::Task& t : instance.tasks()) {
        std::snprintf(buf, sizeof buf, "task %.17g %.17g %.17g\n", t.volume,
                      t.width, t.weight);
        instances += buf;
      }
      instances += "end\n";
      request = {static_cast<std::size_t>(rng.uniform_int(0, 3)),
                 next_instance++};
    }
    issued.push_back(request);
    std::snprintf(buf, sizeof buf, "solve %s i%zu\n", kSolvers[request.first],
                  request.second);
    solves += buf;
  }
  return instances + solves;
}

shard::RouterOptions router_options() {
  shard::RouterOptions options;
  options.shards = kShards;
  options.worker.threads = 1;
  return options;
}

/// Every round served, with its throughput and router-observed latency
/// quantiles.
struct Rounds {
  std::size_t count = 0;
  std::size_t requests = 0;
  std::vector<double> rates;  ///< req/s per timed round
  std::vector<LatencyQuantiles> latency;
  std::string first_output;
  std::size_t divergent_rounds = 0;  ///< rounds whose output != round 0
  std::size_t failed = 0;
};

/// Restarts every worker so the next round starts on cold caches.  The
/// round has delivered every result, so the workers are killed instead of
/// drained: a drain waits out the worker's idle ring slice, which took
/// ~0.24 s a round, more than serving the round itself.
bool restart_all(shard::ShardRouter& router) {
  bool ok = true;
  for (std::size_t w = 0; w < router.shard_count(); ++w) {
    router.kill(w);
    ok = router.restart(w) && ok;
  }
  return ok;
}

void add_round(Rounds& rounds, const service::ServiceReport& report,
               double seconds) {
  const std::string output = service::format_results(report);
  if (rounds.count == 0) {
    rounds.first_output = output;
  } else if (output != rounds.first_output) {
    ++rounds.divergent_rounds;
  }
  ++rounds.count;
  rounds.requests += report.results.size();
  if (seconds > 0.0) {
    rounds.rates.push_back(static_cast<double>(report.results.size()) /
                           seconds);
    rounds.latency.push_back(latency_quantiles(report.latencies));
  }
  for (const auto& r : report.results) {
    rounds.failed += r.ok() ? 0 : 1;
  }
}

/// The sharded output must be byte-identical to single-process serving.
void check_against_single(RunResult& result, const Rounds& rounds,
                          const service::BatchSpec& batch,
                          const service::SolverRegistry& registry) {
  service::ServiceOptions single;
  single.threads = 1;
  const std::string expected =
      service::format_results(service::run_service(batch, registry, single));
  result.attempted += rounds.requests;
  for (std::size_t i = 0; i < rounds.failed; ++i) {
    result.mismatch("a sharded request failed");
  }
  if (rounds.first_output != expected) {
    result.mismatch("sharded output differs from single-process run_service");
  }
  for (std::size_t i = 0; i < rounds.divergent_rounds; ++i) {
    result.mismatch("a later round's output differs from round 0");
  }
}

void set_wire_metrics(RunResult& result, const service::BatchSpec& batch,
                      const service::ServiceReport& report) {
  using shard::wire::Dialect;
  constexpr int kReps = 5;
  std::size_t sink = 0;
  auto t0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto& [name, instance] : batch.instances) {
      sink += shard::wire::encode_instance(name, instance, Dialect::Binary)
                  .size();
    }
  }
  const double instance_ns = seconds_between(t0, Clock::now()) * 1e9 /
                             static_cast<double>(kReps * batch.instances.size());
  t0 = Clock::now();
  std::uint64_t id = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto& request : batch.requests) {
      shard::wire::SolveMessage message;
      message.id = ++id;
      message.token = id;
      message.priority_weight = request.priority_weight;
      message.solver = request.solver;
      message.instance_name = request.instance_name;
      sink += shard::wire::encode_solve(message, Dialect::Binary).size();
    }
  }
  const double solve_ns = seconds_between(t0, Clock::now()) * 1e9 /
                          static_cast<double>(kReps * batch.requests.size());
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    frames.push_back(
        shard::wire::encode_result(i, i, report.results[i], Dialect::Binary));
  }
  t0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const std::string& frame : frames) {
      const auto decoded = shard::wire::decode_result(frame);
      sink += decoded ? 1 : 0;
    }
  }
  const double result_ns = seconds_between(t0, Clock::now()) * 1e9 /
                           static_cast<double>(kReps * frames.size());
  if (sink == 0) {
    result.mismatch("wire codec produced nothing");
  }
  result.set("shard.wire.encode_instance_ns", instance_ns, "ns");
  result.set("shard.wire.encode_solve_ns", solve_ns, "ns");
  result.set("shard.wire.decode_result_ns", result_ns, "ns");
}

/// One round's in-process work on the busiest shard: the requests the ring
/// places on each shard, served by single-process run_service through an
/// instrumented registry (same solves, same cache hits as that shard).  No
/// router can finish a round faster than this, so a traced round's time
/// beyond it is router loop, wire codec, rings and worker transport.
struct ShardWork {
  double seconds = 0.0;  ///< run_service wall time
  /// Self seconds by layer, summing to `seconds`: the solver spans' layers,
  /// and `service` for the rest (intern, cache, scheduler).
  std::map<std::string, double> self;
};

ShardWork busiest_shard_work(const service::BatchSpec& batch,
                             const shard::ShardRouter& router) {
  std::vector<service::BatchSpec> parts(router.shard_count());
  std::map<std::string, std::uint32_t> owner;
  service::CanonicalOptions canonical;
  canonical.permute = true;  // the router's placement key
  for (const auto& [name, instance] : batch.instances) {
    const std::uint32_t w =
        router.owner_of(service::canonicalize(instance, canonical).key);
    owner[name] = w;
    parts[w].instances.emplace(name, instance);
  }
  for (const auto& request : batch.requests) {
    parts[owner.at(request.instance_name)].requests.push_back(request);
  }
  ShardWork busiest;
  for (const service::BatchSpec& part : parts) {
    Tracer tracer;
    const auto registry = instrumented_registry(tracer);
    service::ServiceOptions single;
    single.threads = 1;
    const auto t0 = Clock::now();
    (void)service::run_service(part, registry, single);
    const double seconds = seconds_between(t0, Clock::now());
    if (seconds > busiest.seconds) {
      busiest.seconds = seconds;
      busiest.self = tracer.self_seconds_by_layer();
      double traced = 0.0;
      for (const auto& [layer, self] : busiest.self) {
        traced += self;
      }
      busiest.self["service"] += std::max(0.0, seconds - traced);
    }
  }
  return busiest;
}

RunResult run_traced(const Options& options) {
  RunResult result;
  const std::string text = make_batch_text(options.seed);
  const auto registry = service::SolverRegistry::with_default_solvers();
  Tracer tracer;

  std::optional<service::BatchSpec> batch;
  std::string error;
  {
    ScopedSpan span(&tracer, "service.parse.batch");
    batch = service::parse_batch(text, &error);
  }
  if (!batch) {
    result.mismatch("parse_batch failed: " + error);
    return result;
  }
  const Span parse = tracer.spans_named("service.parse.batch").front();
  const double parse_s = parse.end - parse.start;
  result.set("service.parse.batch_ms", parse_s * 1e3, "ms");
  result.set("service.parse.mb_per_s",
             static_cast<double>(text.size()) / 1e6 / parse_s, "MB/s");

  std::unique_ptr<shard::ShardRouter> router;
  {
    ScopedSpan span(&tracer, "shard.router.spawn");
    router = std::make_unique<shard::ShardRouter>(registry, router_options());
  }
  const Span spawn = tracer.spans_named("shard.router.spawn").front();
  result.set("shard.setup.spawn_ms", (spawn.end - spawn.start) * 1e3, "ms");

  // Round 0, untraced: the pinned counts and the overhead baseline.
  Rounds rounds;
  const double router_cpu0 = cpu_seconds(false);
  const double worker_cpu0 = cpu_seconds(true);
  auto t0 = Clock::now();
  const service::ServiceReport report = router->run(*batch);
  const double untraced_s = seconds_between(t0, Clock::now());
  const double router_cpu = cpu_seconds(false) - router_cpu0;
  add_round(rounds, report, untraced_s);

  shard::DataPlaneStats plane;
  for (std::size_t w = 0; w < router->shard_count(); ++w) {
    if (const auto s = router->data_plane_stats(w)) {
      plane.frames_out += s->frames_out;
      plane.frames_in += s->frames_in;
      plane.bytes_out += s->bytes_out;
      plane.bytes_in += s->bytes_in;
      plane.producer_sleeps += s->producer_sleeps;
      plane.consumer_sleeps += s->consumer_sleeps;
      plane.wakes += s->wakes;
    }
  }
  const auto fleet = router->fleet_cache_summary();
  const auto fallbacks = router->transport_stats().shm_fallbacks;
  if (!restart_all(*router)) {
    result.mismatch("worker restart failed");
  }
  const double worker_cpu = cpu_seconds(true) - worker_cpu0;

  // Traced rounds, each on cold caches like round 0.
  double traced_s = 0.0;
  for (std::size_t round = 0; round < kTracedRounds; ++round) {
    {
      ScopedSpan span(&tracer, "shard.router.run");
      t0 = Clock::now();
      add_round(rounds, router->run(*batch), 0.0);
      traced_s += seconds_between(t0, Clock::now());
    }
    if (!restart_all(*router)) {
      result.mismatch("worker restart failed");
    }
  }
  traced_s /= static_cast<double>(kTracedRounds);
  const ShardWork work = busiest_shard_work(*batch, *router);
  router.reset();
  // The single-process reference runs on solver-wrapping spans of its own
  // tracer: the workers' solves happen in other processes, so this is where
  // the batch's per-solver times (sim, core.water_filling) are measured.
  // It is not on the sharded request path and stays out of the self shares.
  Tracer reference_tracer;
  const double reference_start = reference_tracer.now();
  check_against_single(result, rounds, *batch,
                       instrumented_registry(reference_tracer));
  set_scheduler_metrics(result, reference_tracer, 1,
                        reference_tracer.now() - reference_start);

  // The workers' own work happens in other processes, under the
  // shard.router.run spans.  Attribute the busiest shard's in-process work
  // to its layers, once per traced round (capped at the rounds' time), and
  // leave the rest of the router call to shard_net.
  auto self = tracer.self_seconds_by_layer();
  const double in_process = work.seconds * static_cast<double>(kTracedRounds);
  const double attributed =
      std::min(traced_s * static_cast<double>(kTracedRounds), in_process);
  self["shard_net"] -= attributed;
  for (const auto& [layer, seconds] : work.self) {
    self[layer] += seconds / work.seconds * attributed;
  }
  set_self_shares(result, self);
  result.set("bench.trace_overhead_ratio", traced_s / untraced_s, "ratio");
  const auto count = [&](const char* name, double v) {
    result.set(name, v, "count");
  };
  count("net.shm.frames_out", static_cast<double>(plane.frames_out));
  count("net.shm.frames_in", static_cast<double>(plane.frames_in));
  count("net.shm.bytes_out", static_cast<double>(plane.bytes_out));
  count("net.shm.bytes_in", static_cast<double>(plane.bytes_in));
  count("net.shm.producer_sleeps", static_cast<double>(plane.producer_sleeps));
  count("net.shm.consumer_sleeps", static_cast<double>(plane.consumer_sleeps));
  count("net.shm.wakes", static_cast<double>(plane.wakes));
  const double frames = static_cast<double>(plane.frames_out + plane.frames_in);
  result.set("net.shm.wakes_per_frame",
             frames > 0.0 ? static_cast<double>(plane.wakes) / frames : 0.0,
             "ratio");
  result.set("shard.wire.bytes_per_request",
             static_cast<double>(plane.bytes_out + plane.bytes_in) /
                 static_cast<double>(batch->requests.size()),
             "B");
  const LatencyQuantiles router_latency = latency_quantiles(report.latencies);
  result.set("shard.router.latency_p50_ms", router_latency.p50_ms, "ms");
  result.set("shard.router.latency_p99_ms", router_latency.p99_ms, "ms");
  result.set("shard.router.cpu_s", router_cpu, "s");
  result.set("shard.worker.cpu_s", worker_cpu, "s");
  count("shard.transport.shm_fallbacks", static_cast<double>(fallbacks));
  if (fallbacks != 0) {
    result.mismatch("a worker fell back to the socketpair data plane");
  }
  result.set("shard.cache.hit_ratio", fleet.total.hit_rate(), "share");
  set_cache_counts(result, fleet.total);

  set_wire_metrics(result, *batch, report);
  std::vector<core::Instance> sample;
  for (const auto& [name, instance] : batch->instances) {
    sample.push_back(instance);
  }
  set_canonical_metrics(result, sample);
  std::vector<std::string> keys;
  std::vector<std::size_t> tasks;
  for (const auto& request : batch->requests) {
    const auto& instance = batch->instances.at(request.instance_name);
    keys.push_back(cache_key(request.solver, instance,
                             registry.find(request.solver)->order_invariant));
    tasks.push_back(instance.size());
  }
  set_cache_replay_metrics(result, keys, tasks, scheduler_cache_options());
  write_trace(tracer, options);
  return result;
}

}  // namespace

RunResult run_sharded(const Options& options) {
  if (options.trace) {
    return run_traced(options);
  }
  RunResult result;
  const std::string text = make_batch_text(options.seed);
  const auto registry = service::SolverRegistry::with_default_solvers();

  // Set-up: parse the batch and fork + handshake the fleet, repeated.
  std::optional<service::BatchSpec> batch;
  std::unique_ptr<shard::ShardRouter> router;
  Sample setup_s;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    router.reset();
    batch.reset();
    const auto t0 = Clock::now();
    std::string error;
    batch = service::parse_batch(text, &error);
    if (!batch) {
      result.mismatch("parse_batch failed: " + error);
      return result;
    }
    router = std::make_unique<shard::ShardRouter>(registry, router_options());
    setup_s.add(seconds_between(t0, Clock::now()));
  }
  if (router->transport_stats().shm_fallbacks != 0) {
    result.mismatch("a worker fell back to the socketpair data plane");
  }

  Rounds rounds;
  const auto window_start = Clock::now();
  while (rounds.count == 0 ||
         seconds_between(window_start, Clock::now()) < options.seconds) {
    const auto t0 = Clock::now();
    const service::ServiceReport report = router->run(*batch);
    const double seconds = seconds_between(t0, Clock::now());
    add_round(rounds, report, seconds);
    if (!restart_all(*router)) {
      result.mismatch("worker restart failed");
      break;
    }
  }
  router.reset();  // reaps the shards, so their peak counts below
  const double peak_rss = std::max(peak_rss_mb(false), peak_rss_mb(true));
  check_against_single(result, rounds, *batch, registry);

  // The pipeline of router and two workers stalls whenever the host takes
  // a CPU from any of the three (hypervisor steal), and on a shared host
  // that slows a varying share of the rounds by up to a half.  The fastest
  // quarter of the rounds estimates the program's own speed; each metric is
  // its median over those rounds.
  std::vector<std::size_t> fastest(rounds.rates.size());
  std::iota(fastest.begin(), fastest.end(), std::size_t{0});
  std::sort(fastest.begin(), fastest.end(), [&](std::size_t a, std::size_t b) {
    return rounds.rates[a] > rounds.rates[b];
  });
  fastest.resize(std::max<std::size_t>(1, fastest.size() / 4));
  Sample rates, p50, p90, p99;
  for (const std::size_t i : fastest) {
    rates.add(rounds.rates[i]);
    p50.add(rounds.latency[i].p50_ms);
    p90.add(rounds.latency[i].p90_ms);
    p99.add(rounds.latency[i].p99_ms);
  }
  set_end_to_end(result, setup_s.median(), rates.median(),
                 {p50.median(), p90.median(), p99.median()}, peak_rss);
  return result;
}

}  // namespace perfbench
