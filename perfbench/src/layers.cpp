// Per-layer helpers shared by the workloads: the metric catalogue and the
// replays that time canonicalization and the result cache on a workload's
// own inputs.

#include <algorithm>
#include <cstdio>

#include "malsched/service/canonical.hpp"
#include "malsched/service/scheduler.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace service = malsched::service;
using malsched::support::Sample;

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m;
    for (const std::string& layer : reported_layers()) {
      m.emplace_back("trace." + layer + ".self_share", "share");
    }
    m.insert(m.end(), {
        {"service.parse.batch_ms", "ms"},
        {"service.parse.mb_per_s", "MB/s"},
        {"service.canonical.intern_p50_us", "us"},
        {"service.canonical.intern_p99_us", "us"},
        {"service.canonical.key_us", "us"},
        {"service.cache.hits", "count"},
        {"service.cache.misses", "count"},
        {"service.cache.hit_ratio", "share"},
        {"service.cache.admitted", "count"},
        {"service.cache.rejected", "count"},
        {"service.cache.evictions", "count"},
        {"service.cache.lookup_hit_us", "us"},
        {"service.cache.insert_us", "us"},
        {"service.scheduler.submit_us", "us"},
        {"service.scheduler.queue_wait_p50_ms", "ms"},
        {"service.scheduler.queue_wait_p99_ms", "ms"},
        {"service.scheduler.busy_ratio", "share"},
        {"service.solve.calls", "count"},
        {"service.solve.optimal.p50_us", "us"},
        {"service.solve.wdeq.p50_us", "us"},
        {"service.solve.deq.p50_us", "us"},
        {"service.solve.smith-greedy.p50_us", "us"},
        {"service.solve.water-fill-smith.p50_us", "us"},
        {"core.bnb.nodes", "count"},
        {"core.bnb.leaves", "count"},
        {"core.bnb.lp_evaluations", "count"},
        {"core.bnb.pruned_by_bound", "count"},
        {"core.bnb.pruned_by_cut", "count"},
        {"core.bnb.pruned_by_dominance", "count"},
        {"core.bnb.us_per_node", "us"},
        {"core.bnb.prune_ratio", "share"},
        {"core.enumeration.ms", "ms"},
        {"core.order_lp.push_us", "us"},
        {"core.order_lp.push_exact_us", "us"},
        {"shard.wire.encode_instance_ns", "ns"},
        {"shard.wire.encode_solve_ns", "ns"},
        {"shard.wire.decode_result_ns", "ns"},
        {"shard.wire.bytes_per_request", "B"},
        {"net.shm.frames_out", "count"},
        {"net.shm.frames_in", "count"},
        {"net.shm.bytes_out", "count"},
        {"net.shm.bytes_in", "count"},
        {"net.shm.producer_sleeps", "count"},
        {"net.shm.consumer_sleeps", "count"},
        {"net.shm.wakes", "count"},
        {"net.shm.wakes_per_frame", "ratio"},
        {"shard.router.latency_p50_ms", "ms"},
        {"shard.router.latency_p99_ms", "ms"},
        {"shard.router.cpu_s", "s"},
        {"shard.worker.cpu_s", "s"},
        {"shard.setup.spawn_ms", "ms"},
        {"shard.transport.shm_fallbacks", "count"},
        {"shard.cache.hit_ratio", "share"},
        {"bench.trace_overhead_ratio", "ratio"},
    });
    return m;
  }();
  return metrics;
}

void set_canonical_metrics(RunResult& result,
                           const std::vector<malsched::core::Instance>& sample) {
  if (sample.empty()) {
    return;
  }
  Sample intern_us;
  Sample key_us;
  for (const auto& instance : sample) {
    malsched::core::Instance copy = instance;
    const auto t0 = Clock::now();
    service::InstanceHandle handle = service::intern(std::move(copy));
    const auto t1 = Clock::now();
    const std::uint64_t key = handle.key();
    const auto t2 = Clock::now();
    if (key == 0 && handle.size() > 0) {
      result.mismatch("canonical key 0 for a non-empty instance");
    }
    intern_us.add(seconds_between(t0, t1) * 1e6);
    key_us.add(seconds_between(t1, t2) * 1e6);
  }
  result.set("service.canonical.intern_p50_us", intern_us.median(), "us");
  result.set("service.canonical.intern_p99_us", intern_us.quantile(0.99),
             "us");
  result.set("service.canonical.key_us", key_us.median(), "us");
}

void set_cache_replay_metrics(RunResult& result,
                              const std::vector<std::string>& keys,
                              const std::vector<std::size_t>& tasks,
                              const service::CacheOptions& options) {
  if (keys.empty()) {
    return;
  }
  const std::size_t rounds = std::max<std::size_t>(1, 20000 / keys.size());
  double insert_s = 0.0;
  double lookup_s = 0.0;
  std::size_t lookups = 0;
  std::size_t hits = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    service::ResultCache cache(options);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      service::CachedSolve value;
      value.completions.assign(tasks[i], 1.0);
      cache.put(keys[i], std::move(value));
    }
    const auto t1 = Clock::now();
    for (const std::string& key : keys) {
      hits += cache.get(key) != nullptr ? 1 : 0;
    }
    const auto t2 = Clock::now();
    insert_s += seconds_between(t0, t1);
    lookup_s += seconds_between(t1, t2);
    lookups += keys.size();
  }
  const double ops = static_cast<double>(lookups);
  result.set("service.cache.insert_us", insert_s / ops * 1e6, "us");
  result.set("service.cache.lookup_hit_us",
             hits == 0 ? 0.0 : lookup_s / static_cast<double>(hits) * 1e6,
             "us");
}

malsched::core::Instance generate_conditioned(
    const malsched::core::GeneratorConfig& config,
    malsched::support::Rng& rng) {
  const malsched::core::Instance drawn = malsched::core::generate(config, rng);
  const double floor = drawn.processors() / 200.0;
  std::vector<malsched::core::Task> tasks = drawn.tasks();
  for (auto& task : tasks) {
    task.width = std::max(task.width, floor);
  }
  return malsched::core::Instance(drawn.processors(), std::move(tasks));
}

void set_scheduler_metrics(RunResult& result, const Tracer& tracer,
                           unsigned threads, double wall) {
  Sample submit_us;
  for (const Span& s : tracer.spans_named("service.scheduler.submit")) {
    submit_us.add((s.end - s.start) * 1e6);
  }
  if (!submit_us.empty()) {
    result.set("service.scheduler.submit_us", submit_us.median(), "us");
  }
  std::map<std::uint64_t, double> wait_start;
  for (const Span& s : tracer.spans_named("service.scheduler.wait")) {
    wait_start[s.id] = s.start;
  }
  Sample queue_ms;
  std::map<std::string, Sample> solve_us;
  double busy = 0.0;
  const auto solves = tracer.spans_named("service.solve");
  for (const Span& s : solves) {
    solve_us[s.solver].add((s.end - s.start) * 1e6);
    busy += s.end - s.start;
    const auto it = wait_start.find(s.parent);
    if (it != wait_start.end()) {
      queue_ms.add((s.start - it->second) * 1e3);
    }
  }
  if (!queue_ms.empty()) {
    result.set("service.scheduler.queue_wait_p50_ms", queue_ms.median(), "ms");
    result.set("service.scheduler.queue_wait_p99_ms", queue_ms.quantile(0.99),
               "ms");
  }
  result.set("service.scheduler.busy_ratio",
             wall > 0.0 ? busy / (threads * wall) : 0.0, "share");
  result.set("service.solve.calls", static_cast<double>(solves.size()),
             "count");
  for (const auto& [solver, values] : solve_us) {
    result.set("service.solve." + solver + ".p50_us", values.median(), "us");
  }
}

void set_cache_counts(RunResult& result, const service::CacheStats& cache) {
  const auto count = [&](const char* name, std::uint64_t v) {
    result.set(name, static_cast<double>(v), "count");
  };
  count("service.cache.hits", cache.hits);
  count("service.cache.misses", cache.misses);
  count("service.cache.admitted", cache.admitted);
  count("service.cache.rejected", cache.rejected);
  count("service.cache.evictions", cache.evictions);
  result.set("service.cache.hit_ratio", cache.hit_rate(), "share");
}

void write_trace(const Tracer& tracer, const Options& options) {
  if (!options.trace_out.empty() && !tracer.write_json(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
  }
}

service::CacheOptions scheduler_cache_options() {
  const service::Scheduler::Options defaults;
  service::CacheOptions options;
  options.capacity = defaults.cache_capacity;
  options.admission = defaults.cache_admission;
  return options;
}

std::string cache_key(const std::string& solver,
                      const malsched::core::Instance& instance,
                      bool order_invariant) {
  service::CanonicalOptions options;
  options.permute = order_invariant;
  return solver + "\n" +
         service::canonical_text(service::canonicalize(instance, options));
}

}  // namespace perfbench
