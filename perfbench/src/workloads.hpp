#pragma once

/// \file workloads.hpp
/// The workloads of the front-door benchmark and the per-layer
/// helpers they share.  Each run_* function sets up (repeatedly, reporting
/// the median as setup_s), measures for Options::seconds, then checks the
/// outputs.  With Options::trace the same workload runs instrumented and
/// reports the per-layer metrics instead of the end-to-end ones.

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "malsched/core/generators.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/service/cache.hpp"

namespace perfbench {

class Tracer;

/// Closed loop, 2 clients, `optimal` on distinct instances (cache misses).
[[nodiscard]] RunResult run_exact(const Options& options);
/// Batch text through parse_batch and a 2-shard ShardRouter.
[[nodiscard]] RunResult run_sharded(const Options& options);

/// Draws one instance from a generator family with every width raised to
/// at least P/200.  Widths near 0 (delta/P <= 1e-4) make the order-LP
/// simplex abort the whole process on a phase-1 invariant, and the
/// uniform-width families draw them; the workloads measure speed on
/// well-conditioned traffic until the front door rejects such instances
/// with a typed error.
[[nodiscard]] malsched::core::Instance generate_conditioned(
    const malsched::core::GeneratorConfig& config,
    malsched::support::Rng& rng);

/// Every per-layer metric name and unit, in one place: the traced run of
/// every workload prints all of them (0 where the workload does not touch
/// the layer).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// service.canonical.*: intern() and the lazily built canonical key, timed
/// on `sample` (fresh handles, so nothing is precomputed).
void set_canonical_metrics(RunResult& result,
                           const std::vector<malsched::core::Instance>& sample);

/// service.cache.lookup_hit_us / insert_us: replays `keys` (with the value
/// sizes in `tasks`) against a standalone ResultCache built with `options`.
void set_cache_replay_metrics(RunResult& result,
                              const std::vector<std::string>& keys,
                              const std::vector<std::size_t>& tasks,
                              const malsched::service::CacheOptions& options);

/// service.scheduler.* and service.solve.* from a traced run's spans:
/// submit time, queue wait of every linked solve (misses only: hits never
/// reach a solver), solver busy share of `threads` over `wall` seconds, and
/// the per-solver median solve time.
void set_scheduler_metrics(RunResult& result, const Tracer& tracer,
                           unsigned threads, double wall);

/// service.cache.{hits,misses,hit_ratio,admitted,rejected,evictions}.
void set_cache_counts(RunResult& result,
                      const malsched::service::CacheStats& cache);

/// Writes the spans to Options::trace_out, when set.
void write_trace(const Tracer& tracer, const Options& options);

/// The cache options a Scheduler builds for its owned cache by default.
[[nodiscard]] malsched::service::CacheOptions scheduler_cache_options();

/// The request-stream key the scheduler's cache uses for (solver, instance).
[[nodiscard]] std::string cache_key(const std::string& solver,
                                    const malsched::core::Instance& instance,
                                    bool order_invariant);

}  // namespace perfbench
