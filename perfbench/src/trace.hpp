#pragma once

/// \file trace.hpp
/// In-memory span recorder of the traced run.  Spans are recorded from the
/// benchmark's own code around its calls into each malsched module (and
/// inside the solver wrappers of an instrumented registry), kept in memory,
/// and written out as JSON when the program exits.
///
/// A span's layer is its name up to the second dot for `core.*` spans
/// ("core.bnb.solve" -> "core.bnb"), `shard_net` for `shard.*` and `net.*`
/// spans, and its name up to the first dot otherwise
/// ("service.scheduler.submit" -> "service").  Self time is a span's
/// duration minus the part of it covered by its children.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "malsched/service/solver_registry.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request the span serves (0 = none)
  std::string name;
  std::string solver;  ///< solver of the request, when there is one
  std::size_t tasks = 0;
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  std::uint32_t thread = 0;
};

/// The layers the self-time shares are reported for, in output order.
/// `shard_net` is the router call as seen from the benchmark minus the
/// workers' in-process work (see workload_sharded.cpp): router loop, wire
/// codec, shm rings and worker transport.
inline const std::vector<std::string>& reported_layers() {
  static const std::vector<std::string> layers = {
      "service", "core.bnb", "core.enumeration", "core.water_filling", "sim",
      "shard_net"};
  return layers;
}

[[nodiscard]] std::string layer_of(const std::string& span_name);

class Tracer {
 public:
  Tracer();

  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }
  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a finished span; assigns an id when span.id is 0.
  std::uint64_t record(Span span);

  /// Links every worker-side solve span (a root named `service.solve`) to
  /// the request wait span (`service.scheduler.wait`) it served: same
  /// solver and task count, the wait covers the solve, earliest-finishing
  /// wait first.  The scheduler pops work on its own threads, so the link
  /// cannot be recorded at the call site.
  void link_solves();

  /// Self seconds per layer (see the file comment).
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// Spans named `name`, copied.
  [[nodiscard]] std::vector<Span> spans_named(const std::string& name) const;

  /// Writes every span as a JSON array; false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Times one call into a layer; records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }
  void set_solver(const std::string& solver, std::size_t tasks) {
    span_.solver = solver;
    span_.tasks = tasks;
  }

 private:
  Tracer* tracer_;
  Span span_;
};

/// The default registry with every solver wrapped in a `service.solve` span
/// and a child span naming the module that does the work (`core.bnb`,
/// `core.enumeration`, `core.order_lp`, `core.water_filling`,
/// `core.greedy`, `sim.<policy>`).
[[nodiscard]] malsched::service::SolverRegistry instrumented_registry(
    Tracer& tracer);

/// Adds the `trace.<layer>.self_share` metrics: each reported layer's share
/// of all the self seconds in `self` (by layer).
void set_self_shares(RunResult& result,
                     const std::map<std::string, double>& self);

}  // namespace perfbench
