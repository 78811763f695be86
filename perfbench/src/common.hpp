#pragma once

/// \file common.hpp
/// Shared plumbing of the front-door benchmark program: run options, the
/// result record every workload returns, and small measurement helpers.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "malsched/support/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one benchmark run (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump path of the traced run ("" = none)
};

/// Set-up repetitions per run; their median is reported as setup_s.
constexpr std::size_t kSetupRepeats = 15;

/// What one workload run reports; main.cpp prints it as the last line.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + refused + wrong output
  std::vector<std::string> mismatches;  ///< human-readable, to stderr
  /// name -> (value, unit), printed in name order.
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void mismatch(std::string what) {
    ++failed;
    if (mismatches.size() < 20) {
      mismatches.push_back(std::move(what));
    }
  }
};

/// Peak resident set of this process (children = false) or of its largest
/// reaped child (children = true), in MB.
[[nodiscard]] double peak_rss_mb(bool children);
/// User + system CPU seconds of this process or of its reaped children.
[[nodiscard]] double cpu_seconds(bool children);

struct LatencyQuantiles {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

/// Quantiles of a non-empty latency sample given in seconds.
[[nodiscard]] LatencyQuantiles latency_quantiles(
    const malsched::support::Sample& latencies_s);

/// Records the end-to-end metrics a workload measures (main.cpp adds
/// success_ratio).  `peak_rss_mb` is read right after the timed window, so
/// the output checks that follow it do not count.
void set_end_to_end(RunResult& result, double setup_s, double throughput_rps,
                    const LatencyQuantiles& latency, double peak_rss_mb);

}  // namespace perfbench
