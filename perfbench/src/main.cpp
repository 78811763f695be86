// Front-door benchmark program: runs one workload for a fixed window and
// prints the result as one JSON line (the last line of stdout).
//
//   perfbench --workload <exact|sharded> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-out <path>]
//
// perfbench/run.py builds and runs this program.  Exit code 0 when every output check passed, 1 when
// one did not (the JSON line is still printed), 2 on bad arguments.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

double peak_rss_mb(bool children) {
  rusage usage{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_seconds(bool children) {
  rusage usage{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

LatencyQuantiles latency_quantiles(
    const malsched::support::Sample& latencies_s) {
  return {latencies_s.quantile(0.50) * 1e3, latencies_s.quantile(0.90) * 1e3,
          latencies_s.quantile(0.99) * 1e3};
}

void set_end_to_end(RunResult& result, double setup_s, double throughput_rps,
                    const LatencyQuantiles& latency, double peak_rss_mb) {
  result.set("setup_s", setup_s, "s");
  result.set("throughput_rps", throughput_rps, "req/s");
  result.set("latency_p50_ms", latency.p50_ms, "ms");
  result.set("latency_p90_ms", latency.p90_ms, "ms");
  result.set("latency_p99_ms", latency.p99_ms, "ms");
  result.set("peak_rss_mb", peak_rss_mb, "MB");
}

namespace {

/// End-to-end metrics set by the workloads (success_ratio is added by
/// main).
const char* const kEndToEnd[] = {"setup_s",        "throughput_rps",
                                 "latency_p50_ms", "latency_p90_ms",
                                 "latency_p99_ms", "peak_rss_mb"};

bool parse_args(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options->seconds = std::stod(value);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !options->workload.empty() &&
         options->seconds > 0.0;
}

void print_result(const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, entry] : result.metrics) {
    const double value = std::isfinite(entry.first) ? entry.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            entry.second + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  try {
    if (!parse_args(argc, argv, &options)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
    return 2;
  }

  RunResult result;
  if (options.workload == "exact") {
    result = run_exact(options);
  } else if (options.workload == "sharded") {
    result = run_sharded(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (result.attempted == 0) {
    result.mismatch("no request was attempted");
  }
  // Keep exactly the metrics this mode reports; layers a workload does not
  // touch read 0 in the traced run.
  std::map<std::string, std::pair<double, std::string>> reported;
  if (options.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = result.metrics.find(name);
      reported[name] = it != result.metrics.end()
                           ? it->second
                           : std::make_pair(0.0, unit);
    }
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = result.metrics.find(name);
      if (it != result.metrics.end()) {
        reported[name] = it->second;
      }
    }
  }
  result.metrics = std::move(reported);
  if (!options.trace) {
    result.set("success_ratio",
               result.attempted == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted),
               "share");
  }
  for (const std::string& what : result.mismatches) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  print_result(result);
  return result.failed == 0 ? 0 : 1;
}
