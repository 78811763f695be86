// E-BNB — branch-and-bound exact solver vs n! enumeration.
//
// Three sections:
//   1. head-to-head at enumeration-feasible sizes (n = 6, 7): same optimum,
//      wall time and order-LP evaluation counts side by side;
//   2. branch-and-bound scaling n = 8..12 across generator families —
//      where enumeration would need n! LP solves (40320 .. 479M), the
//      search reports its actual node/LP counts and the n!/LP ratio;
//   3. the pinned n = 12 fixture (uniform, seed 42) that the CI smoke job
//      replays with `--quick`: its node and leaf re-solve counts are
//      deterministic, so the gate compares counts, never wall time — a
//      changed tree (a broken bound, a lost cut) or leaves re-solved that
//      cannot win turn the build red on any machine;
//   4. the pinned structured n = 12 batch fixture for the tail cuts: two
//      interleaved identical-shape batches under geometric weight spreads,
//      solved cuts-on and cuts-off.  The CI gate requires >= 5x fewer
//      nodes with cuts on (measured ~97x) and bit-equal objectives — the
//      acceptance bar of the exchange-cut PR, replayed on every build.
//
// Results land in BENCH_bnb.json (see bench_common.hpp) so the perf
// trajectory of the exact-serving path is machine-readable.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "malsched/core/bnb.hpp"
#include "malsched/core/generators.hpp"
#include "malsched/core/optimal.hpp"
#include "malsched/support/stats.hpp"
#include "malsched/support/table.hpp"

using namespace malsched;

namespace {

constexpr std::uint64_t kPinnedSeed = 42;  // the CI fixture below

core::Instance pinned_instance(std::size_t n, core::Family family,
                               std::uint64_t seed) {
  support::Rng rng(seed);
  core::GeneratorConfig config;
  config.family = family;
  config.num_tasks = n;
  config.processors = 4.0;
  return core::generate(config, rng);
}

double factorial(std::size_t n) {
  double f = 1.0;
  for (std::size_t k = 2; k <= n; ++k) {
    f *= static_cast<double>(k);
  }
  return f;
}

template <typename Fn>
double wall_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void run_head_to_head(const bench::BenchConfig& config, bench::BenchJson& json) {
  std::printf("1. head-to-head vs enumeration (optimum must match):\n");
  support::TextTable table({{"family", support::Align::Left},
                            {"n", support::Align::Right},
                            {"instances", support::Align::Right},
                            {"enum ms", support::Align::Right},
                            {"b&b ms", support::Align::Right},
                            {"enum LPs", support::Align::Right},
                            {"b&b LPs", support::Align::Right},
                            {"max |gap|", support::Align::Right}});
  const core::Family families[] = {core::Family::Uniform,
                                   core::Family::EqualWeights,
                                   core::Family::WideTasks,
                                   core::Family::UnitWidth};
  for (const core::Family family : families) {
    for (const std::size_t n : {std::size_t{6}, std::size_t{7}}) {
      const std::size_t instances = bench::scaled(n == 6 ? 5 : 2, config.scale);
      support::Rng rng(config.seed + n);
      support::Sample enum_ms;
      support::Sample bnb_ms;
      double enum_lps = 0.0;
      double bnb_lps = 0.0;
      double max_gap = 0.0;
      for (std::size_t rep = 0; rep < instances; ++rep) {
        core::GeneratorConfig generator;
        generator.family = family;
        generator.num_tasks = n;
        generator.processors = 4.0;
        const auto inst = core::generate(generator, rng);
        core::OptimalResult enumerated;
        enum_ms.add(1e3 * wall_seconds([&] {
                      core::OptimalOptions options;
                      options.enumeration_crossover = n;  // force the n! path
                      enumerated = core::optimal_by_enumeration(inst, options);
                    }));
        core::BnbResult bnb;
        bnb_ms.add(1e3 * wall_seconds([&] { bnb = core::branch_and_bound(inst); }));
        enum_lps += static_cast<double>(enumerated.orders_tried);
        bnb_lps += static_cast<double>(bnb.stats.lp_evaluations);
        max_gap = std::max(max_gap,
                           std::abs(bnb.objective - enumerated.objective) /
                               std::max(1.0, enumerated.objective));
      }
      table.add_row({core::family_name(family), support::fmt_int(static_cast<long long>(n)),
                     support::fmt_int(static_cast<long long>(instances)),
                     support::fmt_double(enum_ms.mean()),
                     support::fmt_double(bnb_ms.mean()),
                     support::fmt_double(enum_lps / static_cast<double>(instances)),
                     support::fmt_double(bnb_lps / static_cast<double>(instances)),
                     support::fmt_ratio(max_gap, 9)});
      const std::string scenario = std::string("head_to_head_") +
                                   core::family_name(family) + "_n" +
                                   std::to_string(n);
      json.add(scenario, "enum_wall_ns_p50", enum_ms.quantile(0.5) * 1e6);
      json.add(scenario, "bnb_wall_ns_p50", bnb_ms.quantile(0.5) * 1e6);
      json.add(scenario, "bnb_wall_ns_p95", bnb_ms.quantile(0.95) * 1e6);
      json.add(scenario, "enum_lp_evaluations",
               enum_lps / static_cast<double>(instances));
      json.add(scenario, "bnb_lp_evaluations",
               bnb_lps / static_cast<double>(instances));
      json.add(scenario, "max_relative_gap", max_gap);
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void run_scaling(const bench::BenchConfig& config, bench::BenchJson& json) {
  std::printf("2. branch-and-bound scaling (enumeration would need n! LPs):\n");
  support::TextTable table({{"family", support::Align::Left},
                            {"n", support::Align::Right},
                            {"wall ms", support::Align::Right},
                            {"nodes", support::Align::Right},
                            {"leaves", support::Align::Right},
                            {"LP evals", support::Align::Right},
                            {"n!/LPs", support::Align::Right}});
  const core::Family families[] = {core::Family::Uniform,
                                   core::Family::EqualWeights,
                                   core::Family::HeavyTailVolumes};
  for (const core::Family family : families) {
    for (std::size_t n = 8; n <= 12; ++n) {
      if (family != core::Family::Uniform && n != 10 && config.scale < 2.0) {
        // Uniform carries the full n = 8..12 sweep by default; the
        // structured families contribute only their n = 10 row (their
        // larger sizes are minutes of search — the bound is weakest there)
        // unless --full / MALSCHED_BENCH_SCALE >= 2 asks for everything.
        continue;
      }
      const auto inst = pinned_instance(n, family, kPinnedSeed);
      core::BnbResult result;
      const double seconds = wall_seconds(
          [&] { result = core::branch_and_bound(inst); });
      const double ratio =
          factorial(n) / static_cast<double>(result.stats.lp_evaluations);
      table.add_row({core::family_name(family),
                     support::fmt_int(static_cast<long long>(n)),
                     support::fmt_double(seconds * 1e3),
                     support::fmt_int(static_cast<long long>(result.stats.nodes)),
                     support::fmt_int(static_cast<long long>(result.stats.leaves)),
                     support::fmt_int(
                         static_cast<long long>(result.stats.lp_evaluations)),
                     support::fmt_double(ratio)});
      const std::string scenario = std::string("scaling_") +
                                   core::family_name(family) + "_n" +
                                   std::to_string(n);
      json.add(scenario, "wall_ns", seconds * 1e9);
      json.add(scenario, "nodes", static_cast<double>(result.stats.nodes));
      json.add(scenario, "leaves", static_cast<double>(result.stats.leaves));
      json.add(scenario, "lp_evaluations",
               static_cast<double>(result.stats.lp_evaluations));
      json.add(scenario, "factorial_over_lp", ratio);
      json.add(scenario, "objective", result.objective);
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(12! = 4.79e8: the n = 12 rows above beat enumeration by the "
              "n!/LPs factor shown — the acceptance bar is >= 100x.)\n\n");
}

/// Counts of the pinned uniform n = 12 search.  Deterministic: the tree
/// depends only on the instance and the algorithm, so any change to these
/// is a change to the search and must be re-measured and re-pinned here.
constexpr std::size_t kPinnedNodes = 15929;
/// Leaves re-solved from scratch because their warm value came within the
/// re-solve margin of the incumbent (2 of the tree's 21 leaves).  Re-solving
/// every leaf would read 21.
constexpr std::size_t kPinnedLeafResolves = 2;

/// The CI smoke: solve the pinned uniform n = 12 instance once and fail
/// (exit 1) when its node count moves, when more leaves are re-solved than
/// pinned, or when the LP-count reduction against 12! drops below 100x.
/// Counts only: the wall time is recorded, not gated.
int measure_pinned(bench::BenchJson& json) {
  const auto inst = pinned_instance(12, core::Family::Uniform, kPinnedSeed);
  core::BnbResult result;
  const double seconds =
      wall_seconds([&] { result = core::branch_and_bound(inst); });
  const double ratio =
      factorial(12) / static_cast<double>(result.stats.lp_evaluations);

  json.add("pinned_uniform_n12", "wall_ns", seconds * 1e9);
  json.add("pinned_uniform_n12", "nodes", static_cast<double>(result.stats.nodes));
  json.add("pinned_uniform_n12", "leaves",
           static_cast<double>(result.stats.leaves));
  json.add("pinned_uniform_n12", "leaf_resolves",
           static_cast<double>(result.stats.leaf_resolves));
  json.add("pinned_uniform_n12", "lp_evaluations",
           static_cast<double>(result.stats.lp_evaluations));
  json.add("pinned_uniform_n12", "factorial_over_lp", ratio);
  json.add("pinned_uniform_n12", "objective", result.objective);

  std::printf("pinned uniform n=12 (seed %llu): objective %.6f in %.2fs — "
              "%zu nodes, %zu leaves, %zu leaf re-solves, %zu LP evals "
              "(n!/LPs = %.0fx, bar >= 100x)\n",
              static_cast<unsigned long long>(kPinnedSeed), result.objective,
              seconds, result.stats.nodes, result.stats.leaves,
              result.stats.leaf_resolves, result.stats.lp_evaluations, ratio);
  const bool nodes_ok = result.stats.nodes == kPinnedNodes;
  const bool resolves_ok = result.stats.leaf_resolves <= kPinnedLeafResolves;
  const bool ratio_ok = ratio >= 100.0;
  std::printf("nodes == %zu: %s;  leaf re-solves <= %zu: %s;  LP-reduction "
              "bar: %s\n\n",
              kPinnedNodes, nodes_ok ? "PASS" : "FAIL", kPinnedLeafResolves,
              resolves_ok ? "PASS" : "FAIL", ratio_ok ? "PASS" : "FAIL");
  return nodes_ok && resolves_ok && ratio_ok ? 0 : 1;
}

/// The structured tail-cut fixture: the same two-batch instance the core
/// test suite pins (tests/core/test_bnb.cpp, structured_batch_fixture) —
/// tall-narrow v=2/δ=1 and short-wide v=1/δ=4 batches of six on P=4,
/// geometric intra-batch weights.  Repeated shapes under heterogeneous
/// weights are the workload the identical-shape exchange cut exists for.
core::Instance structured_batch_instance() {
  std::vector<core::Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back({2.0, 1.0, std::pow(2.0, i)});
    tasks.push_back({1.0, 4.0, 0.9 * std::pow(2.0, 5 - i)});
  }
  return core::Instance(4.0, std::move(tasks));
}

/// CI gate for the tail cuts: cuts-on must keep a >= 5x node advantage on
/// the structured fixture and return the bit-identical objective.
int measure_structured_cuts(bench::BenchJson& json) {
  const auto inst = structured_batch_instance();
  core::BnbOptions off;
  off.use_cuts = false;
  core::BnbResult with;
  core::BnbResult without;
  const double on_seconds =
      wall_seconds([&] { with = core::branch_and_bound(inst); });
  const double off_seconds =
      wall_seconds([&] { without = core::branch_and_bound(inst, off); });

  const double node_ratio = static_cast<double>(without.stats.nodes) /
                            static_cast<double>(std::max<std::size_t>(
                                1, with.stats.nodes));
  json.add("structured_cuts_n12", "cuts_on_wall_ns", on_seconds * 1e9);
  json.add("structured_cuts_n12", "cuts_off_wall_ns", off_seconds * 1e9);
  json.add("structured_cuts_n12", "cuts_on_nodes",
           static_cast<double>(with.stats.nodes));
  json.add("structured_cuts_n12", "cuts_off_nodes",
           static_cast<double>(without.stats.nodes));
  json.add("structured_cuts_n12", "node_ratio", node_ratio);
  json.add("structured_cuts_n12", "cut_prunes",
           static_cast<double>(with.stats.pruned_by_cut));
  json.add("structured_cuts_n12", "objective", with.objective);

  std::printf("structured batch n=12: cuts-on %zu nodes (%.2fs) vs cuts-off "
              "%zu nodes (%.2fs) — %.0fx\n",
              with.stats.nodes, on_seconds, without.stats.nodes, off_seconds,
              node_ratio);
  const bool ratio_ok = node_ratio >= 5.0;
  const bool parity_ok = with.objective == without.objective;
  std::printf("tail-cut gate (>= 5x fewer nodes, bit-equal objective): %s\n\n",
              ratio_ok && parity_ok ? "PASS" : "FAIL");
  return ratio_ok && parity_ok ? 0 : 1;
}

void bm_branch_and_bound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inst = pinned_instance(n, core::Family::Uniform, kPinnedSeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::branch_and_bound(inst).objective);
  }
}
BENCHMARK(bm_branch_and_bound)->Arg(8)->Arg(9)->Arg(10)->Unit(benchmark::kMillisecond);

void bm_order_lp_evaluator_push_pop(benchmark::State& state) {
  const auto inst = pinned_instance(10, core::Family::Uniform, kPinnedSeed);
  core::OrderLpEvaluator evaluator(inst);
  for (std::size_t t = 0; t + 1 < inst.size(); ++t) {
    evaluator.push(t, /*exact=*/false);
  }
  const std::size_t last = inst.size() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.push(last, /*exact=*/false));
    evaluator.pop();
  }
}
BENCHMARK(bm_order_lp_evaluator_push_pop)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_config(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      bench::print_banner("E-BNB (quick)",
                          "pinned n=12 count gate + tail-cut gate", config);
      bench::BenchJson json("bnb", config);
      const int status = measure_pinned(json);
      const int cut_status = measure_structured_cuts(json);
      json.write();
      return status != 0 ? status : cut_status;
    }
  }

  bench::print_banner("E-BNB", "branch-and-bound exact solver vs enumeration",
                      config);
  bench::BenchJson json("bnb", config);
  run_head_to_head(config, json);
  run_scaling(config, json);
  int quick_status = measure_pinned(json);  // the pinned CI row
  const int cut_status = measure_structured_cuts(json);
  if (quick_status == 0) {
    quick_status = cut_status;
  }
  json.write();
  if (config.timing) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return quick_status;
}
