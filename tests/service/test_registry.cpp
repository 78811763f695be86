#include "malsched/service/solver_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "malsched/core/generators.hpp"
#include "malsched/core/io.hpp"
#include "malsched/core/optimal.hpp"
#include "malsched/sim/engine.hpp"
#include "malsched/sim/policy.hpp"

namespace mc = malsched::core;
namespace msvc = malsched::service;
namespace msim = malsched::sim;

namespace {

mc::Instance small_instance() {
  return mc::Instance(4.0, {{2.0, 2.0, 1.0}, {1.5, 1.0, 0.5}, {3.0, 4.0, 2.0}});
}

}  // namespace

TEST(Registry, DefaultZooCoversPoliciesAndExactPaths) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto names = registry.names();
  for (const char* expected :
       {"wdeq", "deq", "wrr", "fifo-rigid", "smith-greedy", "greedy-heuristic",
        "water-fill-smith", "order-lp-smith", "optimal"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing solver " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, WdeqDispatchMatchesDirectEngineRun) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto inst = small_instance();
  const auto result = registry.solve("wdeq", inst);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.solver, "wdeq");

  const auto direct = msim::run_policy(inst, *msim::make_wdeq_policy());
  EXPECT_DOUBLE_EQ(result.objective(), direct.weighted_completion);
  ASSERT_EQ(result.completions().size(), inst.size());
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.completions()[i], direct.completions[i]);
  }
}

TEST(Registry, OptimalDispatchMatchesEnumeration) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto inst = small_instance();
  const auto result = registry.solve("optimal", inst);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const auto direct = mc::optimal_by_enumeration(inst);
  EXPECT_NEAR(result.objective(), direct.objective, 1e-9);
}

TEST(Registry, OptimalMatchesEnumerationAtEverySmallSize) {
  // `optimal` runs branch-and-bound at every n; the n! enumeration stays
  // the oracle.  Both return the from-scratch order-LP value of their
  // order, so they agree to LP precision.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  malsched::support::Rng rng(20121);
  for (const mc::Family family : mc::all_families()) {
    for (std::size_t n = 2; n <= 7; ++n) {
      mc::GeneratorConfig config;
      config.family = family;
      config.num_tasks = n;
      config.processors = 4.0;
      const auto inst = mc::generate(config, rng);
      const auto served = registry.solve("optimal", inst);
      ASSERT_TRUE(served.ok()) << served.error().to_string();
      const auto enumerated = mc::optimal_by_enumeration(inst);
      EXPECT_NEAR(served.objective(), enumerated.objective,
                  1e-9 * std::max(1.0, std::fabs(enumerated.objective)))
          << mc::family_name(family) << " n " << n;
      EXPECT_EQ(served.completions().size(), n);
    }
  }
}

TEST(Registry, TinyWidthInstanceIsServedOrFailsTyped) {
  // A width of 1e-5·P makes some order LPs break down in the simplex's
  // phase 1.  That used to abort the process; now the order counts as
  // unsolved and the exact solvers answer from the orders that did solve,
  // or report a typed SolverFailure.
  const std::string path = std::string(MALSCHED_DATA_DIR) + "/tiny_width.mls";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string error;
  const auto inst = mc::read_instance(in, &error);
  ASSERT_TRUE(inst.has_value()) << error;

  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto served = registry.solve("optimal", *inst);
  if (served.ok()) {
    EXPECT_TRUE(std::isfinite(served.objective()));
    EXPECT_EQ(served.completions().size(), inst->size());
  } else {
    EXPECT_EQ(served.error().code, msvc::ErrorCode::SolverFailure)
        << served.error().to_string();
  }

  mc::OptimalOptions options;
  options.want_schedule = true;
  const auto enumerated = mc::optimal_by_enumeration(*inst, options);
  EXPECT_EQ(enumerated.orders_tried, 720u);
  if (served.ok() && std::isfinite(enumerated.objective)) {
    EXPECT_NEAR(served.objective(), enumerated.objective,
                1e-6 * std::max(1.0, enumerated.objective));
  }
}

TEST(Registry, OptimalGuardsLargeInstances) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  std::vector<mc::Task> tasks(19, {1.0, 1.0, 1.0});
  const auto result = registry.solve("optimal", mc::Instance(4.0, tasks));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, msvc::ErrorCode::SizeGuard);
  EXPECT_NE(result.error().detail.find("n <= "), std::string::npos);
}

TEST(Registry, OptimalServesMidSizeInstancesViaBranchAndBound) {
  // n = 12 was refused under the enumeration-only guard; branch-and-bound
  // now serves it.  12 unit tasks on P = 4 have a closed-form optimum: any
  // order is optimal, boundaries at 1, 2, 3 with four completions each,
  // so sum wC = 4*(1+2+3) = 24.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  std::vector<mc::Task> tasks(12, {1.0, 1.0, 1.0});
  const auto result = registry.solve("optimal", mc::Instance(4.0, tasks));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_NEAR(result.objective(), 24.0, 1e-6);
  EXPECT_EQ(result.completions().size(), 12u);
}

TEST(Registry, UnknownSolverIsAnErrorNotACrash) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto result = registry.solve("no-such-solver", small_instance());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, msvc::ErrorCode::UnknownSolver);
  EXPECT_NE(result.error().detail.find("no-such-solver"), std::string::npos);
  EXPECT_EQ(result.solver, "no-such-solver");
}

TEST(Registry, EmptyInstanceShortCircuitsForEverySolver) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const mc::Instance empty(2.0, {});
  for (const auto& name : registry.names()) {
    const auto result = registry.solve(name, empty);
    ASSERT_TRUE(result.ok()) << name << ": " << result.error().to_string();
    EXPECT_EQ(result.objective(), 0.0) << name;
    EXPECT_TRUE(result.completions().empty()) << name;
  }
}

TEST(Registry, AllSolversAgreeOnObjectiveOrdering) {
  // Every ok solver result must be a valid upper bound on the optimum; the
  // LP/optimal pair anchors the scale.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto inst = small_instance();
  const auto optimal = registry.solve("optimal", inst);
  ASSERT_TRUE(optimal.ok());
  for (const auto& name : registry.names()) {
    const auto result = registry.solve(name, inst);
    ASSERT_TRUE(result.ok()) << name << ": " << result.error().to_string();
    EXPECT_GE(result.objective(), optimal.objective() - 1e-6) << name;
  }
}

TEST(Registry, WeightSharingSolversRejectNonpositiveWeights) {
  // core::wdeq_shares aborts the process on zero weights; the service must
  // turn that class of input into an error result instead.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const mc::Instance zero_weight(2.0, {{1.0, 1.0, 0.0}, {1.0, 2.0, 1.0}});
  for (const char* solver : {"wdeq", "wrr"}) {
    const auto result = registry.solve(solver, zero_weight);
    ASSERT_FALSE(result.ok()) << solver;
    EXPECT_EQ(result.error().code, msvc::ErrorCode::SolverFailure) << solver;
    EXPECT_NE(result.error().detail.find("positive weights"),
              std::string::npos)
        << solver;
    EXPECT_NE(result.error().detail.find("task 0"), std::string::npos)
        << solver;
  }
  // Solvers that only use weights in the objective still serve it.
  for (const char* solver : {"deq", "smith-greedy", "greedy-heuristic",
                             "optimal"}) {
    const auto result = registry.solve(solver, zero_weight);
    EXPECT_TRUE(result.ok()) << solver << ": " << result.error().to_string();
  }
  // A zero-volume task may carry zero weight: it is never alive.
  const mc::Instance zero_volume(2.0, {{0.0, 1.0, 0.0}, {1.0, 2.0, 1.0}});
  EXPECT_TRUE(registry.solve("wdeq", zero_volume).ok());
}

TEST(Registry, EngineSolversRejectDegenerateWidths) {
  // A runnable task with width <= the engine tolerance starves every
  // rate-proportional policy and would trip the engine's process-aborting
  // safety valve; the service must reject it as a per-request error.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const mc::Instance tiny_width(2.0, {{1.0, 1e-10, 1.0}, {1.0, 1.0, 1.0}});
  for (const char* solver : {"wdeq", "deq", "wrr", "fifo-rigid",
                             "smith-greedy"}) {
    const auto result = registry.solve(solver, tiny_width);
    ASSERT_FALSE(result.ok()) << solver;
    EXPECT_EQ(result.error().code, msvc::ErrorCode::SolverFailure) << solver;
    EXPECT_NE(result.error().detail.find("width"), std::string::npos)
        << solver;
    EXPECT_NE(result.error().detail.find("task 0"), std::string::npos)
        << solver;
  }
  // Zero-volume tasks never run, so a tiny width there is harmless.
  const mc::Instance tiny_but_idle(2.0, {{0.0, 1e-10, 1.0}, {1.0, 1.0, 1.0}});
  EXPECT_TRUE(registry.solve("wdeq", tiny_but_idle).ok());
}

TEST(Registry, EngineAndGreedySolversAreCancellable) {
  // PR 4 left `optimal` the only cancellation-aware solver; the token now
  // threads through the fluid engine (one poll per event) and the greedy
  // order search (one poll per candidate), so every default solver that can
  // run for more than a moment aborts with a typed Cancelled.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  mc::CancelSource source;
  source.request_cancel();
  msvc::SolveContext context;
  context.cancel = source.token();

  for (const char* solver : {"wdeq", "deq", "wrr", "fifo-rigid",
                             "smith-greedy", "greedy-heuristic", "optimal"}) {
    ASSERT_TRUE(registry.find(solver)->cancellable) << solver;
    const auto result = registry.solve(solver, small_instance(), context);
    ASSERT_FALSE(result.ok()) << solver;
    EXPECT_EQ(result.error().code, msvc::ErrorCode::Cancelled) << solver;
  }
  // Unfired tokens must not perturb results.
  msvc::SolveContext live;
  live.cancel = mc::CancelSource().token();
  const auto with_token = registry.solve("wdeq", small_instance(), live);
  const auto without = registry.solve("wdeq", small_instance());
  ASSERT_TRUE(with_token.ok());
  EXPECT_EQ(with_token.objective(), without.objective());
}

TEST(Registry, CustomSolverRegistrationAndReplacement) {
  msvc::SolverRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  registry.register_solver("stub", [](const mc::Instance&) {
    return msvc::SolveResult::success("", msvc::SolveOutput{42.0, 1.0, {}});
  });
  EXPECT_TRUE(registry.contains("stub"));
  EXPECT_EQ(registry.solve("stub", small_instance()).objective(), 42.0);

  registry.register_solver("stub", [](const mc::Instance&) {
    return msvc::SolveResult::success("", msvc::SolveOutput{7.0, 1.0, {}});
  });
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.solve("stub", small_instance()).objective(), 7.0);
}
