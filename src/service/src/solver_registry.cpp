#include "malsched/service/solver_registry.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "malsched/core/bnb.hpp"
#include "malsched/core/greedy.hpp"
#include "malsched/core/optimal.hpp"
#include "malsched/core/order_lp.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/core/water_filling.hpp"
#include "malsched/sim/engine.hpp"
#include "malsched/sim/policy.hpp"

namespace malsched::service {

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::UnknownSolver: return "unknown-solver";
    case ErrorCode::SizeGuard: return "size-guard";
    case ErrorCode::ParseError: return "parse-error";
    case ErrorCode::SolverFailure: return "solver-failure";
    case ErrorCode::QueueClosed: return "queue-closed";
    case ErrorCode::Cancelled: return "cancelled";
    case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::ProtocolMismatch: return "protocol-mismatch";
  }
  return "solver-failure";
}

std::optional<ErrorCode> parse_error_code(std::string_view name) noexcept {
  for (const ErrorCode code : kAllErrorCodes) {
    if (name == error_code_name(code)) {
      return code;
    }
  }
  return std::nullopt;
}

std::string SolveError::to_string() const {
  return std::string(error_code_name(code)) + ": " + detail;
}

std::string escape_result_text(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      default: escaped += c; break;
    }
  }
  return escaped;
}

std::string unescape_result_text(const std::string& text) {
  std::string plain;
  plain.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      plain += text[i];
      continue;
    }
    ++i;
    switch (text[i]) {
      case 'n': plain += '\n'; break;
      case 'r': plain += '\r'; break;
      default: plain += text[i]; break;  // covers \" and backslash
    }
  }
  return plain;
}

namespace {

SolveResult ok_result(double objective, double makespan,
                      std::vector<double> completions) {
  return SolveResult::success(
      "", SolveOutput{objective, makespan, std::move(completions)});
}

SolveResult error_result(ErrorCode code, std::string message) {
  return SolveResult::failure("", code, std::move(message));
}

SolveResult solve_with_policy(const sim::AllocationPolicy& policy,
                              const core::Instance& instance,
                              const SolveContext& context) {
  sim::EngineOptions engine_options;
  engine_options.cancel = context.cancel;
  const auto run = sim::run_policy(instance, policy, engine_options);
  if (run.cancelled) {
    // A partial fluid trace is not an answer; surface the abort typed.  The
    // Scheduler reclassifies it to DeadlineExceeded when the deadline (not
    // an explicit cancel) fired the token.
    return error_result(ErrorCode::Cancelled,
                        "fluid engine aborted by its cancellation token "
                        "after " +
                            std::to_string(run.events) + " events");
  }
  return ok_result(run.weighted_completion, run.schedule.makespan(),
                   run.completions);
}

// WDEQ and WRR divide by task weights, and the library enforces that as a
// process-aborting contract (wdeq.cpp).  The service fronts untrusted client
// batches, so those solvers reject the input with an error result instead.
// Zero-volume tasks are never alive in the engine, so their weight is free.
std::optional<SolveResult> reject_nonpositive_weights(
    const core::Instance& instance, const std::string& solver) {
  for (std::size_t i = 0; i < instance.size(); ++i) {
    if (instance.task(i).volume > 0.0 && instance.task(i).weight <= 0.0) {
      return error_result(ErrorCode::SolverFailure,
                          "solver '" + solver +
                              "' requires positive weights (task " +
                              std::to_string(i) + " has weight " +
                              std::to_string(instance.task(i).weight) + ")");
    }
  }
  return std::nullopt;
}

// The fluid engine treats rates at or below its absolute tolerance (1e-9)
// as no progress, so a runnable task whose width is that small starves
// every rate-proportional policy and trips the engine's process-aborting
// safety valve.  Reject such input up front for all engine-backed solvers.
std::optional<SolveResult> reject_degenerate_widths(
    const core::Instance& instance, const std::string& solver) {
  constexpr double kMinWidth = 1e-9;  // support::Tolerance{}.abs
  for (std::size_t i = 0; i < instance.size(); ++i) {
    if (instance.task(i).volume > 0.0 && instance.task(i).width <= kMinWidth) {
      char message[128];
      std::snprintf(message, sizeof message,
                    "solver '%s' requires widths above %g (task %zu has "
                    "width %g)",
                    solver.c_str(), kMinWidth, i, instance.task(i).width);
      return error_result(ErrorCode::SolverFailure, message);
    }
  }
  return std::nullopt;
}

SolveResult solve_greedy_heuristic(const core::Instance& instance,
                                   const SolveContext& context) {
  const auto best = core::best_greedy_heuristic(instance, context.cancel);
  if (best.cancelled) {
    return error_result(ErrorCode::Cancelled,
                        "greedy order search aborted by its cancellation "
                        "token after trying " +
                            std::to_string(best.orders_tried) + " orders");
  }
  const auto schedule = core::greedy_schedule(instance, best.order);
  return ok_result(best.objective, schedule.makespan(),
                   schedule.completions());
}

SolveResult solve_water_fill_smith(const core::Instance& instance) {
  const auto order = core::smith_order(instance);
  const auto greedy = core::greedy_schedule(instance, order);
  const auto wf = core::normalize(instance, greedy);
  if (!wf.feasible) {
    return error_result(ErrorCode::SolverFailure,
                        "water-fill normalization infeasible at position " +
                            std::to_string(wf.failed_position));
  }
  return ok_result(wf.schedule.weighted_completion(instance),
                   wf.schedule.makespan(), wf.schedule.completions());
}

SolveResult solve_order_lp_smith(const core::Instance& instance) {
  const auto result = core::solve_order_lp(instance, core::smith_order(instance));
  if (!result.optimal()) {
    return error_result(ErrorCode::SolverFailure,
                        "order LP did not reach optimality");
  }
  return ok_result(result.objective, result.schedule.makespan(),
                   result.schedule.completions());
}

SolveResult solve_optimal(const core::Instance& instance,
                          const SolveContext& context) {
  // Branch-and-bound at every n: below n = 8 its tree is a handful of
  // warm-started pushes where the n! enumeration paid 5040 from-scratch
  // LPs.  Beyond the guard the typed SizeGuard error stands.
  core::BnbOptions options;
  options.max_tasks = core::OptimalOptions{}.max_tasks;
  options.want_schedule = true;
  options.cancel = context.cancel;
  if (instance.size() > options.max_tasks) {
    return error_result(ErrorCode::SizeGuard,
                        "optimal solver limited to n <= " +
                            std::to_string(options.max_tasks) + " (got n = " +
                            std::to_string(instance.size()) + ")");
  }
  const auto opt = core::branch_and_bound(instance, options);
  if (opt.cancelled) {
    // The Scheduler reclassifies this to DeadlineExceeded when the token
    // fired on the deadline rather than an explicit Ticket::cancel().
    return error_result(ErrorCode::Cancelled,
                        "optimal solve aborted by its cancellation token "
                        "after trying " +
                            std::to_string(opt.stats.leaves) +
                            " completion orders");
  }
  if (!std::isfinite(opt.objective)) {
    return error_result(ErrorCode::SolverFailure,
                        "order LP did not reach optimality on any "
                        "completion order");
  }
  if (opt.schedule.num_tasks() != instance.size()) {
    return error_result(ErrorCode::SolverFailure,
                        "full order LP of the optimal completion order did "
                        "not reach optimality");
  }
  return ok_result(opt.objective, opt.schedule.makespan(),
                   opt.schedule.completions());
}

// Cost hints for the priority admission queue: estimated solve seconds as a
// function of n.  Deliberately coarse — admission ordering only needs the
// magnitudes right (exponential exact search ≫ simplex-backed orders ≫
// fluid policies), and Scheduler::Options::aging_factor bounds the damage
// of any misestimate.
double fluid_policy_cost(std::size_t n) {
  const auto x = static_cast<double>(n);
  return 2e-7 * x * x + 2e-5;  // 4n+16 events, O(n) work per event
}

double simplex_order_cost(std::size_t n) {
  const auto x = static_cast<double>(n);
  return 1e-7 * x * x * x + 5e-5;  // one dense order LP, ~O(n^3) pivoting
}

double greedy_search_cost(std::size_t n) {
  const auto x = static_cast<double>(n);
  return 1e-8 * x * x * x * x + 5e-5;  // seeds + local search over schedules
}

double optimal_cost(std::size_t n) {
  // Branch-and-bound: pruning makes the truth instance-dependent, so charge
  // the n·2^n subset flavour that tracks the measured n = 8..18 envelope.
  const auto x = static_cast<double>(n);
  return 2e-4 * x * std::pow(2.0, x) + 1e-4;
}

}  // namespace

void SolverRegistry::register_solver(std::string name, SolverFn fn,
                                     bool order_invariant,
                                     std::string description, bool cacheable) {
  SolverInfo info;
  info.fn = [plain = std::move(fn)](const core::Instance& instance,
                                    const SolveContext&) {
    return plain(instance);  // plain solvers never see the context
  };
  info.order_invariant = order_invariant;
  info.description = std::move(description);
  info.cacheable = cacheable;
  register_solver(std::move(name), std::move(info));
}

void SolverRegistry::register_solver(std::string name, SolverInfo info) {
  solvers_[std::move(name)] = std::move(info);
}

bool SolverRegistry::contains(const std::string& name) const {
  return solvers_.count(name) != 0;
}

const SolverRegistry::SolverInfo* SolverRegistry::find(
    const std::string& name) const {
  const auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : &it->second;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const auto& [name, info] : solvers_) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted
}

SolveResult SolverRegistry::solve(const std::string& solver,
                                  const core::Instance& instance,
                                  const SolveContext& context) const {
  const SolverInfo* info = find(solver);
  SolveResult result;
  if (info == nullptr) {
    result = error_result(ErrorCode::UnknownSolver,
                          "unknown solver '" + solver + "'");
  } else if (instance.size() == 0) {
    result = ok_result(0.0, 0.0, {});
  } else {
    result = info->fn(instance, context);
  }
  result.solver = solver;
  return result;
}

double SolverRegistry::estimated_seconds(const std::string& solver,
                                         std::size_t n) const {
  const SolverInfo* info = find(solver);
  if (info != nullptr && info->cost_hint) {
    return info->cost_hint(n);
  }
  // Unhinted/unknown solvers get a mid-pack polynomial default so they are
  // neither starved behind real work nor allowed to starve it.
  const auto x = static_cast<double>(n);
  return 1e-7 * x * x + 1e-4;
}

SolverRegistry SolverRegistry::with_default_solvers() {
  SolverRegistry registry;
  for (auto& policy : sim::all_policies()) {
    // Permutation-equivariant solvers only: wdeq/deq/wrr allocate purely by
    // (w, δ, V).  fifo-rigid serves tasks in id order, and smith-greedy
    // breaks Smith-ratio ties by id, so renumbering (which the cache's
    // canonical sort does) can flip tied schedules for them.
    const bool order_invariant = policy->name() == "wdeq" ||
                                 policy->name() == "deq" ||
                                 policy->name() == "wrr";
    const bool weight_sharing =
        policy->name() == "wdeq" || policy->name() == "wrr";
    std::shared_ptr<const sim::AllocationPolicy> shared = std::move(policy);
    SolverInfo info;
    info.fn = [shared, weight_sharing](const core::Instance& instance,
                                       const SolveContext& context) {
      if (auto rejected = reject_degenerate_widths(instance, shared->name())) {
        return *std::move(rejected);
      }
      if (weight_sharing) {
        if (auto rejected =
                reject_nonpositive_weights(instance, shared->name())) {
          return *std::move(rejected);
        }
      }
      return solve_with_policy(*shared, instance, context);
    };
    info.order_invariant = order_invariant;
    info.description = "fluid-engine policy " + shared->name();
    info.cancellable = true;  // the engine polls the token once per event
    info.cost_hint = fluid_policy_cost;
    registry.register_solver(shared->name(), std::move(info));
  }
  // The order-based solvers all tie-break by task id (smith_order uses
  // stable_sort, branch-and-bound breaks sibling ties by id), so
  // their completions are not permutation-equivariant: scale-only caching.
  const auto register_plain = [&registry](const char* name, SolveResult (*fn)(const core::Instance&),
                                          const char* description,
                                          CostHintFn cost) {
    SolverInfo info;
    info.fn = [fn](const core::Instance& instance, const SolveContext&) {
      return fn(instance);
    };
    info.description = description;
    info.cost_hint = std::move(cost);
    registry.register_solver(name, std::move(info));
  };
  {
    SolverInfo info;
    info.fn = solve_greedy_heuristic;
    info.description = "best greedy order over priority seeds + local search";
    info.cancellable = true;  // the order search polls per candidate
    info.cost_hint = greedy_search_cost;
    registry.register_solver("greedy-heuristic", std::move(info));
  }
  register_plain("water-fill-smith", solve_water_fill_smith,
                 "Smith-order greedy normalized by Algorithm WF",
                 simplex_order_cost);
  register_plain("order-lp-smith", solve_order_lp_smith,
                 "Corollary-1 LP on the Smith completion order",
                 simplex_order_cost);
  {
    SolverInfo info;
    info.fn = solve_optimal;
    info.description =
        "exact optimum: branch-and-bound with mean-busy-time cuts over "
        "completion orders (guard n <= 18)";
    info.cancellable = true;
    info.cost_hint = optimal_cost;
    registry.register_solver("optimal", std::move(info));
  }
  return registry;
}

}  // namespace malsched::service
