#pragma once

/// \file order_lp.hpp
/// Corollary 1: once the completion *order* of the tasks is fixed, the
/// optimal schedule is a linear program.  With tasks renumbered so that
/// position a completes at the end of column a (boundary C_a):
///
///   minimize   Σ_a w_{σ(a)} · C_a
///   subject to C_a ≥ C_{a-1}                       (C_{-1} = 0)
///              Σ_a x_{a,j}        ≤ P  (C_j − C_{j-1})   per column j
///              x_{a,j}            ≤ δ_{σ(a)} (C_j − C_{j-1})
///              Σ_{j≤a} x_{a,j}    = V_{σ(a)}
///              x_{a,j} = 0 for j > a, all variables ≥ 0
///
/// where x_{a,j} is the *volume* position-a's task receives in column j.

#include <memory>
#include <span>
#include <vector>

#include "malsched/core/greedy.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"
#include "malsched/lp/solver.hpp"
#include "malsched/numeric/rational.hpp"

namespace malsched::core {

/// Builds the Corollary-1 LP for the given completion order.  `order` may
/// also be a *prefix* — a duplicate-free subset of task ids — in which case
/// the LP is that of the induced subinstance with the completion order
/// fixed over just those tasks (the branch-and-bound node relaxation).
/// Exposed so callers can feed it to either solver.
[[nodiscard]] lp::Model build_order_lp(const Instance& instance,
                                       std::span<const std::size_t> order);

struct OrderLpResult {
  lp::SolveStatus status = lp::SolveStatus::IterationLimit;
  double objective = 0.0;
  ColumnSchedule schedule;  ///< populated when status == Optimal

  [[nodiscard]] bool optimal() const noexcept {
    return status == lp::SolveStatus::Optimal;
  }
};

/// Solves the order LP (double precision) and reconstructs the schedule.
[[nodiscard]] OrderLpResult solve_order_lp(const Instance& instance,
                                           std::span<const std::size_t> order);

/// Objective only (skips schedule reconstruction) — the enumeration hot
/// path.  Accepts prefixes like build_order_lp; a prefix objective is an
/// exact lower bound on the weighted completion those tasks contribute to
/// any full order extending the prefix (restriction argument: dropping the
/// suffix allocations from a full solution leaves a feasible prefix
/// schedule).
[[nodiscard]] double order_lp_objective(const Instance& instance,
                                        std::span<const std::size_t> order);

namespace detail {
class IncrementalOrderLp;
}  // namespace detail

/// Resumable prefix evaluation for branch-and-bound over completion orders.
///
/// A depth-first search over order prefixes re-visits each prefix's
/// ancestors once per subtree; this evaluator keeps one stack of per-depth
/// state so extending a prefix by one task reuses everything the parent
/// already paid for:
///
/// * the parent's *optimal simplex basis* — a push appends the new
///   position's columns and rows to the parent tableau (the new volume
///   variables' reduced columns are exactly the stored slack columns of the
///   old capacity rows, so no basis-inverse solve is needed), starts from
///   the feasible basis that runs the new task alone at the end, and
///   re-optimizes in a handful of pivots instead of a from-scratch
///   two-phase solve;
/// * the greedy capacity-profile state (Algorithm 3's water-level profile)
///   — `greedy_completion` probes where a candidate task would finish
///   against the current prefix without any LP work, which the search uses
///   to order sibling branches best-first.
///
/// The warm-started value equals the prefix order LP optimum up to simplex
/// tolerance; an *exact* push additionally re-solves from scratch so the
/// value agrees bit-for-bit with `order_lp_objective` (what the
/// enumeration baseline computes).  Branch-and-bound pushes warm at every
/// depth and re-solves a leaf itself only when it can beat the incumbent.
///
/// The warm-started LP lives in one flat tableau with per-depth snapshots
/// in a reused arena: once the search has reached full depth, pushes and
/// pops allocate nothing.
class OrderLpEvaluator {
 public:
  explicit OrderLpEvaluator(const Instance& instance);
  ~OrderLpEvaluator();
  OrderLpEvaluator(OrderLpEvaluator&&) noexcept;
  OrderLpEvaluator& operator=(OrderLpEvaluator&&) noexcept;

  /// Appends `task` (not already in the prefix) and returns the order LP
  /// objective of the extended prefix.  exact = false (what
  /// branch-and-bound uses at every depth) returns the warm-started
  /// incremental value; exact re-solves from scratch instead and returns
  /// that bit-reproducible value.
  double push(std::size_t task, bool exact = true);
  /// Removes the most recently pushed task.
  void pop();

  [[nodiscard]] std::size_t depth() const noexcept { return prefix_.size(); }
  /// Prefix order LP objective (0 at depth 0).
  [[nodiscard]] double objective() const noexcept;
  [[nodiscard]] std::span<const std::size_t> prefix() const noexcept {
    return prefix_;
  }
  /// Σ V_i over the prefix — the suffix-bound offset.
  [[nodiscard]] double prefix_volume() const noexcept;
  /// Completion `task` would get placed greedily after the prefix (no LP).
  [[nodiscard]] double greedy_completion(std::size_t task) const;
  /// Number of LP solves performed so far (incremental or from scratch).
  [[nodiscard]] std::size_t lp_evaluations() const noexcept {
    return lp_evaluations_;
  }

 private:
  const Instance* instance_;
  std::vector<std::size_t> prefix_;
  std::vector<double> objectives_;        ///< objectives_[d]: depth d+1 value
  std::vector<double> volumes_;           ///< cumulative volume per depth
  /// profiles_[d]: after d tasks; slots past the depth are kept for reuse
  std::vector<CapacityProfile> profiles_;
  std::unique_ptr<detail::IncrementalOrderLp> lp_;
  std::size_t lp_evaluations_ = 0;
};

/// Exact-rational solve; returns the certified optimal objective for the
/// order (or nullopt-like status in `status`).
struct ExactOrderLpResult {
  lp::SolveStatus status = lp::SolveStatus::IterationLimit;
  numeric::Rational objective;
};
[[nodiscard]] ExactOrderLpResult solve_order_lp_exact(
    const Instance& instance, std::span<const std::size_t> order);

}  // namespace malsched::core
