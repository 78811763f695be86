#pragma once

/// \file optimal.hpp
/// Exact optimum of MWCT-CB-F: Corollary 1 reduces the problem to choosing
/// the best completion order.  For tiny n we solve the order LP for every
/// permutation (deterministic, bit-reproducible run to run — the ground
/// truth against which WDEQ's ratio, greedy's conjectured optimality
/// (Conjecture 12) and Theorem 11 are checked, and the oracle the
/// branch-and-bound tests compare against); above the crossover the call
/// delegates to the branch-and-bound of bnb.hpp, which searches the same
/// space with pruning.  The service's `optimal` solver calls
/// branch_and_bound directly at every n.

#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/order_lp.hpp"

namespace malsched::core {

struct OptimalOptions {
  /// Hard guard — branch-and-bound is worst-case exponential; 18 stays
  /// interactive single-thread now that the mean-busy-time cuts trim the
  /// structured-family tails (the n ≤ 9 limit of the pure-enumeration era
  /// and the n ≤ 15 limit of the DP-bound era are both gone).
  std::size_t max_tasks = 18;
  /// Also build the optimal schedule (slightly slower).
  bool want_schedule = false;
  /// n <= crossover runs the plain n! enumeration; larger instances run
  /// branch_and_bound.  Both are exact — the crossover only trades the
  /// enumeration's run-to-run bit-reproducibility for pruning.
  std::size_t enumeration_crossover = 7;
  /// Cooperative cancellation.  The enumeration polls every 64 permutations
  /// (amortizing the clock read when a deadline is attached); the
  /// branch-and-bound polls at every node.  A cancelled result carries
  /// `cancelled = true` and the best order seen so far.
  CancelToken cancel;
};

struct OptimalResult {
  /// +inf, with an empty order, when no order LP reached optimality.
  double objective = 0.0;
  std::vector<std::size_t> order;    ///< the optimal completion order
  ColumnSchedule schedule;           ///< populated if want_schedule and
                                     ///< the order's full LP solved
  /// Complete orders whose LP was evaluated: n! below the crossover, the
  /// branch-and-bound leaf count above it.
  std::size_t orders_tried = 0;
  /// True when OptimalOptions::cancel fired mid-search; objective/order are
  /// then the best seen so far, not the proven optimum.
  bool cancelled = false;
};

/// Exact optimum over all completion orders (enumeration below the
/// crossover, branch-and-bound above).
[[nodiscard]] OptimalResult optimal_by_enumeration(
    const Instance& instance, const OptimalOptions& options = {});

}  // namespace malsched::core
