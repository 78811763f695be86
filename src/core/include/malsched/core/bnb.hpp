#pragma once

/// \file bnb.hpp
/// Exact optimum of MWCT-CB-F by branch-and-bound over completion orders.
///
/// Corollary 1 reduces the problem to choosing the best completion order;
/// `optimal_by_enumeration` walks all n! orders and is hard-capped at tiny
/// n.  This module searches the same space as a depth-first tree over order
/// *prefixes* and prunes it three ways:
///
/// * Incremental evaluation — an OrderLpEvaluator solves one prefix-sized
///   order LP per node (the prefix objective is an exact lower bound on what
///   those tasks contribute to any completion of the prefix), instead of one
///   full-n LP per leaf.  Leaves take the warm-started value too; a leaf is
///   re-solved from scratch only when that value comes within 1e-6
///   (relative) of the incumbent, so the incumbent is always the exact,
///   bit-reproducible `order_lp_objective` of its order.
/// * Admissible bounds — a node's value is bounded below by
///     prefix LP  +  max(offset squashed area, per-task height)
///   over the remaining tasks, where the offset area is
///   W_suffix · V_prefix / P + A(suffix) (every suffix task's boundary must
///   cover the whole prefix volume plus the Smith-ordered suffix work, the
///   Definition-5 relaxation of bounds.hpp) and the per-task bound is
///   Σ w_i · max(V_i/δ_i, (V_prefix + V_i)/P) (Definition 6 plus the same
///   volume argument).  Subtrees whose bound cannot beat the incumbent are
///   cut.
/// * Tail cuts (use_cuts) — two redundant-by-construction prunes on top of
///   the subset-DP bound:
///   (a) the Queyranne-style mean-busy-time inequality
///     Σ_{t∈F} V_t C_t ≥ max( V_pre·V_F/P + (V_F² + Σ V_t²)/(2P),
///                            V_F²/(2P) + ½ Σ V_t h_t )
///   over each candidate child's suffix set F (V_pre = volume completed
///   before F; h_t = V_t/δ_t): the first member aggregates the
///   cumulative-volume floors of any completion order of F, the second is
///   the mean-busy-time argument of bounds.hpp (total delivery rate ≤ P
///   front-loads, per-task rate ≤ δ_t back-loads); the node bound is the
///   closed-form optimum of the one-cut LP min Σ w_t C_t s.t.
///   C_t ≥ floor_t and the cut, with the LP slack landing on the smallest
///   w_t/V_t.  A cheap secondary filter — the subset DP's per-order floor
///   solution is feasible for this LP, so it can only win weight-pairing
///   corner cases.
///   (b) the identical-shape exchange cut, the workhorse: tasks with
///   exactly equal (V, δ_eff) can swap delivery profiles verbatim, so some
///   optimal order completes each shape class in weight-descending order
///   and every other interleaving of the class is never generated.  This
///   collapses structured batch workloads (repeated shapes, heterogeneous
///   weights) whose near-tied orders the completion-floor bounds cannot
///   separate; on continuous instances exact shape collisions never occur
///   and the cut is inert.  Cut pruning never reorders children (siblings
///   sort by the DP bound in both modes), so enabling cuts can only remove
///   subtrees, never explore new ones.
/// * Incumbent-aware sibling pruning — children are sorted by ascending
///   bound, so the moment one sibling is prunable after an incumbent
///   improvement the entire sorted tail is prunable with it; the loop
///   charges the tail in one step instead of re-checking each sibling.
/// * Dominance — branches that a volume/weight exchange argument proves
///   redundant are never generated: tasks identical in (V, δ, w) are forced
///   into index order (swapping them is a pure renaming, the degenerate
///   Theorem-11 exchange), zero-volume tasks complete first, and
///   zero-weight tasks complete last (moving them is free).
///
/// The incumbent is seeded with the order LP of the classical priority
/// orders (Smith first — §VI's suggestion) and the greedy-heuristic order,
/// and siblings are explored cheapest-bound-first, so pruning bites from
/// the first descent.  With bounds and dominance disabled the search
/// degenerates to exhaustive enumeration and visits exactly n! leaves —
/// the correctness test for the pruning machinery.

#include <cstddef>
#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"

namespace malsched::core {

struct BnbOptions {
  /// Hard guard: worst-case exponential (and the subset-DP bound tables
  /// cost 3·2^n doubles, capping n at 20).  ~15 is comfortable
  /// single-thread interactive territory.
  std::size_t max_tasks = 18;
  /// Also build the optimal schedule (one extra full order LP).
  bool want_schedule = false;
  /// Prune subtrees whose admissible lower bound cannot beat the incumbent.
  bool use_bounds = true;
  /// Skip dominated branches (identical-task symmetry, zero-volume/weight
  /// pinning).
  bool use_dominance = true;
  /// Also apply the tail cuts: the Queyranne-style mean-busy-time
  /// inequality and the identical-shape exchange cut (see the file
  /// comment).  Only ever tighten: the inequality joins the subset-DP
  /// bound via max() in the prune checks and never changes sibling order,
  /// the exchange cut removes provably redundant shape-class orderings, so
  /// node counts with cuts on are ≤ node counts with cuts off — the
  /// property the differential suite pins.  No effect when `use_bounds` is
  /// false.
  bool use_cuts = true;
  /// Relative pruning slack: a subtree is cut when its bound is within
  /// slack·max(1, |incumbent|) of the incumbent, absorbing simplex noise.
  /// The returned objective is optimal up to this slack (default well below
  /// every tolerance the test-suite uses).
  double bound_slack = 1e-7;
  /// Cooperative cancellation, polled once per search node (each node costs
  /// an order-LP solve, so the poll is free by comparison).  When the token
  /// fires the DFS unwinds and the result carries `cancelled = true` with
  /// the best incumbent found so far — an upper bound, not the proven
  /// optimum.  The incumbent seeds always run, so a cancelled result still
  /// holds a feasible order.
  CancelToken cancel;
};

struct BnbStats {
  std::size_t nodes = 0;             ///< prefixes expanded (LP-evaluated)
  std::size_t leaves = 0;            ///< complete orders evaluated
  std::size_t lp_evaluations = 0;    ///< order-LP solves, seeds and leaf
                                     ///< re-solves included
  std::size_t leaf_resolves = 0;     ///< leaves re-solved from scratch
                                     ///< because their warm value came
                                     ///< within 1e-6 of the incumbent
  std::size_t pruned_by_bound = 0;   ///< subtrees cut by the subset-DP bound
  std::size_t pruned_by_cut = 0;     ///< subtrees cut by the tail cuts:
                                     ///< busy-time inequality prunes (only
                                     ///< where the DP bound passed) plus
                                     ///< exchange-cut eliminations
  std::size_t pruned_by_dominance = 0;  ///< branches never generated
};

struct BnbResult {
  /// +inf, with an empty order, when no order LP reached optimality (a
  /// numerical breakdown of the simplex, e.g. on widths near 0).
  double objective = 0.0;
  std::vector<std::size_t> order;  ///< an optimal completion order
  /// Populated if want_schedule and the order's full LP solved; empty
  /// otherwise.
  ColumnSchedule schedule;
  BnbStats stats;
  /// True when BnbOptions::cancel fired before the search finished; the
  /// objective/order are then the best incumbent, not the proven optimum.
  bool cancelled = false;
};

/// Exact optimum over all completion orders by branch-and-bound.  Matches
/// `optimal_by_enumeration` to within `bound_slack` (relative) on every
/// instance.
[[nodiscard]] BnbResult branch_and_bound(const Instance& instance,
                                         const BnbOptions& options = {});

}  // namespace malsched::core
