#include "malsched/core/order_lp.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "malsched/support/contracts.hpp"

namespace malsched::core {

namespace {

/// Variable indexing for the order LP: first the n boundary variables C_j,
/// then the lower-triangular x_{a,j} (j <= a) packed row by row.
struct VarMap {
  std::size_t n;

  [[nodiscard]] std::size_t c(std::size_t j) const { return j; }
  [[nodiscard]] std::size_t x(std::size_t a, std::size_t j) const {
    MALSCHED_ASSERT(j <= a && a < n);
    // Row a starts after rows 0..a-1, which hold 1 + 2 + ... + a entries.
    return n + a * (a + 1) / 2 + j;
  }
};

}  // namespace

lp::Model build_order_lp(const Instance& instance,
                         std::span<const std::size_t> order) {
  // `order` may be a duplicate-free prefix: the LP then covers only the
  // induced subinstance (n = prefix length), columns and boundaries
  // renumbered by prefix position.
  MALSCHED_EXPECTS(order.size() <= instance.size());
  const std::size_t n = order.size();
  const double P = instance.processors();
  const VarMap vars{n};

  // Variables are addressed by dense index throughout (VarMap); names are
  // debugging sugar the enumeration/branch-and-bound hot path cannot afford
  // to format, so they stay empty.
  lp::Model model;
  for (std::size_t j = 0; j < n; ++j) {
    model.add_variable();
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t j = 0; j <= a; ++j) {
      model.add_variable();
    }
  }

  // Objective: Σ w_{σ(a)} C_a.
  for (std::size_t a = 0; a < n; ++a) {
    model.set_objective(vars.c(a), instance.task(order[a]).weight);
  }

  // Boundary ordering C_j >= C_{j-1}.
  for (std::size_t j = 1; j < n; ++j) {
    model.add_constraint(
        {{vars.c(j), 1.0}, {vars.c(j - 1), -1.0}},
        lp::Sense::GreaterEqual, 0.0);
  }

  // Column capacity: Σ_a x_{a,j} − P(C_j − C_{j-1}) <= 0.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<lp::Term> terms;
    for (std::size_t a = j; a < n; ++a) {
      terms.push_back({vars.x(a, j), 1.0});
    }
    terms.push_back({vars.c(j), -P});
    if (j > 0) {
      terms.push_back({vars.c(j - 1), P});
    }
    model.add_constraint(std::move(terms), lp::Sense::LessEqual, 0.0);
  }

  // Width caps: x_{a,j} − δ(C_j − C_{j-1}) <= 0.
  for (std::size_t a = 0; a < n; ++a) {
    const double width = instance.effective_width(order[a]);
    for (std::size_t j = 0; j <= a; ++j) {
      std::vector<lp::Term> terms{{vars.x(a, j), 1.0}, {vars.c(j), -width}};
      if (j > 0) {
        terms.push_back({vars.c(j - 1), width});
      }
      model.add_constraint(std::move(terms), lp::Sense::LessEqual, 0.0);
    }
  }

  // Volume conservation: Σ_{j<=a} x_{a,j} = V.
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<lp::Term> terms;
    for (std::size_t j = 0; j <= a; ++j) {
      terms.push_back({vars.x(a, j), 1.0});
    }
    model.add_constraint(std::move(terms), lp::Sense::Equal,
                         instance.task(order[a]).volume);
  }
  return model;
}

OrderLpResult solve_order_lp(const Instance& instance,
                             std::span<const std::size_t> order) {
  MALSCHED_EXPECTS(order.size() == instance.size());
  const std::size_t n = instance.size();
  const VarMap vars{n};
  const auto model = build_order_lp(instance, order);
  const auto solution = lp::solve(model);

  OrderLpResult result;
  result.status = solution.status;
  if (!solution.optimal()) {
    return result;
  }
  result.objective = solution.objective;

  // Reconstruct the column schedule: rates = volume / column length.
  std::vector<double> boundaries(n);
  for (std::size_t j = 0; j < n; ++j) {
    boundaries[j] = solution.values[vars.c(j)];
  }
  support::Matrix alloc(n, n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t task = order[a];
    for (std::size_t j = 0; j <= a; ++j) {
      const double length =
          boundaries[j] - (j == 0 ? 0.0 : boundaries[j - 1]);
      const double volume = solution.values[vars.x(a, j)];
      if (length > 0.0 && volume > 0.0) {
        alloc(task, j) = volume / length;
      }
    }
  }
  result.schedule = ColumnSchedule(
      std::vector<std::size_t>(order.begin(), order.end()),
      std::move(boundaries), std::move(alloc));
  return result;
}

namespace {

/// Compact objective-only formulation: substituting column lengths
/// L_j = C_j − C_{j-1} ≥ 0 eliminates the n−1 boundary-ordering rows (and
/// their phase-1 artificials), and width caps with δ_eff = P are implied by
/// the column capacity row and dropped.  Same optimum as build_order_lp —
/// the objective Σ_a w_a C_a becomes Σ_j (Σ_{a≥j} w_a) L_j — but the
/// simplex tableau is ~25% smaller with half the artificials, which is
/// where the branch-and-bound hot path spends its time.
lp::Model build_order_lp_compact(const Instance& instance,
                                 std::span<const std::size_t> order) {
  MALSCHED_EXPECTS(order.size() <= instance.size());
  const std::size_t n = order.size();
  const double P = instance.processors();
  const VarMap vars{n};  // L_j takes the C_j slot; x packing unchanged

  lp::Model model;
  for (std::size_t v = 0; v < n + n * (n + 1) / 2; ++v) {
    model.add_variable();
  }

  // Objective: Σ_a w_a C_a = Σ_j (suffix weight from position j) L_j.
  double suffix_weight = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    suffix_weight += instance.task(order[a]).weight;
  }
  for (std::size_t j = 0; j < n; ++j) {
    model.set_objective(vars.c(j), suffix_weight);
    suffix_weight -= instance.task(order[j]).weight;
  }

  // Column capacity: Σ_a x_{a,j} − P·L_j <= 0.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<lp::Term> terms;
    terms.reserve(n - j + 1);
    for (std::size_t a = j; a < n; ++a) {
      terms.push_back({vars.x(a, j), 1.0});
    }
    terms.push_back({vars.c(j), -P});
    model.add_constraint(std::move(terms), lp::Sense::LessEqual, 0.0);
  }

  // Width caps: x_{a,j} − δ·L_j <= 0, only where δ_eff < P binds beyond
  // the column capacity.
  for (std::size_t a = 0; a < n; ++a) {
    const double width = instance.effective_width(order[a]);
    if (width >= P) {
      continue;
    }
    for (std::size_t j = 0; j <= a; ++j) {
      model.add_constraint({{vars.x(a, j), 1.0}, {vars.c(j), -width}},
                           lp::Sense::LessEqual, 0.0);
    }
  }

  // Volume conservation: Σ_{j<=a} x_{a,j} = V.
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<lp::Term> terms;
    terms.reserve(a + 1);
    for (std::size_t j = 0; j <= a; ++j) {
      terms.push_back({vars.x(a, j), 1.0});
    }
    model.add_constraint(std::move(terms), lp::Sense::Equal,
                         instance.task(order[a]).volume);
  }
  return model;
}

}  // namespace

double order_lp_objective(const Instance& instance,
                          std::span<const std::size_t> order) {
  const auto model = build_order_lp_compact(instance, order);
  const auto solution = lp::solve(model);
  if (!solution.optimal()) {
    return std::numeric_limits<double>::infinity();
  }
  return solution.objective;
}

namespace detail {

/// Warm-started simplex over the compact order LP, specialized for the
/// push/pop access pattern of branch-and-bound.
///
/// The tableau for a prefix of length k holds, per position a: the column
/// length L_a, the volume splits x_{a,j} (j <= a), one capacity row
/// (Σ x_{·,a} <= P·L_a), width rows x_{a,j} <= δ_a·L_j where δ_eff < P,
/// and one volume row (Σ_j x_{a,j} = V_a).  Pushing position k:
///
/// * new columns x_{k,j} (j < k) touch exactly one *old* row — capacity
///   row j with coefficient +1 — so their reduced form B⁻¹·e_row is the
///   current tableau column of that row's slack variable, a plain copy;
///   L_k and x_{k,k} touch no old rows at all;
/// * new rows are reduced against the basis in one pass (only the width
///   rows reference an old variable, L_j);
/// * two pivots on the new columns make the extended basis feasible
///   without any artificial variable: x_{k,k} basic in the volume row and
///   L_k basic in its binding row (the (k,k) width row, or the capacity
///   row when δ_eff = P) — the new task alone in a new last column at full
///   width.  Old rows hold zeros in both columns, so these pivots touch
///   only the new rows, and a re-priced phase 2 re-optimizes from there in
///   a few pivots instead of a from-scratch two-phase solve.
///
/// Storage is one flat row-major tableau whose column stride covers the
/// full-depth LP, so appending a column is a strided write into rows that
/// already have room.  push() first copies the parent's live rectangle
/// (rows × columns, plus right-hand sides and basis) into a per-depth
/// arena; pop() copies it back and truncates the append-only per-column
/// and per-position bookkeeping.  Every buffer keeps its capacity across
/// pops, so once the search has reached full depth pushes and pops
/// allocate nothing.
class IncrementalOrderLp {
 public:
  explicit IncrementalOrderLp(const Instance& instance)
      : instance_(&instance), processors_(instance.processors()) {
    // Position k adds k + 3 columns (k slack-column copies, L_k, x_{k,k},
    // the capacity slack) and 2 rows, plus k + 1 width rows and their
    // slacks when its task has δ_eff < P.  The widest tableau puts the
    // narrow tasks last.
    const std::size_t n = instance.size();
    std::size_t narrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      narrow += instance.effective_width(i) < processors_ ? 1 : 0;
    }
    std::size_t rows = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t width_rows = k + narrow >= n ? k + 1 : 0;
      stride_ += k + 3 + width_rows;
      rows += 2 + width_rows;
    }
    rhs_.reserve(rows);
    basis_.reserve(rows);
    costs_.reserve(stride_);
    reduced_.reserve(stride_);
    cap_slack_col_.reserve(n);
    l_col_.reserve(n);
    position_weights_.reserve(n);
    tasks_.reserve(n);
    frames_.reserve(n);
  }

  double push(std::size_t task, bool solve = true) {
    save_frame();
    const std::size_t position = position_weights_.size();
    const Task& t = instance_->task(task);
    const double width = instance_->effective_width(task);

    // --- new columns -----------------------------------------------------
    // x_{k,j} for j < position: reduced column = capacity row j's slack
    // column (its only old-row coefficient is +1 in that row).
    const std::size_t first_x = cols_;
    for (std::size_t j = 0; j < position; ++j) {
      append_column_copy(cap_slack_col_[j]);
    }
    // L_k and x_{k,k} appear in new rows only.
    const std::size_t l_col = append_zero_column();
    const std::size_t x_last = append_zero_column();
    l_col_.push_back(l_col);
    const auto x_col = [&](std::size_t j) {
      return j == position ? x_last : first_x + j;
    };

    // --- new rows (reduced against the current basis) --------------------
    // Capacity row k: x_{k,k} − P·L_k <= 0 — all-new variables, no
    // reduction needed.  Future pushes add their x_{·,k} into this row via
    // the slack-column copy above, which is why the slack column index is
    // recorded.
    const std::size_t cap_row = rows_;
    {
      double* row = append_row(0.0);
      row[x_last] = 1.0;
      row[l_col] = -processors_;
      cap_slack_col_.push_back(append_basic_column());
    }
    // Width rows x_{k,j} − δ·L_j <= 0 (skipped when the capacity row
    // already implies them).  For j < position they reference the old
    // variable L_j and must be reduced if it is basic.  binding_row is
    // where L_k turns basic below: the (k,k) width row, or the capacity
    // row when δ_eff = P.
    std::size_t binding_row = cap_row;
    if (width < processors_) {
      for (std::size_t j = 0; j <= position; ++j) {
        if (j == position) {
          binding_row = rows_;
        }
        double* row = append_row(0.0);
        row[x_col(j)] = 1.0;
        row[l_col_[j]] += -width;
        reduce_last_row_against_basis();
        append_basic_column();
      }
    }
    // Volume row: Σ_j x_{k,j} = V_k — all-new variables.
    const std::size_t volume_row = rows_;
    {
      double* row = append_row(t.volume);
      for (std::size_t j = 0; j <= position; ++j) {
        row[x_col(j)] = 1.0;
      }
      basis_.push_back(x_last);
    }
    // Feasible start: x_{k,k} = V_k and L_k = V_k / δ_eff, every other new
    // basic variable a slack.  The new right-hand sides are ≥ 0 in exact
    // arithmetic (the capacity slack is P·V_k/δ − V_k); a rounding residue
    // below zero is clamped.
    eliminate(volume_row, x_last);
    eliminate(binding_row, l_col);
    for (std::size_t i = cap_row; i < rows_; ++i) {
      rhs_[i] = std::max(rhs_[i], 0.0);
    }
    position_weights_.push_back(t.weight);
    tasks_.push_back(task);
    if (!solve) {
      // Structure-only push (the caller wants a from-scratch value): the
      // basis stays feasible, and the next solving push's phase 2
      // re-optimizes every position.
      return 0.0;
    }

    // --- re-priced phase 2 ------------------------------------------------
    costs_.assign(cols_, 0.0);
    double suffix_weight = 0.0;
    for (std::size_t j = position_weights_.size(); j-- > 0;) {
      suffix_weight += position_weights_[j];
      costs_[l_col_[j]] = suffix_weight;
    }
    if (!optimize()) {
      return resolve_from_scratch();
    }
    double objective = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      objective += costs_[basis_[i]] * rhs_[i];
    }
    return objective;
  }

  void pop() {
    MALSCHED_ASSERT(!frames_.empty());
    const Frame frame = frames_.back();
    frames_.pop_back();
    rows_ = frame.rows;
    cols_ = frame.cols;
    const double* saved = arena_.data() + frame.offset;
    for (std::size_t i = 0; i < rows_; ++i) {
      std::copy_n(saved + i * cols_, cols_, row(i));
    }
    rhs_.resize(rows_);
    std::copy_n(saved + rows_ * cols_, rows_, rhs_.begin());
    basis_.resize(rows_);
    std::copy_n(basis_arena_.begin() + static_cast<std::ptrdiff_t>(
                                           frame.basis_offset),
                rows_, basis_.begin());
    cap_slack_col_.pop_back();
    l_col_.pop_back();
    position_weights_.pop_back();
    tasks_.pop_back();
  }

 private:
  /// Restore point of one push: the parent's dimensions and where its live
  /// rectangle (then its right-hand sides) and basis sit in the arenas.
  struct Frame {
    std::size_t rows;
    std::size_t cols;
    std::size_t offset;
    std::size_t basis_offset;
  };

  static constexpr double kEps = 1e-9;
  static constexpr double kSnap = 1e-12;

  /// Drops numerical dust.  Written on |v| so it compiles to a mask, not
  /// a data-dependent branch: tableau entries change sign constantly.
  [[nodiscard]] static double snap(double v) noexcept {
    return std::fabs(v) <= kSnap ? 0.0 : v;
  }

  [[nodiscard]] double* row(std::size_t i) noexcept {
    return tab_.data() + i * stride_;
  }

  void save_frame() {
    Frame frame{rows_, cols_, 0, 0};
    if (!frames_.empty()) {
      const Frame& parent = frames_.back();
      frame.offset = parent.offset + parent.rows * (parent.cols + 1);
      frame.basis_offset = parent.basis_offset + parent.rows;
    }
    const std::size_t end = frame.offset + rows_ * (cols_ + 1);
    if (arena_.size() < end) {
      arena_.resize(end);
    }
    if (basis_arena_.size() < frame.basis_offset + rows_) {
      basis_arena_.resize(frame.basis_offset + rows_);
    }
    double* saved = arena_.data() + frame.offset;
    for (std::size_t i = 0; i < rows_; ++i) {
      std::copy_n(row(i), cols_, saved + i * cols_);
    }
    std::copy_n(rhs_.begin(), rows_, saved + rows_ * cols_);
    std::copy_n(basis_.begin(), rows_,
                basis_arena_.begin() +
                    static_cast<std::ptrdiff_t>(frame.basis_offset));
    frames_.push_back(frame);
  }

  std::size_t append_zero_column() {
    MALSCHED_ASSERT(cols_ < stride_);
    for (std::size_t i = 0; i < rows_; ++i) {
      row(i)[cols_] = 0.0;
    }
    return cols_++;
  }

  std::size_t append_column_copy(std::size_t source) {
    MALSCHED_ASSERT(cols_ < stride_);
    for (std::size_t i = 0; i < rows_; ++i) {
      double* r = row(i);
      r[cols_] = r[source];
    }
    return cols_++;
  }

  /// Appends the slack column of the last row, basic in that row.
  std::size_t append_basic_column() {
    const std::size_t col = append_zero_column();
    row(rows_ - 1)[col] = 1.0;
    basis_.push_back(col);
    return col;
  }

  /// Appends a row of zeros with right-hand side `rhs`; its basic column
  /// is appended by the caller.
  double* append_row(double rhs) {
    ++rows_;
    if (tab_.size() < rows_ * stride_) {
      tab_.resize(rows_ * stride_);
    }
    double* r = row(rows_ - 1);
    std::fill_n(r, cols_, 0.0);
    rhs_.push_back(rhs);
    return r;
  }

  /// Expresses the freshly appended last row (coefficients *and*
  /// right-hand side) in the current basis: one pass over the old rows
  /// suffices because every reduced tableau row carries an identity on the
  /// basis columns.
  void reduce_last_row_against_basis() {
    const std::size_t last = rows_ - 1;
    double* target = row(last);
    for (std::size_t i = 0; i < last; ++i) {
      const double factor = target[basis_[i]];
      if (factor == 0.0) {
        continue;
      }
      const double* source = row(i);
      for (std::size_t c = 0; c < cols_; ++c) {
        target[c] = snap(target[c] - factor * source[c]);
      }
      target[basis_[i]] = 0.0;
      rhs_[last] = snap(rhs_[last] - factor * rhs_[i]);
    }
  }

  /// Primal simplex on `costs_` from the current (feasible) basis.
  /// Returns false when the iteration budget is exhausted.
  bool optimize() {
    reduced_.assign(costs_.begin(), costs_.end());
    for (std::size_t i = 0; i < rows_; ++i) {
      const double cb = costs_[basis_[i]];
      if (cb == 0.0) {
        continue;
      }
      const double* r = row(i);
      for (std::size_t c = 0; c < cols_; ++c) {
        if (r[c] != 0.0) {
          reduced_[c] = snap(reduced_[c] - cb * r[c]);
        }
      }
    }

    const std::size_t cap = 50 * (rows_ + cols_) + 200;
    const std::size_t bland_after = cap / 2;
    for (std::size_t iteration = 0;; ++iteration) {
      if (iteration >= cap) {
        return false;
      }
      const bool use_bland = iteration >= bland_after;
      std::size_t entering = cols_;
      for (std::size_t c = 0; c < cols_; ++c) {
        if (reduced_[c] >= -kEps) {
          continue;
        }
        if (use_bland) {
          entering = c;
          break;
        }
        if (entering == cols_ || reduced_[c] < reduced_[entering]) {
          entering = c;
        }
      }
      if (entering == cols_) {
        return true;
      }

      std::size_t leaving = rows_;
      for (std::size_t i = 0; i < rows_; ++i) {
        const double coeff = row(i)[entering];
        if (coeff <= kEps) {
          continue;
        }
        if (leaving == rows_) {
          leaving = i;
          continue;
        }
        const double lhs = rhs_[i] * row(leaving)[entering];
        const double rhs_cmp = rhs_[leaving] * coeff;
        if (lhs < rhs_cmp ||
            (!(rhs_cmp < lhs) && basis_[i] < basis_[leaving])) {
          leaving = i;
        }
      }
      // Costs are suffix weights, so the LP is bounded below; a missing
      // leaving row would mean the basis drifted — treat as a failed warm
      // start.
      if (leaving == rows_) {
        return false;
      }
      eliminate(leaving, entering);
      const double cost_factor = reduced_[entering];
      if (cost_factor != 0.0) {
        const double* pivot_row = row(leaving);
        for (std::size_t c = 0; c < cols_; ++c) {
          reduced_[c] = snap(reduced_[c] - cost_factor * pivot_row[c]);
        }
        reduced_[entering] = 0.0;
      }
    }
  }

  /// Gauss-Jordan step on (row, col): `col` becomes basic in `row`.  The
  /// pivot element may be negative (the feasible-start pivots); the
  /// simplex loop only pivots on positive ones.
  void eliminate(std::size_t pivot_index, std::size_t col) {
    double* pivot_row = row(pivot_index);
    const double pivot_value = pivot_row[col];
    for (std::size_t c = 0; c < cols_; ++c) {
      pivot_row[c] = snap(pivot_row[c] / pivot_value);
    }
    rhs_[pivot_index] = snap(rhs_[pivot_index] / pivot_value);
    pivot_row[col] = 1.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      if (i == pivot_index) {
        continue;
      }
      double* target = row(i);
      const double factor = target[col];
      if (factor == 0.0) {
        continue;
      }
      for (std::size_t c = 0; c < cols_; ++c) {
        target[c] = snap(target[c] - factor * pivot_row[c]);
      }
      target[col] = 0.0;
      rhs_[i] = snap(rhs_[i] - factor * rhs_[pivot_index]);
    }
    basis_[pivot_index] = col;
  }

  /// Warm-start failure fallback: the tableau stays primal feasible (every
  /// ratio-test pivot preserves feasibility), so future pushes remain
  /// valid; only this node's value is recomputed exactly.
  double resolve_from_scratch() {
    return order_lp_objective(*instance_, tasks_);
  }

  const Instance* instance_;
  double processors_;
  std::size_t stride_ = 0;  ///< columns of the full-depth tableau
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> tab_;  ///< rows_ × stride_, row-major
  std::vector<double> rhs_;
  std::vector<std::size_t> basis_;        ///< per row: basic column
  std::vector<std::size_t> cap_slack_col_;  ///< per position
  std::vector<std::size_t> l_col_;          ///< per position
  std::vector<double> position_weights_;
  std::vector<std::size_t> tasks_;          ///< pushed prefix, for fallback
  std::vector<Frame> frames_;               ///< one per push
  std::vector<double> arena_;               ///< saved rectangles + rhs
  std::vector<std::size_t> basis_arena_;    ///< saved bases
  std::vector<double> costs_;
  std::vector<double> reduced_;
};

}  // namespace detail

OrderLpEvaluator::OrderLpEvaluator(const Instance& instance)
    : instance_(&instance),
      lp_(std::make_unique<detail::IncrementalOrderLp>(instance)) {
  const std::size_t n = instance.size();
  prefix_.reserve(n);
  objectives_.reserve(n);
  volumes_.reserve(n);
  profiles_.reserve(n + 1);
  profiles_.emplace_back(instance.processors());
}

OrderLpEvaluator::~OrderLpEvaluator() = default;
OrderLpEvaluator::OrderLpEvaluator(OrderLpEvaluator&&) noexcept = default;
OrderLpEvaluator& OrderLpEvaluator::operator=(OrderLpEvaluator&&) noexcept =
    default;

double OrderLpEvaluator::push(std::size_t task, bool exact) {
  MALSCHED_EXPECTS(task < instance_->size());
  MALSCHED_EXPECTS(prefix_.size() < instance_->size());
  MALSCHED_EXPECTS_MSG(
      std::find(prefix_.begin(), prefix_.end(), task) == prefix_.end(),
      "task already in the prefix");
  prefix_.push_back(task);
  ++lp_evaluations_;
  double objective;
  if (exact) {
    // Re-solve from scratch so the reported objective is bit-identical
    // with order_lp_objective for the same prefix.  The incremental state
    // is still extended (snapshot, appended rows/columns and a feasible
    // basis, no re-optimization) so pop() and deeper pushes stay
    // consistent: the next warm-started push re-optimizes every position.
    lp_->push(task, /*solve=*/false);
    objective = order_lp_objective(*instance_, prefix_);
  } else {
    objective = lp_->push(task);
  }
  objectives_.push_back(objective);
  volumes_.push_back(prefix_volume() + instance_->task(task).volume);
  // profiles_ keeps one slot per depth reached so far; copy-assigning into
  // a used slot reuses its segment storage.
  const std::size_t depth = prefix_.size();
  if (profiles_.size() == depth) {
    profiles_.push_back(profiles_[depth - 1]);
  } else {
    profiles_[depth] = profiles_[depth - 1];
  }
  profiles_[depth].place(instance_->effective_width(task),
                         instance_->task(task).volume);
  return objective;
}

void OrderLpEvaluator::pop() {
  MALSCHED_EXPECTS(!prefix_.empty());
  prefix_.pop_back();
  objectives_.pop_back();
  volumes_.pop_back();
  lp_->pop();
}

double OrderLpEvaluator::objective() const noexcept {
  return objectives_.empty() ? 0.0 : objectives_.back();
}

double OrderLpEvaluator::prefix_volume() const noexcept {
  return volumes_.empty() ? 0.0 : volumes_.back();
}

double OrderLpEvaluator::greedy_completion(std::size_t task) const {
  return profiles_[prefix_.size()].peek(instance_->effective_width(task),
                                        instance_->task(task).volume);
}

ExactOrderLpResult solve_order_lp_exact(const Instance& instance,
                                        std::span<const std::size_t> order) {
  // Certification is only meaningful for a complete order; prefixes would
  // silently certify a subinstance.
  MALSCHED_EXPECTS(order.size() == instance.size());
  const auto model = build_order_lp(instance, order);
  const auto solution = lp::solve_exact(model);
  ExactOrderLpResult result;
  result.status = solution.status;
  if (solution.optimal()) {
    result.objective = solution.objective;
  }
  return result;
}

}  // namespace malsched::core
