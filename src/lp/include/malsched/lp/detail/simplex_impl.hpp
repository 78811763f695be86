#pragma once

/// \file simplex_impl.hpp
/// Shared dense two-phase primal simplex, templated on the scalar type.
/// Instantiated for double (tolerance-based pivoting) and
/// numeric::Rational (exact pivoting).  Internal header — include
/// malsched/lp/solver.hpp instead.

#include <cstddef>
#include <limits>
#include <vector>

#include "malsched/lp/model.hpp"
#include "malsched/lp/solver.hpp"
#include "malsched/numeric/rational.hpp"
#include "malsched/support/contracts.hpp"

namespace malsched::lp::detail {

/// Scalar policy: significance tests for double use the configured epsilon;
/// for Rational they are exact.
template <typename S>
struct ScalarPolicy;

template <>
struct ScalarPolicy<double> {
  double eps;
  [[nodiscard]] static double from_double(double v) noexcept { return v; }
  [[nodiscard]] static double to_double(double v) noexcept { return v; }
  [[nodiscard]] bool is_zero(double v) const noexcept {
    return v <= eps && v >= -eps;
  }
  [[nodiscard]] bool is_pos(double v) const noexcept { return v > eps; }
  [[nodiscard]] bool is_neg(double v) const noexcept { return v < -eps; }
  /// Drops numerical dust after pivots to limit drift.
  [[nodiscard]] double snap(double v) const noexcept {
    return (v <= eps * 1e-3 && v >= -eps * 1e-3) ? 0.0 : v;
  }
};

template <>
struct ScalarPolicy<numeric::Rational> {
  double eps;  // unused; kept for interface symmetry
  [[nodiscard]] static numeric::Rational from_double(double v) {
    return numeric::Rational::from_double(v);
  }
  [[nodiscard]] static double to_double(const numeric::Rational& v) noexcept {
    return v.to_double();
  }
  [[nodiscard]] bool is_zero(const numeric::Rational& v) const noexcept {
    return v.is_zero();
  }
  [[nodiscard]] bool is_pos(const numeric::Rational& v) const noexcept {
    return v.signum() > 0;
  }
  [[nodiscard]] bool is_neg(const numeric::Rational& v) const noexcept {
    return v.signum() < 0;
  }
  [[nodiscard]] numeric::Rational snap(numeric::Rational v) const noexcept {
    return v;
  }
};

/// Dense tableau simplex.  All variables are non-negative; rows are
/// normalized to non-negative right-hand sides; phase 1 minimizes the sum of
/// artificials, phase 2 the real objective.  Entering-variable selection is
/// Dantzig with an automatic switch to Bland's rule (anti-cycling) after a
/// stall budget.
template <typename S>
class DenseSimplex {
 public:
  struct Result {
    SolveStatus status = SolveStatus::IterationLimit;
    S objective{};
    std::vector<S> values;
    std::size_t iterations = 0;
  };

  explicit DenseSimplex(const Model& model, const SimplexOptions& options)
      : policy_{options.eps}, options_(options) {
    build(model);
  }

  Result run() {
    Result result;
    if (!phase1(result)) {
      return result;
    }
    phase2(result);
    return result;
  }

 private:
  using RowVec = std::vector<S>;

  void build(const Model& model) {
    num_structural_ = model.num_variables();

    // Count auxiliary columns.
    std::size_t slacks = 0;
    std::size_t artificials = 0;
    for (const auto& row : model.rows()) {
      const bool rhs_neg = row.rhs < 0.0;
      Sense sense = row.sense;
      if (rhs_neg && sense != Sense::Equal) {
        sense = sense == Sense::LessEqual ? Sense::GreaterEqual : Sense::LessEqual;
      }
      if (sense == Sense::LessEqual) {
        ++slacks;
      } else if (sense == Sense::GreaterEqual) {
        ++slacks;  // surplus
        ++artificials;
      } else {
        ++artificials;
      }
    }

    num_slack_ = slacks;
    num_artificial_ = artificials;
    const std::size_t cols = num_structural_ + num_slack_ + num_artificial_;
    const std::size_t rows = model.rows().size();

    tableau_.assign(rows, RowVec(cols, S{}));
    rhs_.assign(rows, S{});
    basis_.assign(rows, 0);
    objective_.assign(cols, S{});
    for (std::size_t j = 0; j < num_structural_; ++j) {
      objective_[j] = ScalarPolicy<S>::from_double(model.objective()[j]);
    }

    std::size_t next_slack = num_structural_;
    std::size_t next_artificial = num_structural_ + num_slack_;
    for (std::size_t i = 0; i < rows; ++i) {
      const auto& row = model.rows()[i];
      const bool flip = row.rhs < 0.0;
      const double sign = flip ? -1.0 : 1.0;
      for (const Term& t : row.terms) {
        tableau_[i][t.var] = ScalarPolicy<S>::from_double(sign * t.coeff);
      }
      rhs_[i] = ScalarPolicy<S>::from_double(sign * row.rhs);

      Sense sense = row.sense;
      if (flip && sense != Sense::Equal) {
        sense = sense == Sense::LessEqual ? Sense::GreaterEqual : Sense::LessEqual;
      }
      if (sense == Sense::LessEqual) {
        tableau_[i][next_slack] = ScalarPolicy<S>::from_double(1.0);
        basis_[i] = next_slack;
        ++next_slack;
      } else if (sense == Sense::GreaterEqual) {
        tableau_[i][next_slack] = ScalarPolicy<S>::from_double(-1.0);
        ++next_slack;
        tableau_[i][next_artificial] = ScalarPolicy<S>::from_double(1.0);
        basis_[i] = next_artificial;
        ++next_artificial;
      } else {
        tableau_[i][next_artificial] = ScalarPolicy<S>::from_double(1.0);
        basis_[i] = next_artificial;
        ++next_artificial;
      }
    }
  }

  [[nodiscard]] std::size_t max_iterations() const noexcept {
    if (options_.max_iterations != 0) {
      return options_.max_iterations;
    }
    return 50 * (tableau_.size() + column_count()) + 200;
  }

  [[nodiscard]] std::size_t column_count() const noexcept {
    return num_structural_ + num_slack_ + num_artificial_;
  }

  /// Prices out `costs` against the current basis, producing the reduced
  /// cost row and (negated) objective offset.
  void price_out(const std::vector<S>& costs, std::vector<S>& reduced,
                 S& offset) const {
    reduced = costs;
    offset = S{};
    for (std::size_t i = 0; i < tableau_.size(); ++i) {
      const S& cb = costs[basis_[i]];
      if (policy_.is_zero(cb)) {
        continue;
      }
      const RowVec& row = tableau_[i];
      for (std::size_t j = 0; j < reduced.size(); ++j) {
        if (!policy_.is_zero(row[j])) {
          reduced[j] = policy_.snap(reduced[j] - cb * row[j]);
        }
      }
      offset = offset + cb * rhs_[i];
    }
  }

  /// One simplex loop over the given reduced-cost row.  `allowed_cols`
  /// bounds the entering candidates (phase 2 excludes artificials).
  /// Returns Optimal or Unbounded / IterationLimit.
  SolveStatus iterate(std::vector<S>& reduced, S& objective_value,
                      std::size_t allowed_cols, std::size_t& iterations) {
    const std::size_t iter_cap = max_iterations();
    const std::size_t bland_after = options_.bland ? 0 : iter_cap / 2;

    for (;;) {
      if (iterations >= iter_cap) {
        return SolveStatus::IterationLimit;
      }
      const bool use_bland = iterations >= bland_after;

      // Entering column: most negative reduced cost (Dantzig) or first
      // negative (Bland).
      std::size_t entering = allowed_cols;
      for (std::size_t j = 0; j < allowed_cols; ++j) {
        if (!policy_.is_neg(reduced[j])) {
          continue;
        }
        if (use_bland) {
          entering = j;
          break;
        }
        if (entering == allowed_cols || reduced[j] < reduced[entering]) {
          entering = j;
        }
      }
      if (entering == allowed_cols) {
        return SolveStatus::Optimal;
      }

      // Ratio test; ties break on smallest basis index (lexicographic-ish,
      // pairs with Bland for anti-cycling).
      std::size_t leaving = tableau_.size();
      for (std::size_t i = 0; i < tableau_.size(); ++i) {
        const S& pivot_coeff = tableau_[i][entering];
        if (!policy_.is_pos(pivot_coeff)) {
          continue;
        }
        if (leaving == tableau_.size()) {
          leaving = i;
          continue;
        }
        // Compare rhs_[i]/T[i][e] vs rhs_[l]/T[l][e] without division:
        // denominators are positive.
        const S lhs = rhs_[i] * tableau_[leaving][entering];
        const S rhs_cmp = rhs_[leaving] * pivot_coeff;
        if (lhs < rhs_cmp ||
            (!(rhs_cmp < lhs) && basis_[i] < basis_[leaving])) {
          leaving = i;
        }
      }
      if (leaving == tableau_.size()) {
        return SolveStatus::Unbounded;
      }

      pivot(leaving, entering, reduced, objective_value);
      ++iterations;
    }
  }

  void pivot(std::size_t row, std::size_t col, std::vector<S>& reduced,
             S& objective_value) {
    RowVec& pivot_row = tableau_[row];
    const S pivot_value = pivot_row[col];
    MALSCHED_ASSERT(policy_.is_pos(pivot_value));

    for (S& v : pivot_row) {
      v = policy_.snap(v / pivot_value);
    }
    rhs_[row] = policy_.snap(rhs_[row] / pivot_value);
    pivot_row[col] = ScalarPolicy<S>::from_double(1.0);

    for (std::size_t i = 0; i < tableau_.size(); ++i) {
      if (i == row) {
        continue;
      }
      const S factor = tableau_[i][col];
      if (policy_.is_zero(factor)) {
        tableau_[i][col] = S{};
        continue;
      }
      RowVec& target = tableau_[i];
      for (std::size_t j = 0; j < target.size(); ++j) {
        target[j] = policy_.snap(target[j] - factor * pivot_row[j]);
      }
      target[col] = S{};
      rhs_[i] = policy_.snap(rhs_[i] - factor * rhs_[row]);
    }

    const S cost_factor = reduced[col];
    if (!policy_.is_zero(cost_factor)) {
      for (std::size_t j = 0; j < reduced.size(); ++j) {
        reduced[j] = policy_.snap(reduced[j] - cost_factor * pivot_row[j]);
      }
      reduced[col] = S{};
      objective_value = objective_value + cost_factor * rhs_[row];
    }

    basis_[row] = col;
  }

  /// Phase 1.  Returns false (filling `result`) when infeasible or stalled.
  bool phase1(typename DenseSimplex::Result& result) {
    if (num_artificial_ == 0) {
      return true;  // all-slack basis is already feasible
    }
    std::vector<S> phase1_costs(column_count(), S{});
    for (std::size_t j = num_structural_ + num_slack_; j < column_count(); ++j) {
      phase1_costs[j] = ScalarPolicy<S>::from_double(1.0);
    }
    std::vector<S> reduced;
    S offset{};
    price_out(phase1_costs, reduced, offset);
    // Current phase-1 objective value is `offset` (sum of artificial rhs).
    S value = offset;
    // Minimizing: track as value - improvements; iterate() adds
    // cost_factor * rhs, which is negative progress.  We only need the final
    // recomputed value below, so pass a scratch accumulator.
    const SolveStatus status =
        iterate(reduced, value, column_count(), result.iterations);
    // Phase 1 is bounded in exact arithmetic, but a near-degenerate tableau
    // (e.g. a width of 1e-5·P) can lose its last positive ratio-test entry
    // to the epsilon and report Unbounded.  That is a numerical breakdown of
    // this solve, not a broken invariant: report it and let the caller
    // treat the LP as unsolved.
    if (status != SolveStatus::Optimal) {
      result.status = status;
      return false;
    }

    // Recompute the phase-1 objective from the basis (robust against the
    // incremental accumulator drifting in double).
    S infeasibility{};
    for (std::size_t i = 0; i < tableau_.size(); ++i) {
      if (basis_[i] >= num_structural_ + num_slack_) {
        infeasibility = infeasibility + rhs_[i];
      }
    }
    if (policy_.is_pos(infeasibility)) {
      result.status = SolveStatus::Infeasible;
      return false;
    }

    // Drive degenerate artificials out of the basis where possible; redundant
    // rows (all-zero) keep their artificial pinned at zero, which is harmless
    // because phase 2 never lets artificial columns enter.
    for (std::size_t i = 0; i < tableau_.size(); ++i) {
      if (basis_[i] < num_structural_ + num_slack_) {
        continue;
      }
      for (std::size_t j = 0; j < num_structural_ + num_slack_; ++j) {
        if (!policy_.is_zero(tableau_[i][j])) {
          // The entering coefficient may be negative here, which is fine
          // because the row's rhs is zero.
          pivot_degenerate(i, j);
          break;
        }
      }
    }
    return true;
  }

  /// Pivot used to expel a zero-valued artificial; the pivot element may be
  /// negative (rhs is zero, so feasibility is preserved).
  void pivot_degenerate(std::size_t row, std::size_t col) {
    RowVec& pivot_row = tableau_[row];
    const S pivot_value = pivot_row[col];
    MALSCHED_ASSERT(!policy_.is_zero(pivot_value));
    for (S& v : pivot_row) {
      v = policy_.snap(v / pivot_value);
    }
    rhs_[row] = policy_.snap(rhs_[row] / pivot_value);
    pivot_row[col] = ScalarPolicy<S>::from_double(1.0);
    for (std::size_t i = 0; i < tableau_.size(); ++i) {
      if (i == row) {
        continue;
      }
      const S factor = tableau_[i][col];
      if (policy_.is_zero(factor)) {
        continue;
      }
      RowVec& target = tableau_[i];
      for (std::size_t j = 0; j < target.size(); ++j) {
        target[j] = policy_.snap(target[j] - factor * pivot_row[j]);
      }
      target[col] = S{};
      rhs_[i] = policy_.snap(rhs_[i] - factor * rhs_[row]);
    }
    basis_[row] = col;
  }

  void phase2(typename DenseSimplex::Result& result) {
    std::vector<S> reduced;
    S offset{};
    price_out(objective_, reduced, offset);
    S value{};
    const SolveStatus status = iterate(reduced, value, num_structural_ + num_slack_,
                                       result.iterations);
    result.status = status;
    if (status != SolveStatus::Optimal) {
      return;
    }
    result.values.assign(num_structural_, S{});
    for (std::size_t i = 0; i < tableau_.size(); ++i) {
      if (basis_[i] < num_structural_) {
        result.values[basis_[i]] = rhs_[i];
      }
    }
    S objective{};
    for (std::size_t j = 0; j < num_structural_; ++j) {
      objective = objective + objective_[j] * result.values[j];
    }
    result.objective = objective;
  }

  ScalarPolicy<S> policy_;
  SimplexOptions options_;

  std::size_t num_structural_ = 0;
  std::size_t num_slack_ = 0;
  std::size_t num_artificial_ = 0;

  std::vector<RowVec> tableau_;
  std::vector<S> rhs_;
  std::vector<S> objective_;
  std::vector<std::size_t> basis_;
};

}  // namespace malsched::lp::detail
