#pragma once

/// \file canonical.hpp
/// Scale/permutation normal form of MWCT instances, the key-maker of the
/// service result cache.
///
/// MWCT is scale-equivariant along three independent axes:
///   * volumes:    V_i -> c V_i multiplies every completion time by c,
///   * machine:    (P, δ_i) -> (c P, c δ_i) divides completion times by c,
///   * weights:    w_i -> c w_i multiplies the objective by c,
/// and task ids are interchangeable for order-invariant solvers.  The
/// canonical form quotients all four symmetries: P = 1, Σ V_i ≈ 1,
/// Σ w_i ≈ 1, tasks sorted lexicographically by (V, δ, w).  Two requests in
/// the same equivalence class then serialize to the same cache key, so
/// repeated traffic that differs only by units or task numbering re-solves
/// nothing.
///
/// Rational quantization: dividing doubles lands instances related by a
/// non-power-of-two scale on ratios that differ in the last few ulps, so a
/// naive quotient map only dedupes identical and power-of-two-scaled
/// traffic.  The normal form therefore snaps every ratio to the
/// minimal-denominator reduced rational p/q inside a ±kQuantizationTol
/// relative window (a Stern–Brocot walk), and rebuilds the canonical task
/// values *from those rationals*.  Any two rescalings of one instance
/// compute ratios within ulps of each other — six orders of magnitude
/// inside the window — so they snap to the same rationals, the same
/// canonical doubles, the same key, and (crucially) the same canonical
/// instance: a hit replays a solve of bit-identical input, so cached and
/// fresh answers are byte-identical through write_results.  Ratios too
/// irrational for a denominator ≤ 2^26 pass through unquantized, which
/// degrades exactly to the old behaviour (a missed dedup just re-solves —
/// the cache stays correct either way).  Quantization perturbs the solved
/// instance by ≤ kQuantizationTol relatively, orders of magnitude below
/// every solver/validator tolerance (~1e-9).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "malsched/core/instance.hpp"

namespace malsched::service {

/// Relative half-width of the quantization window around each ratio.
/// Chosen between the ~2e-16 ulp noise that different scalings of one
/// instance produce (must be far above, or twins miss each other) and the
/// ~1e-9 solver tolerances (must be far below, or snapping would change
/// answers observably).
inline constexpr double kQuantizationTol = 1e-12;

/// Snaps `value` to the minimal-denominator reduced rational p/q with
/// p/q ∈ [value·(1−tol), value·(1+tol)], returned as the double (p)/(q).
/// Values whose window admits no denominator ≤ 2^26, and non-finite or
/// non-positive values, are returned unchanged.  Deterministic, and stable
/// under sub-window perturbation: two inputs within each other's windows
/// snap to the same rational (the foundation of the scale-invariant key).
[[nodiscard]] double quantize_ratio(double value,
                                    double tol = kQuantizationTol);

/// A canonical instance plus the data to map canonical-space results back.
struct CanonicalForm {
  /// P = 1; Σ V and Σ w within kQuantizationTol of 1 (when the request sums
  /// are positive); every value a quantized rational; tasks sorted.
  core::Instance instance;
  /// Canonical task j is original task `permutation[j]`.
  std::vector<std::size_t> permutation;
  /// C_original[permutation[j]] = time_scale * C_canonical[j].
  double time_scale = 1.0;
  /// Σ w C (original) = objective_scale * Σ w C (canonical).
  double objective_scale = 1.0;
  /// Mixing hash of the canonical bit patterns: a fixed-width fingerprint
  /// of the equivalence class (the result cache keys on `canonical_text`;
  /// the shard ring hashes this for consistent-hash placement across
  /// workers).
  std::uint64_t key = 0;
};

struct CanonicalOptions {
  /// Sort tasks into the permutation normal form.  Disable for solvers whose
  /// semantics depend on task order (e.g. fifo-rigid schedules by id), which
  /// then share only the scale quotient.
  bool permute = true;
  /// Snap ratios to reduced rationals (the scale-invariant key).  Disable to
  /// get the legacy divide-only quotient, which dedupes only identical and
  /// power-of-two-scaled instances — kept for differential benchmarking of
  /// the hit-rate gain, not for production use.
  bool quantize = true;
};

/// Computes the normal form.  Zero-task instances canonicalize to themselves
/// (with P = 1).
[[nodiscard]] CanonicalForm canonicalize(const core::Instance& instance,
                                         const CanonicalOptions& options = {});

/// Exact binary serialization of the canonical instance: n, then the raw
/// bits of each task's (V, δ, w) with -0.0 normalized, 8 + 24n bytes.
/// Distinct canonical forms never collide in the cache map.  Not text:
/// the bytes may include NULs.
[[nodiscard]] std::string canonical_text(const CanonicalForm& form);

/// True when solving the canonical instance is numerically safe: rescaling
/// compresses values toward the solvers' absolute tolerances (~1e-9), so a
/// task whose canonical volume or width lands near them would be silently
/// treated as finished/starved.  Callers (the cache path) must fall back to
/// solving in client space when this is false.
[[nodiscard]] bool well_conditioned(const CanonicalForm& form);

/// Maps canonical-space completion times back to original task ids and
/// original time units.
[[nodiscard]] std::vector<double> denormalize_completions(
    const CanonicalForm& form, std::span<const double> canonical_completions);

}  // namespace malsched::service
