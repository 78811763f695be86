#include "malsched/service/canonical.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>

#include "malsched/support/contracts.hpp"
#include "malsched/support/rng.hpp"

namespace malsched::service {

namespace {

std::uint64_t mix(std::uint64_t state, double value) {
  // Normalize -0.0 so the two zero encodings share a key.
  const double d = value == 0.0 ? 0.0 : value;
  std::uint64_t s = state ^ std::bit_cast<std::uint64_t>(d);
  return support::splitmix64(s);
}

}  // namespace

double quantize_ratio(double value, double tol) {
  if (!std::isfinite(value) || value <= 0.0) {
    return value;
  }
  const double lo = value * (1.0 - tol);
  const double hi = value * (1.0 + tol);
  if (!(lo > 0.0) || !std::isfinite(hi)) {
    return value;
  }
  // Stern–Brocot / continued-fraction walk for the minimal-denominator
  // rational in [lo, hi]: peel integer parts until an integer falls inside
  // the (inverted) residual interval, accumulating convergents p/q.  The
  // endpoints are doubles, i.e. exact rationals m·2^(e−53), so the whole
  // walk runs in exact 128-bit integer arithmetic — the answer depends only
  // on which rationals the window contains, never on rounding, which is
  // what makes ulp-separated twins of one real ratio snap to the same
  // value.  (A double-precision walk loses this at deep CF levels.)
  __extension__ using Wide = __int128;
  const auto decompose = [](double d, Wide& num, Wide& den) {
    int exp = 0;
    const double fraction = std::frexp(d, &exp);  // d = fraction * 2^exp
    // |exp| > 60 would push the exact fractions toward the 128-bit limit;
    // such extreme ratios just skip quantization (a missed dedup, nothing
    // more).
    if (exp > 60 || exp < -60) {
      return false;
    }
    num = static_cast<Wide>(std::ldexp(fraction, 53));  // 53-bit integer
    den = 1;
    const int shift = exp - 53;
    if (shift >= 0) {
      num <<= shift;
    } else {
      den <<= -shift;
    }
    return true;
  };
  Wide lo_n = 0, lo_d = 1, hi_n = 0, hi_d = 1;
  if (!decompose(lo, lo_n, lo_d) || !decompose(hi, hi_n, hi_d)) {
    return value;
  }
  constexpr Wide kMaxDenominator = Wide{1} << 26;
  constexpr Wide kMaxNumerator = Wide{1} << 53;
  Wide p_prev = 1, q_prev = 0;  // convergent p_{-1}/q_{-1}
  Wide p_prev2 = 0, q_prev2 = 1;
  while (true) {
    const Wide a_floor = lo_n / lo_d;
    const Wide a_ceil = a_floor + (lo_n % lo_d != 0 ? 1 : 0);
    // Terminal level: an integer lies in the residual interval, and the
    // smallest such integer finishes the minimal-denominator fraction.
    const bool terminal = a_ceil * hi_d <= hi_n;
    const Wide a = terminal ? a_ceil : a_floor;
    const Wide p = a * p_prev + p_prev2;
    const Wide q = a * q_prev + q_prev2;
    if (q > kMaxDenominator || p > kMaxNumerator) {
      return value;
    }
    if (terminal) {
      return static_cast<double>(static_cast<std::int64_t>(p)) /
             static_cast<double>(static_cast<std::int64_t>(q));
    }
    p_prev2 = p_prev;
    q_prev2 = q_prev;
    p_prev = p;
    q_prev = q;
    // Invert the residual interval: [1/(hi−a), 1/(lo−a)], exactly.  The
    // new components are Euclidean remainders of the old, so magnitudes
    // only shrink and no product here can overflow 128 bits.
    const Wide next_lo_n = hi_d;
    const Wide next_lo_d = hi_n - a * hi_d;
    const Wide next_hi_n = lo_d;
    const Wide next_hi_d = lo_n - a * lo_d;
    lo_n = next_lo_n;
    lo_d = next_lo_d;
    hi_n = next_hi_n;
    hi_d = next_hi_d;
  }
}

CanonicalForm canonicalize(const core::Instance& instance,
                           const CanonicalOptions& options) {
  const std::size_t n = instance.size();
  const double p = instance.processors();
  const double total_v = instance.total_volume();
  const double total_w = instance.total_weight();
  const double v = total_v > 0.0 ? total_v : 1.0;
  const double w = total_w > 0.0 ? total_w : 1.0;

  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  std::vector<core::Task> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].volume = instance.task(i).volume / v;
    tasks[i].width = instance.task(i).width / p;
    tasks[i].weight = instance.task(i).weight / w;
    if (options.quantize) {
      // Rebuild the canonical values from the snapped rationals: every
      // member of the equivalence class then solves the *same* canonical
      // instance, which is what makes a hit byte-identical to a fresh solve.
      tasks[i].volume = quantize_ratio(tasks[i].volume);
      tasks[i].width = quantize_ratio(tasks[i].width);
      tasks[i].weight = quantize_ratio(tasks[i].weight);
    }
  }
  if (options.permute) {
    std::stable_sort(perm.begin(), perm.end(),
                     [&tasks](std::size_t a, std::size_t b) {
                       return std::tie(tasks[a].volume, tasks[a].width,
                                       tasks[a].weight) <
                              std::tie(tasks[b].volume, tasks[b].width,
                                       tasks[b].weight);
                     });
    std::vector<core::Task> sorted(n);
    for (std::size_t j = 0; j < n; ++j) {
      sorted[j] = tasks[perm[j]];
    }
    tasks = std::move(sorted);
  }

  // The scales stay request-exact (not quantized): results must map back to
  // the client's own units, and the scales never enter the cache key.
  CanonicalForm form{core::Instance(1.0, std::move(tasks)), std::move(perm),
                     /*time_scale=*/v / p, /*objective_scale=*/w * (v / p), 0};

  std::uint64_t key = 0x243f6a8885a308d3ULL ^ static_cast<std::uint64_t>(n);
  for (const core::Task& t : form.instance.tasks()) {
    key = mix(key, t.volume);
    key = mix(key, t.width);
    key = mix(key, t.weight);
  }
  form.key = key;
  return form;
}

std::string canonical_text(const CanonicalForm& form) {
  // Raw IEEE-754 bits, 8 + 24n bytes: the text is a cache map key, not
  // meant for humans (io.hpp serves that purpose), and bit patterns are
  // exact and a third the size of a hexfloat rendering.
  const auto append = [](std::string& out, std::uint64_t bits) {
    char bytes[sizeof bits];
    std::memcpy(bytes, &bits, sizeof bits);
    out.append(bytes, sizeof bytes);
  };
  // Same -0.0 normalization as the hash mix, so the two zero encodings
  // share the exact key too.
  const auto bits_of = [](double d) {
    return std::bit_cast<std::uint64_t>(d == 0.0 ? 0.0 : d);
  };
  std::string text;
  text.reserve(8 + 24 * form.instance.size());
  append(text, form.instance.size());
  for (const core::Task& t : form.instance.tasks()) {
    append(text, bits_of(t.volume));
    append(text, bits_of(t.width));
    append(text, bits_of(t.weight));
  }
  return text;
}

bool well_conditioned(const CanonicalForm& form) {
  // Overflowed sums (total volume = inf) make the scales non-finite and
  // the canonical values 0/NaN; comparisons below would all be false for
  // NaN, so check finiteness explicitly first.
  if (!std::isfinite(form.time_scale) || !std::isfinite(form.objective_scale)) {
    return false;
  }
  // Three orders of magnitude above the engine/validator absolute
  // tolerance of 1e-9: below this, rescaled volumes get snapped to
  // "finished" and rescaled rates to "no progress".
  constexpr double kMinScale = 1e-6;
  for (const core::Task& t : form.instance.tasks()) {
    if (!std::isfinite(t.volume) || !std::isfinite(t.width) ||
        !std::isfinite(t.weight)) {
      return false;
    }
    if (t.volume > 0.0 && t.volume < kMinScale) {
      return false;
    }
    if (t.width < kMinScale) {
      return false;
    }
  }
  return true;
}

std::vector<double> denormalize_completions(
    const CanonicalForm& form, std::span<const double> canonical_completions) {
  MALSCHED_EXPECTS(canonical_completions.size() == form.permutation.size());
  std::vector<double> completions(canonical_completions.size(), 0.0);
  for (std::size_t j = 0; j < canonical_completions.size(); ++j) {
    completions[form.permutation[j]] =
        form.time_scale * canonical_completions[j];
  }
  return completions;
}

}  // namespace malsched::service
