#include "dsp/fold_tone.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/simd/simd.hpp"
#include "dsp/workspace.hpp"

namespace choir::dsp {

cplx tone_dft(const cvec& window, double freq_bins) {
  const std::size_t n = window.size();
  const cplx step = cis(-kTwoPi * freq_bins / static_cast<double>(n));
  return simd::active().phasor_dot(window.data(), n, cplx{1.0, 0.0}, step);
}

namespace {

struct FoldGeometry {
  std::size_t n0;    ///< first sample covered by the template
  std::size_t fold;  ///< first sample after the fold (clamped to [n0, N])
  cplx jump;         ///< segment-B phase factor e^{j*2*pi*tau}
};

FoldGeometry geometry(std::size_t n, double lambda, double tau,
                      std::uint32_t d) {
  (void)lambda;
  FoldGeometry g;
  g.n0 = tau > 0.0 ? static_cast<std::size_t>(std::ceil(tau)) : 0;
  g.n0 = std::min(g.n0, n);
  const double p = static_cast<double>(n) - static_cast<double>(d) + tau;
  double pc = std::clamp(p, static_cast<double>(g.n0), static_cast<double>(n));
  g.fold = static_cast<std::size_t>(std::ceil(pc));
  g.jump = cis(kTwoPi * tau);
  return g;
}

}  // namespace

cplx fold_corr(const cvec& dechirped, double lambda, double tau,
               std::uint32_t d) {
  const std::size_t n = dechirped.size();
  const FoldGeometry g = geometry(n, lambda, tau, d);
  const double f = static_cast<double>(d) + lambda;
  const cplx step = cis(-kTwoPi * f / static_cast<double>(n));
  // Each segment starts from an exact-angle phasor (cis of the segment's
  // first index) rather than continuing the recurrence across the fold:
  // mathematically identical, slightly *less* rounding drift, and it lets
  // both segments go through the one phasor-MAC kernel.
  const auto& ops = simd::active();
  const cplx ph_a =
      cis(-kTwoPi * f * static_cast<double>(g.n0) / static_cast<double>(n));
  const cplx acc =
      ops.phasor_dot(dechirped.data() + g.n0, g.fold - g.n0, ph_a, step);
  const cplx ph_b =
      cis(-kTwoPi * f * static_cast<double>(g.fold) / static_cast<double>(n));
  const cplx acc_b =
      ops.phasor_dot(dechirped.data() + g.fold, n - g.fold, ph_b, step);
  return acc + std::conj(g.jump) * acc_b;
}

cplx fold_fit(const cvec& dechirped, double lambda, double tau,
              std::uint32_t d) {
  const std::size_t n = dechirped.size();
  const FoldGeometry g = geometry(n, lambda, tau, d);
  const double norm = static_cast<double>(n - g.n0);
  if (norm <= 0.0) return {0.0, 0.0};
  return fold_corr(dechirped, lambda, tau, d) / norm;
}

void fold_subtract(cvec& dechirped, double lambda, double tau,
                   std::uint32_t d, cplx amp) {
  const std::size_t n = dechirped.size();
  const FoldGeometry g = geometry(n, lambda, tau, d);
  const double f = static_cast<double>(d) + lambda;
  const cplx step = cis(kTwoPi * f / static_cast<double>(n));
  const auto& ops = simd::active();
  const cplx ph_a =
      cis(kTwoPi * f * static_cast<double>(g.n0) / static_cast<double>(n));
  ops.phasor_subtract(dechirped.data() + g.n0, g.fold - g.n0, amp * ph_a,
                      step);
  const cplx ph_b =
      cis(kTwoPi * f * static_cast<double>(g.fold) / static_cast<double>(n));
  ops.phasor_subtract(dechirped.data() + g.fold, n - g.fold,
                      amp * g.jump * ph_b, step);
}

namespace {

// Streaming best/runner-up tracker over candidate symbols. Allocation-free:
// callers feed candidates one at a time (from any source — a full 0..N-1
// sweep or a peak-derived shortlist) instead of materializing an index
// vector.
struct ArgmaxTracker {
  std::size_t n;
  double best_score = -1.0;
  std::uint32_t best_d = 0;
  double second_score = -1.0;
  std::uint32_t second_d = 0;

  void consider(std::uint32_t d, double s) {
    if (s > best_score) {
      // The old winner becomes runner-up only if it isn't this symbol's
      // immediate neighbor (its own leakage).
      if (best_score >= 0.0) {
        const std::uint32_t diff = (best_d > d ? best_d - d : d - best_d) %
                                   static_cast<std::uint32_t>(n);
        if (diff > 1 && diff < n - 1 && best_score > second_score) {
          second_score = best_score;
          second_d = best_d;
        }
      }
      best_score = s;
      best_d = d;
    } else if (s > second_score) {
      const std::uint32_t diff = (best_d > d ? best_d - d : d - best_d) %
                                 static_cast<std::uint32_t>(n);
      if (diff > 1 && diff < n - 1) {
        second_score = s;
        second_d = d;
      }
    }
  }

  FoldArgmax finish(const cvec& dechirped, double lambda, double tau) const {
    FoldArgmax best;
    best.symbol = best_d;
    best.score = best_score;
    best.amplitude = fold_fit(dechirped, lambda, tau, best_d);
    best.second = second_d;
    best.second_score = std::max(0.0, second_score);
    return best;
  }
};

}  // namespace

FoldArgmax fold_argmax(const cvec& dechirped, double lambda, double tau) {
  const std::size_t n = dechirped.size();
  ArgmaxTracker t{n};
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(n); ++d)
    t.consider(d, std::abs(fold_corr(dechirped, lambda, tau, d)));
  return t.finish(dechirped, lambda, tau);
}

FoldArgmax fold_argmax_candidates(
    const cvec& dechirped, double lambda, double tau,
    const std::vector<std::uint32_t>& candidates) {
  if (candidates.empty()) return fold_argmax(dechirped, lambda, tau);
  // Peak-derived shortlists repeat values (neighbouring peaks share their
  // +-1 bins). Correlate each distinct value once, but still feed the
  // tracker every entry in order, so the result is unchanged.
  auto& pool = DspWorkspace::tls();
  auto seen = pool.ubuf(0);
  auto seen_score = pool.rbuf(0);
  ArgmaxTracker t{dechirped.size()};
  for (std::uint32_t d : candidates) {
    const auto it = std::find(seen->begin(), seen->end(), d);
    if (it != seen->end()) {
      t.consider(d, (*seen_score)[static_cast<std::size_t>(
                        it - seen->begin())]);
      continue;
    }
    const double score = std::abs(fold_corr(dechirped, lambda, tau, d));
    seen->push_back(d);
    seen_score->push_back(score);
    t.consider(d, score);
  }
  return t.finish(dechirped, lambda, tau);
}

}  // namespace choir::dsp
