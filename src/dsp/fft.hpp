// Iterative FFT with precomputed twiddle plans.
//
// The Choir receiver performs one dechirp + FFT per symbol window, typically
// at an oversampling (zero-padding) factor of 16 over the 2^SF symbol
// length, so plans are cached per size.
//
// Two transform kernels share each plan:
//  - the production radix-4 path: pairs of radix-2 stages merged into one
//    pass over the data, with each merged stage's twiddles stored
//    contiguously (interleaved [w, w^2] per butterfly) so the inner loop
//    streams through both the data and the twiddle table linearly;
//  - the plain radix-2 path, kept as a correctness oracle for the
//    equivalence test suite.
//
// The `*_into` entry points transform caller-provided storage in place and
// never allocate; together with DspWorkspace (workspace.hpp) they make the
// steady-state per-symbol decode loop allocation-free.
#pragma once

#include <cstddef>

#include "dsp/simd/simd.hpp"
#include "util/types.hpp"

namespace choir::dsp {

/// Returns true if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// Precomputed FFT plan for a fixed power-of-two size.
class FftPlan {
 public:
  explicit FftPlan(std::size_t size);

  FftPlan(const FftPlan&) = delete;
  FftPlan& operator=(const FftPlan&) = delete;

  std::size_t size() const { return size_; }

  /// The instruction set this plan's butterfly kernel and twiddle layout
  /// were bound to at construction (== simd::active().isa for every plan
  /// in the process — dispatch is resolved once, before the first plan, so
  /// scalar and SIMD twiddle layouts can never mix within a plan or
  /// between a plan and its kernel).
  simd::Isa isa() const { return ops_->isa; }

  /// In-place forward transform; `data.size()` must equal `size()`.
  void forward(cvec& data) const;

  /// In-place inverse transform (scaled by 1/N).
  void inverse(cvec& data) const;

  /// In-place forward transform of `size()` elements at `data`. No size
  /// check, no allocation — the zero-allocation hot-path entry point.
  void forward_into(cplx* data) const;

  /// In-place inverse transform of `size()` elements at `data` (1/N
  /// scaled).
  void inverse_into(cplx* data) const;

 private:
  template <bool Invert>
  void transform_radix4(cplx* data) const;

  std::size_t size_;
  bool lead_radix2_ = false;  ///< log2(size) odd: one plain stage first
  /// Kernel table bound at construction (simd::active() at that moment —
  /// i.e. process startup, since dispatch is resolved before any plan).
  /// The merged-stage pass goes through ops_->radix4_stage with the
  /// twiddle array whose layout matches it; see use_simd_layout_.
  const simd::Ops* ops_;
  /// True when ops_ expects the SIMD (pair-deinterleaved) twiddle layout;
  /// selects r4_simd_* over r4_* in the stage loop. Bound together with
  /// ops_ so a plan structurally cannot mix kernel and layout.
  bool use_simd_layout_ = false;
  std::vector<std::size_t> bit_reverse_;
  /// Merged-stage twiddles: for each merged stage of quarter-length h,
  /// 2h entries [w1[k], w2[k]] with w1 = e^{-2pi i k/(4h)}, w2 = w1^2.
  cvec r4_twiddles_;
  cvec r4_inv_twiddles_;
  /// The same factors packed for two-butterfly vector kernels: per pair of
  /// lanes [w1[k], w1[k+1], w2[k], w2[k+1]] (two straight vector loads per
  /// butterfly pair). Built only when the bound kernel wants it.
  cvec r4_simd_twiddles_;
  cvec r4_simd_inv_twiddles_;
};

/// Process-wide plan cache. Plans are immutable after construction and the
/// cache itself is mutex-protected, so concurrent decoders (the gateway
/// worker pool) can share it freely. Each thread memoizes its resolved
/// plans in a thread-local unordered_map, so the steady state takes no
/// lock and does one hash lookup.
///
/// Every cached plan is the per-ISA variant for this process: the plan
/// binds simd::active()'s butterfly kernel and matching twiddle layout at
/// construction, and dispatch is resolved once before the first plan, so a
/// cached (or channelizer-held) plan pointer can never pair a scalar
/// layout with a SIMD kernel or vice versa. plan.isa() reports the
/// binding.
const FftPlan& plan_for(std::size_t size);

/// Out-of-place forward FFT zero-padded to `out_size` (power of two,
/// >= in.size()). Returns the complex spectrum.
cvec fft_padded(const cvec& in, std::size_t out_size);

/// Allocation-free fft_padded: writes the spectrum into `out` (resized to
/// `out_size`; no allocation once its capacity has grown to steady state).
void fft_padded_into(const cvec& in, std::size_t out_size, cvec& out);

/// Convenience: forward FFT of exactly in.size() (must be a power of two).
cvec fft(const cvec& in);

/// Convenience: inverse FFT (power-of-two size), scaled by 1/N.
cvec ifft(const cvec& in);

/// Magnitude of each spectrum bin.
rvec magnitude(const cvec& spectrum);

/// Squared magnitude (power) of each spectrum bin.
rvec power(const cvec& spectrum);

/// Allocation-free variants writing into caller storage (resized).
void magnitude_into(const cvec& spectrum, rvec& out);
void power_into(const cvec& spectrum, rvec& out);

}  // namespace choir::dsp
