#include "dsp/fft.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hpp"

namespace choir::dsp {

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t size)
    : size_(size), ops_(&simd::active()) {
  if (!is_pow2(size)) throw std::invalid_argument("FftPlan: size not pow2");
  bit_reverse_.resize(size);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < size) ++log2n;
  for (std::size_t i = 0; i < size; ++i) {
    std::size_t rev = 0;
    for (std::size_t b = 0; b < log2n; ++b)
      if (i & (std::size_t{1} << b)) rev |= std::size_t{1} << (log2n - 1 - b);
    bit_reverse_[i] = rev;
  }
  // Merged-stage (radix-4) twiddles. A merged stage combines the radix-2
  // stages of half-lengths h and 2h into one pass; for butterfly lane k it
  // needs w1 = e^{-2pi i k/(4h)} (second stage) and w2 = w1^2 (first
  // stage), stored interleaved so the inner loop reads them contiguously.
  lead_radix2_ = (log2n % 2) == 1;
  std::size_t bytes = 0;
  for (std::size_t h = lead_radix2_ ? 2 : 1; 4 * h <= size_; h *= 4)
    bytes += 2 * h;
  r4_twiddles_.reserve(bytes);
  r4_inv_twiddles_.reserve(bytes);
  for (std::size_t h = lead_radix2_ ? 2 : 1; 4 * h <= size_; h *= 4) {
    const double ang = -kTwoPi / static_cast<double>(4 * h);
    for (std::size_t k = 0; k < h; ++k) {
      const cplx w1 = cis(ang * static_cast<double>(k));
      const cplx w2 = cis(2.0 * ang * static_cast<double>(k));
      r4_twiddles_.push_back(w1);
      r4_twiddles_.push_back(w2);
      r4_inv_twiddles_.push_back(std::conj(w1));
      r4_inv_twiddles_.push_back(std::conj(w2));
    }
  }
  // Two-butterfly vector kernels (AVX2) read twiddles as pair-deinterleaved
  // blocks [w1[k], w1[k+1], w2[k], w2[k+1]]; build that layout from the
  // scalar one when the bound kernel wants it. Stage offsets are identical
  // in both layouts (2h entries per stage), so the stage loop is shared.
  use_simd_layout_ = ops_->isa == simd::Isa::kAvx2;
  if (use_simd_layout_) {
    const auto pack = [this](const cvec& src) {
      cvec out;
      out.reserve(src.size());
      std::size_t off = 0;
      for (std::size_t h = lead_radix2_ ? 2 : 1; 4 * h <= size_; h *= 4) {
        if (h == 1) {
          out.push_back(src[off]);
          out.push_back(src[off + 1]);
        } else {
          for (std::size_t k = 0; k + 2 <= h; k += 2) {
            out.push_back(src[off + 2 * k]);          // w1[k]
            out.push_back(src[off + 2 * (k + 1)]);    // w1[k+1]
            out.push_back(src[off + 2 * k + 1]);      // w2[k]
            out.push_back(src[off + 2 * (k + 1) + 1]);  // w2[k+1]
          }
        }
        off += 2 * h;
      }
      return out;
    };
    r4_simd_twiddles_ = pack(r4_twiddles_);
    r4_simd_inv_twiddles_ = pack(r4_inv_twiddles_);
  }
}

template <bool Invert>
void FftPlan::transform_radix4(cplx* d) const {
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t j = bit_reverse_[i];
    if (i < j) std::swap(d[i], d[j]);
  }
  std::size_t h = 1;
  if (lead_radix2_) {
    // Odd log2(size): one twiddle-free radix-2 stage, then merged stages.
    for (std::size_t s = 0; s < size_; s += 2) {
      const cplx u = d[s];
      const cplx v = d[s + 1];
      d[s] = u + v;
      d[s + 1] = u - v;
    }
    h = 2;
  }
  // Every merged stage runs through the kernel (and the twiddle layout)
  // bound at construction; the butterfly math itself lives in
  // simd/kernels_*.cpp with the scalar version as the oracle.
  const cvec& tw = use_simd_layout_
                       ? (Invert ? r4_simd_inv_twiddles_ : r4_simd_twiddles_)
                       : (Invert ? r4_inv_twiddles_ : r4_twiddles_);
  const auto stage = ops_->radix4_stage;
  std::size_t off = 0;
  for (; 4 * h <= size_; h *= 4) {
    stage(d, size_, h, tw.data() + off, Invert);
    off += 2 * h;
  }
  if constexpr (Invert) {
    const double inv_n = 1.0 / static_cast<double>(size_);
    for (std::size_t i = 0; i < size_; ++i) d[i] *= inv_n;
  }
}

void FftPlan::forward(cvec& data) const {
  if (data.size() != size_)
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  transform_radix4<false>(data.data());
}

void FftPlan::inverse(cvec& data) const {
  if (data.size() != size_)
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  transform_radix4<true>(data.data());
}

void FftPlan::forward_into(cplx* data) const { transform_radix4<false>(data); }
void FftPlan::inverse_into(cplx* data) const { transform_radix4<true>(data); }

const FftPlan& plan_for(std::size_t size) {
  // Steady state takes no lock: each thread memoizes the plans it has
  // already resolved in a hash map (one hash + one probe on the hot path).
  // The shared cache behind it is mutex-guarded; plans themselves are
  // immutable after construction, so handing out references across threads
  // is safe.
  thread_local std::unordered_map<std::size_t, const FftPlan*> resolved;
  const auto hit = resolved.find(size);
  if (hit != resolved.end()) return *hit->second;

  static std::mutex mu;
  static std::unordered_map<std::size_t, std::unique_ptr<FftPlan>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(size);
  if (it == cache.end()) {
    it = cache.emplace(size, std::make_unique<FftPlan>(size)).first;
  }
  resolved.emplace(size, it->second.get());
  return *it->second;
}

cvec fft_padded(const cvec& in, std::size_t out_size) {
  cvec buf;
  fft_padded_into(in, out_size, buf);
  return buf;
}

void fft_padded_into(const cvec& in, std::size_t out_size, cvec& out) {
  if (out_size < in.size())
    throw std::invalid_argument("fft_padded: out_size < input length");
  CHOIR_OBS_TIMED_SCOPE("dsp.fft.us");
  out.resize(out_size);
  std::copy(in.begin(), in.end(), out.begin());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(in.size()), out.end(),
            cplx{0.0, 0.0});
  plan_for(out_size).forward_into(out.data());
}

cvec fft(const cvec& in) {
  cvec buf = in;
  plan_for(buf.size()).forward(buf);
  return buf;
}

cvec ifft(const cvec& in) {
  cvec buf = in;
  plan_for(buf.size()).inverse(buf);
  return buf;
}

rvec magnitude(const cvec& spectrum) {
  rvec out;
  magnitude_into(spectrum, out);
  return out;
}

rvec power(const cvec& spectrum) {
  rvec out;
  power_into(spectrum, out);
  return out;
}

void magnitude_into(const cvec& spectrum, rvec& out) {
  out.resize(spectrum.size());
  simd::active().magnitude(out.data(), spectrum.data(), spectrum.size());
}

void power_into(const cvec& spectrum, rvec& out) {
  out.resize(spectrum.size());
  simd::active().power(out.data(), spectrum.data(), spectrum.size());
}

}  // namespace choir::dsp
