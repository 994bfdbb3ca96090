// FFT correctness: roundtrip, known transforms, Parseval, plan cache,
// and the radix-4 / radix-2 / naive-DFT equivalence suite.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <thread>

#include "dsp/fft.hpp"
#include "util/rng.hpp"

namespace choir::dsp {
namespace {

TEST(FftBasics, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1000));
}

TEST(FftBasics, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(FftBasics, RejectsNonPow2) {
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
}

TEST(Fft, DeltaTransformsToAllOnes) {
  cvec x(8, cplx{0.0, 0.0});
  x[0] = {1.0, 0.0};
  const cvec spec = fft(x);
  for (const auto& v : spec) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsOnItsBin) {
  const std::size_t n = 64;
  for (std::size_t k : {1u, 7u, 31u, 63u}) {
    cvec x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = cis(kTwoPi * static_cast<double>(k * i) / static_cast<double>(n));
    const cvec spec = fft(x);
    for (std::size_t b = 0; b < n; ++b) {
      const double expect = b == k ? static_cast<double>(n) : 0.0;
      EXPECT_NEAR(std::abs(spec[b]), expect, 1e-9) << "bin " << b;
    }
  }
}

TEST(Fft, RoundTripRestoresSignal) {
  Rng rng(7);
  for (std::size_t n : {2u, 16u, 256u, 2048u}) {
    cvec x(n);
    for (auto& v : x) v = rng.cgaussian(1.0);
    const cvec back = ifft(fft(x));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(11);
  const std::size_t n = 512;
  cvec x(n);
  for (auto& v : x) v = rng.cgaussian(1.0);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  const cvec spec = fft(x);
  double freq_energy = 0.0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6);
}

TEST(Fft, ZeroPaddingInterpolatesSpectrum) {
  const std::size_t n = 32;
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = cis(kTwoPi * 5.0 * static_cast<double>(i) / static_cast<double>(n));
  const cvec spec = fft_padded(x, 8 * n);
  // Peak should sit at fine bin 5*8 = 40 with magnitude n.
  std::size_t best = 0;
  for (std::size_t i = 1; i < spec.size(); ++i) {
    if (std::abs(spec[i]) > std::abs(spec[best])) best = i;
  }
  EXPECT_EQ(best, 40u);
  EXPECT_NEAR(std::abs(spec[best]), static_cast<double>(n), 1e-9);
}

TEST(Fft, PaddedRejectsShrinking) {
  cvec x(16);
  EXPECT_THROW(fft_padded(x, 8), std::invalid_argument);
}

// ------------------------------------------------------- equivalence suite
//
// The production radix-4 kernel is checked against two independent
// references: a plain iterative radix-2 transform, and (for small sizes) a
// direct O(n^2) DFT.

/// Textbook in-place radix-2 DIT transform (inverse scaled by 1/N).
cvec radix2_oracle(cvec x, bool invert) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  const double sign = invert ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t k = 0; k < half; ++k) {
      const cplx w = cis(sign * kTwoPi * static_cast<double>(k) /
                         static_cast<double>(len));
      for (std::size_t start = 0; start < n; start += len) {
        const cplx u = x[start + k];
        const cplx v = x[start + k + half] * w;
        x[start + k] = u + v;
        x[start + k + half] = u - v;
      }
    }
  }
  if (invert)
    for (auto& v : x) v /= static_cast<double>(n);
  return x;
}

cvec naive_dft(const cvec& x, bool invert) {
  const std::size_t n = x.size();
  const double sign = invert ? 1.0 : -1.0;
  cvec out(n, cplx{0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      out[k] += x[t] * cis(sign * kTwoPi * static_cast<double>(k * t) /
                           static_cast<double>(n));
    }
    if (invert) out[k] /= static_cast<double>(n);
  }
  return out;
}

cvec random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvec x(n);
  for (auto& v : x) v = rng.cgaussian(1.0);
  return x;
}

double rel_l2_error(const cvec& a, const cvec& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(a[i] - b[i]);
    den += std::norm(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

TEST(FftEquivalence, Radix4MatchesNaiveDft) {
  for (std::size_t n = 2; n <= 1024; n *= 2) {
    const cvec x = random_signal(n, 100 + n);
    cvec fwd = x;
    plan_for(n).forward(fwd);
    EXPECT_LT(rel_l2_error(fwd, naive_dft(x, false)), 1e-9) << "n=" << n;
    cvec inv = x;
    plan_for(n).inverse(inv);
    EXPECT_LT(rel_l2_error(inv, naive_dft(x, true)), 1e-9) << "n=" << n;
  }
}

TEST(FftEquivalence, Radix4MatchesRadix2Oracle) {
  for (std::size_t n = 2; n <= 16384; n *= 2) {
    const FftPlan& plan = plan_for(n);
    const cvec x = random_signal(n, 200 + n);
    cvec r4 = x;
    plan.forward(r4);
    EXPECT_LT(rel_l2_error(r4, radix2_oracle(x, false)), 1e-10)
        << "forward n=" << n;
    r4 = x;
    plan.inverse(r4);
    EXPECT_LT(rel_l2_error(r4, radix2_oracle(x, true)), 1e-10)
        << "inverse n=" << n;
  }
}

TEST(FftEquivalence, ForwardInverseRoundTripAllSizes) {
  for (std::size_t n = 2; n <= 16384; n *= 2) {
    const FftPlan& plan = plan_for(n);
    const cvec x = random_signal(n, 300 + n);
    cvec work = x;
    plan.forward_into(work.data());
    plan.inverse_into(work.data());
    EXPECT_LT(rel_l2_error(work, x), 1e-10) << "n=" << n;
  }
}

TEST(FftEquivalence, PaddedMatchesExplicitZeroPad) {
  for (std::size_t n : {5u, 32u, 100u, 256u}) {
    const cvec x = random_signal(n, 400 + n);
    const std::size_t padded = 4 * next_pow2(n);
    cvec manual(x);
    manual.resize(padded, cplx{0.0, 0.0});
    plan_for(padded).forward(manual);
    // Allocating and into-variant must agree with the manual zero-pad.
    const cvec a = fft_padded(x, padded);
    cvec b;
    fft_padded_into(x, padded, b);
    EXPECT_LT(rel_l2_error(a, manual), 1e-12) << "n=" << n;
    EXPECT_LT(rel_l2_error(b, manual), 1e-12) << "n=" << n;
    // Unpadded: out_size == input size is the plain transform.
    if (is_pow2(n)) {
      cvec c;
      fft_padded_into(x, n, c);
      cvec plain = x;
      plan_for(n).forward(plain);
      EXPECT_LT(rel_l2_error(c, plain), 1e-12) << "n=" << n;
    }
  }
}

// The process-wide plan cache hands out one immutable plan per size; a
// pool of threads hammering mixed sizes must agree on the plan addresses
// and produce correct transforms throughout (run under TSan in CI).
TEST(FftPlanCacheThreaded, ConcurrentLookupsShareOnePlanPerSize) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 64;
  const std::size_t sizes[] = {8, 64, 256, 1024, 4096};
  std::vector<std::array<const FftPlan*, 5>> seen(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t it = 0; it < kIters; ++it) {
        const std::size_t n = sizes[(t + it) % 5];
        const FftPlan& plan = plan_for(n);
        seen[t][(t + it) % 5] = &plan;
        cvec x(n, cplx{0.0, 0.0});
        x[it % n] = {1.0, 0.0};  // delta: spectrum is all unit-magnitude
        plan.forward(x);
        for (const auto& v : x) {
          if (std::abs(std::abs(v) - 1.0) > 1e-9) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (std::size_t s = 0; s < 5; ++s) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][s], seen[0][s]) << "size index " << s;
    }
  }
}

TEST(Fft, MagnitudeAndPower) {
  cvec spec = {{3.0, 4.0}, {0.0, -2.0}};
  const rvec mag = magnitude(spec);
  const rvec pow = power(spec);
  EXPECT_NEAR(mag[0], 5.0, 1e-12);
  EXPECT_NEAR(mag[1], 2.0, 1e-12);
  EXPECT_NEAR(pow[0], 25.0, 1e-12);
  EXPECT_NEAR(pow[1], 4.0, 1e-12);
}

}  // namespace
}  // namespace choir::dsp
