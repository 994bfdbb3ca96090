// Fold-aware template correctness: the two-segment model must capture
// essentially ALL of a delayed, CFO-shifted data chirp's energy, for every
// symbol value and fractional timing offset — including the worst case
// (fold mid-window, half-sample offset) where a naive tone model loses the
// peak entirely.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/chirp.hpp"
#include "dsp/fold_tone.hpp"
#include "lora/modulator.hpp"
#include "lora/params.hpp"
#include "util/rng.hpp"

namespace choir {
namespace {

// Synthesizes one data chirp of symbol `d` delayed by tau samples with a
// CFO (bins), then dechirps the first full window on the receiver grid.
cvec dechirped_data_window(const lora::PhyParams& phy, std::uint32_t d,
                           double tau, double cfo_bins) {
  const std::size_t n = phy.chips();
  // Build a single-segment "frame": just the data chirp.
  lora::Modulator mod(phy);
  std::vector<lora::Segment> segs{{lora::SegmentKind::kData, d},
                                  {lora::SegmentKind::kData, d}};
  cvec wave = mod.synthesize_segments(segs, tau);
  const double cfo_hz = cfo_bins * phy.bin_width_hz();
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave[i] *= cis(kTwoPi * cfo_hz * static_cast<double>(i) /
                   phy.sample_rate_hz());
  }
  cvec win(wave.begin(), wave.begin() + static_cast<std::ptrdiff_t>(n));
  const cvec down = dsp::base_downchirp(n);
  dsp::dechirp(win, down);
  return win;
}

struct FoldCase {
  std::uint32_t d;
  double tau;
  double cfo_bins;
};

// Without this gtest prints the raw bytes, padding included, and the
// discovered test names change from build to build.
void PrintTo(const FoldCase& c, std::ostream* os) {
  *os << "d=" << c.d << " tau=" << c.tau << " cfo=" << c.cfo_bins;
}

class FoldToneTest : public ::testing::TestWithParam<FoldCase> {};

TEST_P(FoldToneTest, TemplateCapturesFullEnergy) {
  lora::PhyParams phy;
  phy.sf = 8;
  const FoldCase c = GetParam();
  const std::size_t n = phy.chips();
  const double lambda =
      std::fmod(std::fmod(c.cfo_bins - c.tau, 256.0) + 256.0, 256.0);
  const cvec win = dechirped_data_window(phy, c.d, c.tau, c.cfo_bins);

  const std::size_t n0 = static_cast<std::size_t>(std::ceil(c.tau));
  const double expect = static_cast<double>(n - n0);  // unit amplitude
  const double got = std::abs(dsp::fold_corr(win, lambda, c.tau, c.d));
  // The template should capture nearly all energy (small loss from the
  // sub-sample transition region at the fold itself).
  EXPECT_GT(got, 0.985 * expect)
      << "d=" << c.d << " tau=" << c.tau << " cfo=" << c.cfo_bins;
}

TEST_P(FoldToneTest, ArgmaxRecoversSymbol) {
  lora::PhyParams phy;
  phy.sf = 8;
  const FoldCase c = GetParam();
  const double lambda =
      std::fmod(std::fmod(c.cfo_bins - c.tau, 256.0) + 256.0, 256.0);
  const cvec win = dechirped_data_window(phy, c.d, c.tau, c.cfo_bins);
  const dsp::FoldArgmax r = dsp::fold_argmax(win, lambda, c.tau);
  EXPECT_EQ(r.symbol, c.d) << "tau=" << c.tau << " cfo=" << c.cfo_bins;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FoldToneTest,
    ::testing::Values(FoldCase{0, 0.0, 0.0}, FoldCase{1, 0.0, 0.3},
                      FoldCase{128, 0.5, 0.0},  // worst case: mid fold, half tau
                      FoldCase{128, 0.5, 1.7}, FoldCase{37, 2.3, -1.2},
                      FoldCase{200, 4.9, 2.0}, FoldCase{255, 1.5, -0.4},
                      FoldCase{64, 3.5, 0.9}, FoldCase{192, 0.25, -1.9},
                      FoldCase{100, 5.0, 0.0}));

TEST(FoldTone, NaiveToneModelLosesWorstCase) {
  // Sanity check that the fold-aware template is actually needed: at
  // d = N/2, tau = 0.5 the plain tone correlation collapses.
  lora::PhyParams phy;
  phy.sf = 8;
  const double tau = 0.5;
  const std::uint32_t d = 128;
  const double lambda = std::fmod(256.0 - tau, 256.0);
  const cvec win = dechirped_data_window(phy, d, tau, 0.0);
  const double naive =
      std::abs(dsp::tone_dft(win, static_cast<double>(d) + lambda - 256.0));
  const double aware = std::abs(dsp::fold_corr(win, lambda, tau, d));
  EXPECT_LT(naive, 0.2 * aware);
}

TEST(FoldTone, FitAndSubtractRemoveTheSymbol) {
  lora::PhyParams phy;
  phy.sf = 8;
  const std::uint32_t d = 77;
  const double tau = 2.6;
  const double lambda = std::fmod(256.0 + 1.4 - tau, 256.0);
  cvec win = dechirped_data_window(phy, d, tau, 1.4);
  double before = 0.0;
  for (const auto& s : win) before += std::norm(s);
  const cplx amp = dsp::fold_fit(win, lambda, tau, d);
  dsp::fold_subtract(win, lambda, tau, d, amp);
  double after = 0.0;
  for (const auto& s : win) after += std::norm(s);
  EXPECT_LT(after, 0.05 * before);
}

}  // namespace
}  // namespace choir
