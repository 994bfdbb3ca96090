// LoRa PHY: frame building, modulation, single-user demodulation across
// SF/SNR/offset sweeps — the baseline receiver of the evaluation.
#include <gtest/gtest.h>

#include "channel/collision.hpp"
#include "channel/oscillator.hpp"
#include "lora/demodulator.hpp"
#include "lora/frame.hpp"
#include "lora/modulator.hpp"
#include "util/rng.hpp"

namespace choir::lora {
namespace {

std::vector<std::uint8_t> random_payload(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> p(n);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

TEST(PhyParams, DerivedQuantities) {
  PhyParams phy;
  phy.sf = 7;
  phy.bandwidth_hz = 125e3;
  EXPECT_EQ(phy.chips(), 128u);
  EXPECT_NEAR(phy.symbol_duration_s(), 128.0 / 125e3, 1e-12);
  EXPECT_NEAR(phy.bin_width_hz(), 125e3 / 128.0, 1e-9);
  // SF7, CR 4/5 at 125 kHz is the classic 5.47 kbps LoRa rate.
  phy.cr = 1;
  EXPECT_NEAR(phy.bit_rate_bps(), 5468.75, 0.1);
}

TEST(PhyParams, Validation) {
  PhyParams phy;
  phy.sf = 13;
  EXPECT_THROW(phy.validate(), std::invalid_argument);
  phy.sf = 7;
  phy.cr = 5;
  EXPECT_THROW(phy.validate(), std::invalid_argument);
}

TEST(Frame, SymbolsRoundTrip) {
  PhyParams phy;
  phy.sf = 8;
  Rng rng(1);
  const auto payload = random_payload(17, rng);
  const auto symbols = build_frame_symbols(payload, phy);
  const auto parsed = parse_frame_symbols(symbols, phy);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload, payload);
  EXPECT_TRUE(parsed->crc_ok);
}

TEST(Frame, TrailingGarbageIgnored) {
  PhyParams phy;
  phy.sf = 8;
  Rng rng(2);
  const auto payload = random_payload(9, rng);
  auto symbols = build_frame_symbols(payload, phy);
  for (int i = 0; i < 10; ++i)
    symbols.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 255)));
  const auto parsed = parse_frame_symbols(symbols, phy);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload, payload);
  EXPECT_TRUE(parsed->crc_ok);
}

TEST(Frame, CorruptPayloadFailsCrc) {
  PhyParams phy;
  phy.sf = 8;
  phy.cr = 1;  // detection only, no correction
  Rng rng(3);
  const auto payload = random_payload(9, rng);
  auto symbols = build_frame_symbols(payload, phy);
  symbols[6] ^= 0x3;
  const auto parsed = parse_frame_symbols(symbols, phy);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->crc_ok);
}

TEST(Frame, TooFewSymbolsReturnsNull) {
  PhyParams phy;
  phy.sf = 8;
  const std::vector<std::uint32_t> tiny(3, 0);
  EXPECT_FALSE(parse_frame_symbols(tiny, phy).has_value());
}

TEST(Frame, HeaderDeclaresTheFrameSymbolCount) {
  Rng rng(4);
  for (int sf = 6; sf <= 12; ++sf) {
    for (int cr = 1; cr <= 4; ++cr) {
      PhyParams phy;
      phy.sf = sf;
      phy.cr = cr;
      const auto block =
          static_cast<std::ptrdiff_t>(header_symbol_count(phy));
      for (std::size_t len = 0; len <= kMaxPayloadBytes; ++len) {
        const auto symbols = build_frame_symbols(random_payload(len, rng), phy);
        // The first interleaver block alone carries the length.
        const std::vector<std::uint32_t> header(symbols.begin(),
                                                symbols.begin() + block);
        const auto count = frame_symbols_from_header(header, phy);
        ASSERT_TRUE(count.has_value());
        EXPECT_EQ(*count, frame_symbol_count(len, phy))
            << "sf=" << sf << " cr=" << cr << " len=" << len;
        EXPECT_EQ(frame_symbols_from_header(symbols, phy), count);
      }
      EXPECT_FALSE(frame_symbols_from_header(
                       std::vector<std::uint32_t>(block - 1, 0), phy)
                       .has_value());
    }
  }
}

TEST(Frame, AirtimeAccounting) {
  PhyParams phy;
  phy.sf = 7;
  const double t8 = frame_airtime_s(8, phy);
  const double t64 = frame_airtime_s(64, phy);
  EXPECT_GT(t64, t8);
  const double sym = phy.symbol_duration_s();
  EXPECT_NEAR(t8 / sym,
              static_cast<double>(phy.preamble_len + phy.sfd_len +
                                  frame_symbol_count(8, phy)),
              1e-9);
}

TEST(Modulator, SampleCountMatchesSegments) {
  PhyParams phy;
  phy.sf = 8;
  Modulator mod(phy);
  Rng rng(4);
  const auto payload = random_payload(12, rng);
  const cvec wave = mod.modulate(payload);
  EXPECT_EQ(wave.size(), mod.frame_sample_count(payload.size()));
  // Unit-modulus samples (constant envelope transmitter).
  for (const auto& s : wave) EXPECT_NEAR(std::abs(s), 1.0, 1e-9);
}

TEST(Modulator, FractionalDelayShiftsEnergy) {
  PhyParams phy;
  phy.sf = 7;
  Modulator mod(phy);
  const cvec a = mod.synthesize({0x42}, 0.0);
  const cvec b = mod.synthesize({0x42}, 2.5);
  // Delayed waveform starts with silence.
  EXPECT_NEAR(std::abs(b[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(b[2]), 0.0, 1e-12);
  EXPECT_GT(std::abs(b[3]), 0.5);
  EXPECT_GT(std::abs(a[0]), 0.5);
}

struct DemodCase {
  int sf;
  double snr_db;
};

// Keeps the padding bytes out of the discovered test names.
void PrintTo(const DemodCase& c, std::ostream* os) {
  *os << "sf=" << c.sf << " snr=" << c.snr_db;
}

class DemodSweep : public ::testing::TestWithParam<DemodCase> {};

TEST_P(DemodSweep, DecodesCleanlyAcrossOffsets) {
  const auto [sf, snr] = GetParam();
  PhyParams phy;
  phy.sf = sf;
  Rng rng(static_cast<std::uint64_t>(sf * 31 + static_cast<int>(snr)));
  channel::OscillatorModel osc;
  osc.cfo_drift_hz_per_symbol = 0.0;
  Demodulator demod(phy);

  int ok = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    channel::TxInstance tx;
    tx.phy = phy;
    tx.payload = random_payload(10, rng);
    tx.hw = channel::DeviceHardware::sample(osc, rng);
    tx.snr_db = snr;
    tx.fading.kind = channel::FadingKind::kNone;
    channel::RenderOptions ropt;
    ropt.osc = osc;
    const auto cap = channel::render_collision({tx}, ropt, rng);
    const auto start =
        static_cast<std::size_t>(std::llround(cap.users[0].delay_samples));
    const DemodResult res = demod.demodulate_at(cap.samples, start);
    if (res.crc_ok && res.payload == tx.payload) ++ok;
  }
  // Above the sensitivity floor the standard receiver should be reliable.
  EXPECT_GE(ok, trials - 1) << "sf=" << sf << " snr=" << snr;
}

TEST_P(DemodSweep, LocateFindsTheFrameDemodulateDecodes) {
  const auto [sf, snr] = GetParam();
  PhyParams phy;
  phy.sf = sf;
  Rng rng(static_cast<std::uint64_t>(sf * 37 + static_cast<int>(snr)));
  channel::OscillatorModel osc;
  osc.cfo_drift_hz_per_symbol = 0.0;
  Demodulator demod(phy);
  for (int t = 0; t < 4; ++t) {
    channel::TxInstance tx;
    tx.phy = phy;
    tx.payload = random_payload(10, rng);
    tx.hw = channel::DeviceHardware::sample(osc, rng);
    tx.snr_db = snr;
    tx.fading.kind = channel::FadingKind::kNone;
    tx.extra_delay_s = 3.5 * phy.symbol_duration_s();
    channel::RenderOptions ropt;
    ropt.osc = osc;
    const auto cap = channel::render_collision({tx}, ropt, rng);
    const DemodResult res = demod.demodulate(cap.samples);
    const auto at = demod.locate(cap.samples, 0);
    ASSERT_EQ(at.has_value(), res.detected) << "trial " << t;
    if (at) {
      EXPECT_EQ(*at, res.frame_start) << "trial " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DemodSweep,
    ::testing::Values(DemodCase{7, 10.0}, DemodCase{7, 0.0},
                      DemodCase{8, 5.0}, DemodCase{9, 0.0},
                      DemodCase{10, -5.0}),
    [](const auto& info) {
      return "sf" + std::to_string(info.param.sf) + "snr" +
             std::to_string(static_cast<int>(info.param.snr_db + 100));
    });

TEST(Demod, OffsetEstimateMatchesGroundTruth) {
  PhyParams phy;
  phy.sf = 8;
  Rng rng(11);
  channel::OscillatorModel osc;
  osc.cfo_drift_hz_per_symbol = 0.0;
  channel::TxInstance tx;
  tx.phy = phy;
  tx.payload = {1, 2, 3, 4};
  tx.hw = channel::DeviceHardware::sample(osc, rng);
  tx.snr_db = 20.0;
  tx.fading.kind = channel::FadingKind::kNone;
  channel::RenderOptions ropt;
  ropt.osc = osc;
  const auto cap = channel::render_collision({tx}, ropt, rng);
  Demodulator demod(phy);
  const auto res = demod.demodulate_at(
      cap.samples,
      static_cast<std::size_t>(std::llround(cap.users[0].delay_samples)));
  double err = std::abs(res.offset_bins - cap.users[0].aggregate_offset_bins);
  err = std::min(err, 256.0 - err);
  // The window anchor absorbs the integer part of the delay, so compare
  // fractional parts only.
  EXPECT_LT(std::min(std::fmod(err, 1.0), 1.0 - std::fmod(err, 1.0)), 0.05);
}

TEST(Demod, FullDetectionPipelineFindsFrameAtUnknownPosition) {
  PhyParams phy;
  phy.sf = 8;
  Rng rng(13);
  channel::OscillatorModel osc;
  osc.cfo_drift_hz_per_symbol = 0.0;
  channel::TxInstance tx;
  tx.phy = phy;
  tx.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  tx.hw = channel::DeviceHardware::sample(osc, rng);
  tx.snr_db = 15.0;
  tx.fading.kind = channel::FadingKind::kNone;
  tx.extra_delay_s = 0.0123;  // ~6 symbols of leading noise
  channel::RenderOptions ropt;
  ropt.osc = osc;
  const auto cap = channel::render_collision({tx}, ropt, rng);
  Demodulator demod(phy);
  const auto res = demod.demodulate(cap.samples);
  EXPECT_TRUE(res.detected);
  EXPECT_TRUE(res.crc_ok);
  EXPECT_EQ(res.payload, tx.payload);
}

TEST(Demod, NoiseOnlyCaptureDetectsNothing) {
  PhyParams phy;
  phy.sf = 8;
  Rng rng(17);
  cvec noise(20 * phy.chips());
  for (auto& s : noise) s = rng.cgaussian(1.0);
  Demodulator demod(phy);
  const auto res = demod.demodulate(noise);
  EXPECT_FALSE(res.detected);
  EXPECT_FALSE(demod.locate(noise, 0).has_value());
}

TEST(Demod, StopsAtTheLengthTheHeaderDeclares) {
  PhyParams phy;
  phy.sf = 8;
  Rng rng(19);
  channel::OscillatorModel osc;
  osc.cfo_drift_hz_per_symbol = 0.0;
  channel::TxInstance tx;
  tx.phy = phy;
  tx.payload = random_payload(6, rng);
  tx.hw = channel::DeviceHardware::sample(osc, rng);
  tx.snr_db = 15.0;
  tx.fading.kind = channel::FadingKind::kNone;
  channel::RenderOptions ropt;
  ropt.osc = osc;
  ropt.tail_s = 100 * phy.symbol_duration_s();
  const auto cap = channel::render_collision({tx}, ropt, rng);
  Demodulator demod(phy);
  const auto res = demod.demodulate_at(
      cap.samples,
      static_cast<std::size_t>(std::llround(cap.users[0].delay_samples)));
  EXPECT_TRUE(res.crc_ok);
  EXPECT_EQ(res.payload, tx.payload);
  EXPECT_EQ(res.raw_symbols.size(), frame_symbol_count(6, phy));
}

}  // namespace
}  // namespace choir::lora
