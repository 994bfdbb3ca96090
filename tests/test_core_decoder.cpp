// End-to-end Choir pipeline: offset estimation, collision decoding,
// near-far recovery, user tracking, team scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "channel/collision.hpp"
#include "core/collision_decoder.hpp"
#include "core/offset_estimator.hpp"
#include "core/team_scheduler.hpp"
#include "core/tracker.hpp"
#include "dsp/chirp.hpp"
#include "lora/frame.hpp"
#include "util/rng.hpp"

namespace choir::core {
namespace {

lora::PhyParams test_phy() {
  lora::PhyParams phy;
  phy.sf = 8;
  return phy;
}

channel::OscillatorModel quiet_osc() {
  channel::OscillatorModel osc;
  osc.cfo_drift_hz_per_symbol = 0.0;
  return osc;
}

std::vector<channel::TxInstance> make_txs(std::size_t k, double snr_lo,
                                          double snr_hi, Rng& rng,
                                          const channel::OscillatorModel& osc,
                                          std::size_t payload_len = 8) {
  std::vector<channel::TxInstance> txs(k);
  for (std::size_t i = 0; i < k; ++i) {
    txs[i].phy = test_phy();
    txs[i].payload.resize(payload_len);
    for (auto& b : txs[i].payload)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    txs[i].hw = channel::DeviceHardware::sample(osc, rng);
    txs[i].snr_db = rng.uniform(snr_lo, snr_hi);
    txs[i].fading.kind = channel::FadingKind::kNone;
  }
  return txs;
}

double circ_err(double a, double b, double n = 256.0) {
  const double d = std::abs(std::fmod(std::fmod(a - b, n) + n, n));
  return std::min(d, n - d);
}

// ------------------------------------------------------- OffsetEstimator

TEST(OffsetEstimator, RecoversBothUsersOffsets) {
  Rng rng(31);
  const auto osc = quiet_osc();
  const auto txs = make_txs(2, 15.0, 15.0, rng, osc);
  channel::RenderOptions ropt;
  ropt.osc = osc;
  const auto cap = render_collision(txs, ropt, rng);

  const std::size_t n = 256;
  const cvec down = dsp::base_downchirp(n);
  std::vector<cvec> windows;
  for (int k = 0; k < 8; ++k) {
    cvec w(cap.samples.begin() + static_cast<std::ptrdiff_t>(k * n),
           cap.samples.begin() + static_cast<std::ptrdiff_t>((k + 1) * n));
    dsp::dechirp(w, down);
    windows.push_back(std::move(w));
  }
  OffsetEstimator est(test_phy(), {});
  const auto users = est.estimate(windows);
  ASSERT_EQ(users.size(), 2u);
  for (const auto& truth : cap.users) {
    double best = 1e9;
    for (const auto& u : users) {
      best = std::min(best,
                      circ_err(u.offset_bins, truth.aggregate_offset_bins));
    }
    EXPECT_LT(best, 0.05);
  }
  // Channel magnitudes near the rendered amplitudes.
  for (const auto& u : users) {
    EXPECT_NEAR(u.magnitude, cap.users[0].amplitude,
                0.2 * cap.users[0].amplitude);
  }
}

TEST(OffsetEstimator, NearFarWeakUserRecovered) {
  // 22 dB power gap: the weak user's peak hides under the strong user's
  // sinc skirt until the strong one is modelled and removed.
  Rng rng(38);
  const auto osc = quiet_osc();
  auto txs = make_txs(2, 0.0, 0.0, rng, osc);
  txs[0].snr_db = 25.0;
  txs[1].snr_db = 3.0;
  channel::RenderOptions ropt;
  ropt.osc = osc;
  const auto cap = render_collision(txs, ropt, rng);

  const std::size_t n = 256;
  const cvec down = dsp::base_downchirp(n);
  std::vector<cvec> windows;
  for (int k = 0; k < 8; ++k) {
    cvec w(cap.samples.begin() + static_cast<std::ptrdiff_t>(k * n),
           cap.samples.begin() + static_cast<std::ptrdiff_t>((k + 1) * n));
    dsp::dechirp(w, down);
    windows.push_back(std::move(w));
  }
  OffsetEstimator est(test_phy(), {});
  const auto users = est.estimate(windows);
  ASSERT_GE(users.size(), 2u);
  EXPECT_LT(circ_err(users[0].offset_bins,
                     cap.users[0].aggregate_offset_bins),
            0.05);
  double weak_err = 1e9;
  for (const auto& u : users) {
    weak_err = std::min(weak_err, circ_err(u.offset_bins,
                                           cap.users[1].aggregate_offset_bins));
  }
  EXPECT_LT(weak_err, 0.1);
}

TEST(OffsetEstimator, NoiseOnlyFindsNothing) {
  Rng rng(41);
  std::vector<cvec> windows;
  for (int k = 0; k < 8; ++k) {
    cvec w(256);
    for (auto& s : w) s = rng.cgaussian(1.0);
    windows.push_back(std::move(w));
  }
  OffsetEstimator est(test_phy(), {});
  EXPECT_TRUE(est.estimate(windows).empty());
}

// ------------------------------------------------------- CollisionDecoder

class CollisionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CollisionSweep, DeliveryRateMeetsFloor) {
  const std::size_t k = GetParam();
  const auto osc = quiet_osc();
  std::size_t delivered = 0, total = 0;
  const int trials = 6;
  for (int t = 0; t < trials; ++t) {
    Rng rng(1000 + static_cast<std::uint64_t>(t) * 7 + k);
    const auto txs = make_txs(k, 8.0, 25.0, rng, osc);
    channel::RenderOptions ropt;
    ropt.osc = osc;
    const auto cap = render_collision(txs, ropt, rng);
    CollisionDecoder dec(test_phy());
    const auto users = dec.decode(cap.samples, 0);
    for (const auto& tx : txs) {
      ++total;
      for (const auto& du : users) {
        if (du.crc_ok && du.payload == tx.payload) {
          ++delivered;
          break;
        }
      }
    }
  }
  // Delivery floors chosen below steady-state measurements so the test is
  // robust to seed choice while still catching regressions.
  const double rate = static_cast<double>(delivered) / static_cast<double>(total);
  const double floor = k <= 2 ? 0.85 : (k <= 4 ? 0.6 : 0.3);
  EXPECT_GE(rate, floor) << "k=" << k << " rate=" << rate;
}

INSTANTIATE_TEST_SUITE_P(Users, CollisionSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(CollisionDecoder, TauEstimatesMatchGroundTruth) {
  Rng rng(53);
  const auto osc = quiet_osc();
  const auto txs = make_txs(2, 15.0, 20.0, rng, osc);
  channel::RenderOptions ropt;
  ropt.osc = osc;
  const auto cap = render_collision(txs, ropt, rng);
  CollisionDecoder dec(test_phy());
  const auto users = dec.decode(cap.samples, 0);
  ASSERT_EQ(users.size(), 2u);
  for (const auto& truth : cap.users) {
    double best = 1e9;
    for (const auto& du : users) {
      if (circ_err(du.est.offset_bins, truth.aggregate_offset_bins) < 0.1) {
        best = std::min(best,
                        std::abs(du.est.timing_samples - truth.delay_samples));
      }
    }
    EXPECT_LT(best, 0.15);
  }
}

TEST(CollisionDecoder, SubtractionCleansCapture) {
  Rng rng(59);
  const auto osc = quiet_osc();
  const auto txs = make_txs(2, 18.0, 20.0, rng, osc);
  channel::RenderOptions ropt;
  ropt.osc = osc;
  auto cap = render_collision(txs, ropt, rng);
  double before = 0.0;
  for (const auto& s : cap.samples) before += std::norm(s);
  CollisionDecoder dec(test_phy());
  cvec work = cap.samples;
  const auto users = dec.decode_and_subtract(work, 0);
  ASSERT_EQ(users.size(), 2u);
  double after = 0.0;
  for (const auto& s : work) after += std::norm(s);
  // Signal power dominates noise at 18+ dB; subtraction should remove the
  // bulk of it (residual within ~3x the noise-only energy).
  const double noise_energy = static_cast<double>(cap.samples.size());
  EXPECT_LT(after, 7.0 * noise_energy);
  EXPECT_LT(after, 0.2 * before);
}

TEST(CollisionDecoder, LargeTimingOffsetsStillDecode) {
  // Exercise the ISI handling (Sec. 6.1): offsets of tens of samples.
  Rng rng(61);
  channel::OscillatorModel osc = quiet_osc();
  osc.max_timing_offset_s = 2.5e-4;  // up to ~31 samples at 125 kHz
  auto txs = make_txs(2, 18.0, 22.0, rng, osc);
  channel::RenderOptions ropt;
  ropt.osc = osc;
  const auto cap = render_collision(txs, ropt, rng);
  CollisionDecoderOptions dopt;
  dopt.max_timing_samples = 40.0;
  CollisionDecoder dec(test_phy(), dopt);
  const auto users = dec.decode(cap.samples, 0);
  int delivered = 0;
  for (const auto& tx : txs) {
    for (const auto& du : users) {
      if (du.crc_ok && du.payload == tx.payload) {
        ++delivered;
        break;
      }
    }
  }
  EXPECT_GE(delivered, 1);
}

TEST(CollisionDecoder, NoiseTailPastTheFrameChangesNothing) {
  Rng rng(71);
  const auto osc = quiet_osc();
  const auto txs = make_txs(1, 15.0, 15.0, rng, osc);
  channel::RenderOptions ropt;
  ropt.osc = osc;
  const auto cap = render_collision(txs, ropt, rng);
  cvec tailed = cap.samples;
  Rng noise_rng(73);
  for (std::size_t i = 0; i < 400 * test_phy().chips(); ++i)
    tailed.push_back(noise_rng.cgaussian(1.0));

  CollisionDecoder dec(test_phy());
  const auto find = [&](const std::vector<DecodedUser>& users) {
    const DecodedUser* hit = nullptr;
    for (const auto& du : users)
      if (du.crc_ok && du.payload == txs[0].payload) hit = &du;
    return hit;
  };
  const auto plain = dec.decode(cap.samples, 0);
  const auto with_tail = dec.decode(tailed, 0);
  const DecodedUser* a = find(plain);
  const DecodedUser* b = find(with_tail);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Only the frame's windows are demodulated, however long the capture.
  const std::size_t frame_syms =
      lora::frame_symbol_count(txs[0].payload.size(), test_phy());
  EXPECT_EQ(a->symbols.size(), frame_syms);
  EXPECT_EQ(b->symbols.size(), frame_syms);
}

// ------------------------------------------------------------ UserTracker

TEST(Tracker, ClustersPeaksIntoDistinctUsersByFraction) {
  Rng rng(67);
  // Near-coherent sampling: raw-peak fractional tracking (Sec. 6.2) is
  // only unbiased when frac(tau) ~ 0 — see the caveat in tracker.hpp.
  channel::OscillatorModel osc = quiet_osc();
  osc.max_timing_offset_s = 1e-9;
  osc.timing_jitter_s = 0.0;
  auto txs = make_txs(2, 15.0, 15.0, rng, osc, 12);
  // Distinct link strengths: the tracker clusters on (fraction, magnitude),
  // exactly the features of Sec. 6.2.
  txs[0].snr_db = 18.0;
  txs[1].snr_db = 11.0;
  channel::RenderOptions ropt;
  ropt.osc = osc;
  const auto cap = render_collision(txs, ropt, rng);
  // Require clearly distinct fractional offsets for this test.
  const double f0 = cap.users[0].aggregate_offset_bins -
                    std::floor(cap.users[0].aggregate_offset_bins);
  const double f1 = cap.users[1].aggregate_offset_bins -
                    std::floor(cap.users[1].aggregate_offset_bins);
  double fd = std::abs(f0 - f1);
  fd = std::min(fd, 1.0 - fd);
  if (fd < 0.15) GTEST_SKIP() << "offsets collided for this seed";

  const lora::PhyParams phy = test_phy();
  UserTracker tracker(phy);
  const std::size_t data_start =
      static_cast<std::size_t>(phy.preamble_len + phy.sfd_len) * phy.chips();
  const auto obs = tracker.collect(cap.samples, data_start, 14, 4);
  ASSERT_GT(obs.size(), 10u);
  const auto assignment = tracker.cluster_users(obs, 2, rng);
  // Score only observations that plausibly belong to one of the two users
  // (collect() keeps noise/leakage peaks too, which have no right answer).
  int agree = 0, mismatch = 0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const double fi = obs[i].bin - std::floor(obs[i].bin);
    const double d0 = std::min(std::abs(fi - f0), 1.0 - std::abs(fi - f0));
    const double d1 = std::min(std::abs(fi - f1), 1.0 - std::abs(fi - f1));
    if (std::min(d0, d1) > 0.12) continue;  // not attributable
    const int want = d0 < d1 ? 0 : 1;
    // Cluster labels are arbitrary; count agreement with both labelings.
    if (assignment[i] == want) {
      ++agree;
    } else {
      ++mismatch;
    }
  }
  const int scored = agree + mismatch;
  ASSERT_GT(scored, 8);
  EXPECT_GE(std::max(agree, mismatch),
            static_cast<int>(0.75 * static_cast<double>(scored)));
}

// ---------------------------------------------------------- TeamScheduler

TEST(Scheduler, StrongSensorsGoIndividual) {
  std::vector<SensorInfo> sensors{{0, 5.0, 0, 0}, {1, -2.0, 10, 0}};
  TeamPlanOptions opt;
  opt.individual_floor_db = -7.5;
  const auto plan = plan_teams(sensors, opt);
  EXPECT_EQ(plan.individual.size(), 2u);
  EXPECT_TRUE(plan.teams.empty());
}

TEST(Scheduler, WeakSensorsFormCompactTeams) {
  std::vector<SensorInfo> sensors;
  for (std::size_t i = 0; i < 10; ++i) {
    sensors.push_back({i, -14.0, static_cast<double>(i % 3) * 10.0,
                       static_cast<double>(i / 3) * 10.0});
  }
  TeamPlanOptions opt;
  opt.individual_floor_db = -7.5;
  opt.team_target_db = -6.0;
  opt.proximity_m = 100.0;
  const auto plan = plan_teams(sensors, opt);
  EXPECT_TRUE(plan.individual.empty());
  EXPECT_FALSE(plan.teams.empty());
  for (const auto& team : plan.teams) {
    std::vector<double> snrs(team.size(), -14.0);
    EXPECT_GE(aggregate_snr_db(snrs), opt.team_target_db);
  }
}

TEST(Scheduler, IsolatedWeakSensorIsUnreachable) {
  std::vector<SensorInfo> sensors{{0, -25.0, 0.0, 0.0},
                                  {1, -25.0, 5000.0, 5000.0}};
  TeamPlanOptions opt;
  opt.team_target_db = -5.0;
  opt.proximity_m = 100.0;
  opt.max_team_size = 4;
  const auto plan = plan_teams(sensors, opt);
  EXPECT_EQ(plan.unreachable.size(), 2u);
}

TEST(Scheduler, AggregateSnrIsPowerSum) {
  EXPECT_NEAR(aggregate_snr_db({0.0, 0.0}), 3.0103, 1e-3);
  EXPECT_NEAR(aggregate_snr_db({-10.0, -10.0, -10.0, -10.0, -10.0, -10.0,
                                -10.0, -10.0, -10.0, -10.0}),
              0.0, 1e-9);
}

}  // namespace
}  // namespace choir::core
