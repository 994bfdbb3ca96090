#include "core/collision_decoder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/residual.hpp"
#include "dsp/chirp.hpp"
#include "obs/obs.hpp"
#include "dsp/fft.hpp"
#include "dsp/fold_tone.hpp"
#include "dsp/peaks.hpp"
#include "dsp/workspace.hpp"
#include "opt/golden.hpp"

namespace choir::core {

namespace {

double wrap(double x, double n) {
  double w = std::fmod(x, n);
  if (w < 0) w += n;
  return w;
}

double circ_dist(double a, double b, double n) {
  const double d = std::abs(wrap(a - b, n));
  return std::min(d, n - d);
}

cvec slice(const cvec& rx, std::size_t start, std::size_t n) {
  cvec out(n, cplx{0.0, 0.0});
  if (start >= rx.size()) return out;
  const std::size_t avail = std::min(n, rx.size() - start);
  std::copy(rx.begin() + static_cast<std::ptrdiff_t>(start),
            rx.begin() + static_cast<std::ptrdiff_t>(start + avail),
            out.begin());
  return out;
}

}  // namespace

CollisionDecoder::CollisionDecoder(const lora::PhyParams& phy,
                                   const CollisionDecoderOptions& opt)
    : phy_(phy),
      opt_(opt),
      estimator_(phy, opt.est),
      downchirp_(dsp::base_downchirp(phy.chips())),
      upchirp_(dsp::base_upchirp(phy.chips())) {
  phy_.validate();
}

std::vector<cvec> CollisionDecoder::dechirped_windows(const cvec& rx,
                                                      std::size_t start,
                                                      std::size_t count,
                                                      bool up) const {
  const std::size_t n = phy_.chips();
  std::vector<cvec> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    cvec w = slice(rx, start + k * n, n);
    dsp::dechirp(w, up ? downchirp_ : upchirp_);
    out.push_back(std::move(w));
  }
  return out;
}

void CollisionDecoder::estimate_timing(const cvec& rx, std::size_t start,
                                       std::vector<UserEstimate>& users) const {
  const std::size_t n = phy_.chips();
  const double dn = static_cast<double>(n);
  if (phy_.sfd_len <= 0) {
    for (auto& u : users) {
      u.timing_samples = 0.0;
      u.cfo_bins = u.offset_bins;
    }
    return;
  }
  // SFD down-chirps dechirped with the *up*-chirp put each user's tone at
  // mu = cfo + tau = lambda + 2*tau. Estimate the mu set with the same
  // joint residual refinement used on the preamble (sub-hundredth-bin
  // accuracy matters: the fold template's phase is 2*pi*tau), then match
  // mus to users globally — each user needs a feasible tau and a channel
  // magnitude consistent with its preamble estimate.
  const std::vector<cvec> sfd = dechirped_windows(
      rx, start + static_cast<std::size_t>(phy_.preamble_len) * n,
      static_cast<std::size_t>(phy_.sfd_len), /*up=*/false);

  // Probe windows (first data symbols) used to validate tau candidates:
  // the fold-aware template only matches at the user's true timing.
  const std::size_t probe_start =
      start + static_cast<std::size_t>(phy_.preamble_len + phy_.sfd_len) * n;
  std::vector<cvec> probe;
  for (std::size_t j = 0; j < 4; ++j) {
    const std::size_t ws = probe_start + j * n;
    if (ws + n > rx.size()) break;
    cvec w = slice(rx, ws, n);
    dsp::dechirp(w, downchirp_);
    probe.push_back(std::move(w));
  }

  // Estimate the unordered set of SFD tone positions with the same
  // greedy-joint (RELAX) machinery used for the preamble — with many users
  // the mus crowd into a few bins and per-user comb scans cross-lock.
  EstimatorOptions sopt = estimator_.options();
  sopt.skip_first_window = false;
  sopt.refine_windows = phy_.sfd_len;
  sopt.max_users = users.size() + 3;
  sopt.min_user_snr_db = -8.0;
  std::vector<UserEstimate> mu_set;
  try {
    mu_set = OffsetEstimator(phy_, sopt).estimate(sfd);
  } catch (const std::exception&) {
    mu_set.clear();
  }

  // Candidate symbol values for validation come from each probe window's
  // FFT peaks (peak position ~ d + lambda), keeping validation O(peaks)
  // instead of O(N^2).
  std::vector<std::vector<double>> probe_peaks;
  {
    auto& pool = dsp::DspWorkspace::tls();
    const std::size_t fft_len = n * opt_.est.oversample;
    auto spec = pool.cbuf(fft_len);
    auto mag = pool.rbuf(fft_len);
    auto scratch = pool.rbuf(fft_len);
    auto pk = pool.peaks();
    for (const cvec& w : probe) {
      dsp::fft_padded_into(w, fft_len, *spec);
      dsp::magnitude_into(*spec, *mag);
      dsp::PeakFindOptions popt;
      popt.threshold = 2.5 * dsp::noise_floor_mag(*mag, *scratch);
      popt.min_separation = 0.5 * static_cast<double>(opt_.est.oversample);
      popt.max_peaks = 2 * users.size() + 6;
      dsp::find_peaks_mag(*spec, *mag, popt, *pk);
      std::vector<double> pos;
      pos.reserve(pk->size());
      for (const dsp::Peak& p : *pk) {
        pos.push_back(p.bin / static_cast<double>(opt_.est.oversample));
      }
      probe_peaks.push_back(std::move(pos));
    }
  }
  auto validation_score = [&](const UserEstimate& u, double tau) {
    double acc = 0.0;
    for (std::size_t pi = 0; pi < probe.size(); ++pi) {
      std::vector<std::uint32_t> ds;
      for (double p : probe_peaks[pi]) {
        const double sym = std::round(wrap(p - u.offset_bins, dn));
        ds.push_back(static_cast<std::uint32_t>(wrap(sym, dn)));
      }
      acc += dsp::fold_argmax_candidates(probe[pi], u.offset_bins, tau, ds)
                 .score;
    }
    return acc;
  };

  // For each user: candidates are every feasible mu from the jointly
  // estimated SFD tone set, plus the local maxima of the user's own comb
  // scan (insurance against tones the joint estimate missed). The probe
  // data windows arbitrate — the fold-aware template only matches at the
  // true timing.
  for (std::size_t ui = 0; ui < users.size(); ++ui) {
    std::vector<double> cands;
    for (const UserEstimate& m : mu_set) {
      double delta = wrap(m.offset_bins - users[ui].offset_bins, dn);
      if (delta > dn / 2.0) delta -= dn;
      const double tau = delta / 2.0;
      // Symmetric feasibility: the window anchor itself can be late by a
      // fraction of a symbol (streaming detection grids), which shows up
      // as a negative effective timing offset.
      if (tau >= -opt_.max_timing_samples && tau <= opt_.max_timing_samples)
        cands.push_back(tau);
    }
    {
      constexpr double kStep = 0.25;
      std::vector<double> taus, mags;
      for (double tau = -opt_.max_timing_samples;
           tau <= opt_.max_timing_samples; tau += kStep) {
        const double mu = wrap(users[ui].offset_bins + 2.0 * tau, dn);
        double acc = 0.0;
        for (const cvec& w : sfd) acc += std::abs(dsp::tone_dft(w, mu));
        taus.push_back(tau);
        mags.push_back(acc);
      }
      const double top = *std::max_element(mags.begin(), mags.end());
      for (std::size_t i = 0; i < taus.size(); ++i) {
        const bool local_max = (i == 0 || mags[i] >= mags[i - 1]) &&
                               (i + 1 == taus.size() || mags[i] > mags[i + 1]);
        if (!local_max || mags[i] < 0.4 * top) continue;
        bool dup = false;
        for (double c : cands) {
          if (std::abs(c - taus[i]) < 0.3) {
            dup = true;
            break;
          }
        }
        if (!dup) cands.push_back(taus[i]);
      }
    }
    double best_tau = cands.front();
    if (cands.size() > 1 && !probe.empty()) {
      double best_score = -1.0;
      for (double tau : cands) {
        const double score = validation_score(users[ui], tau);
        if (score > best_score) {
          best_score = score;
          best_tau = tau;
        }
      }
    }
    users[ui].timing_samples = best_tau;
    users[ui].cfo_bins = users[ui].offset_bins + best_tau;
  }

  // Swap disambiguation: when user a's comb could also have produced user
  // b's SFD tone and vice versa, the candidate pick can still cross-lock
  // pairwise (same tones, swapped labels). Validate both labelings against
  // the probe windows and keep the better one.
  if (probe.empty()) return;
  const auto& fold_score = validation_score;
  for (std::size_t a = 0; a < users.size(); ++a) {
    for (std::size_t b = a + 1; b < users.size(); ++b) {
      const double mu_a = users[a].offset_bins + 2.0 * users[a].timing_samples;
      const double mu_b = users[b].offset_bins + 2.0 * users[b].timing_samples;
      auto tau_from = [&](double mu, const UserEstimate& u) {
        double delta = wrap(mu - u.offset_bins, dn);
        if (delta > dn / 2.0) delta -= dn;
        return delta / 2.0;
      };
      const double tau_ab = tau_from(mu_b, users[a]);
      const double tau_ba = tau_from(mu_a, users[b]);
      const bool swap_feasible = tau_ab >= -opt_.max_timing_samples &&
                                 tau_ab <= opt_.max_timing_samples &&
                                 tau_ba >= -opt_.max_timing_samples &&
                                 tau_ba <= opt_.max_timing_samples;
      if (!swap_feasible) continue;
      if (std::abs(tau_ab - users[a].timing_samples) < 0.05) continue;
      const double keep = fold_score(users[a], users[a].timing_samples) +
                          fold_score(users[b], users[b].timing_samples);
      const double swapped = fold_score(users[a], tau_ab) +
                             fold_score(users[b], tau_ba);
      if (swapped > keep) {
        users[a].timing_samples = tau_ab;
        users[a].cfo_bins = users[a].offset_bins + tau_ab;
        users[b].timing_samples = tau_ba;
        users[b].cfo_bins = users[b].offset_bins + tau_ba;
      }
    }
  }
}

std::vector<double> CollisionDecoder::window_peak_positions(
    const cvec& dechirped, std::size_t max_peaks) const {
  const std::size_t n = phy_.chips();
  const std::size_t fft_len = n * opt_.est.oversample;
  auto& pool = dsp::DspWorkspace::tls();
  auto spec = pool.cbuf(fft_len);
  auto mag = pool.rbuf(fft_len);
  auto scratch = pool.rbuf(fft_len);
  auto pk = pool.peaks();
  dsp::fft_padded_into(dechirped, fft_len, *spec);
  dsp::magnitude_into(*spec, *mag);
  dsp::PeakFindOptions popt;
  popt.threshold = 2.2 * dsp::noise_floor_mag(*mag, *scratch);
  popt.min_separation = 0.5 * static_cast<double>(opt_.est.oversample);
  popt.max_peaks = max_peaks;
  dsp::find_peaks_mag(*spec, *mag, popt, *pk);
  std::vector<double> pos;
  pos.reserve(pk->size());
  for (const dsp::Peak& p : *pk) {
    pos.push_back(p.bin / static_cast<double>(opt_.est.oversample));
  }
  return pos;
}

std::vector<std::uint32_t> CollisionDecoder::extract_window_symbols(
    const cvec& dechirped_in, const std::vector<UserEstimate>& users,
    const std::vector<double>& peak_positions,
    std::vector<std::uint32_t>& prev_symbols) const {
  auto& pool = dsp::DspWorkspace::tls();
  auto dechirped_lease = pool.cbuf(dechirped_in.size());
  cvec& dechirped = *dechirped_lease;
  std::copy(dechirped_in.begin(), dechirped_in.end(), dechirped.begin());
  const double dn = static_cast<double>(phy_.chips());
  // Candidate symbols per user: values implied by the window's FFT peaks
  // (plus neighbors — the fold can bias an apparent peak by a fraction of
  // a bin). An empty list makes fold_argmax_candidates scan exhaustively.
  auto cand_lease = pool.ubuf(0);
  std::vector<std::uint32_t>& cand = *cand_lease;
  auto candidates_for =
      [&](const UserEstimate& est) -> const std::vector<std::uint32_t>& {
    cand.clear();
    for (double p : peak_positions) {
      const auto base = static_cast<std::int64_t>(
          std::llround(wrap(p - est.offset_bins, dn)));
      for (std::int64_t nb = base - 1; nb <= base + 1; ++nb) {
        cand.push_back(static_cast<std::uint32_t>(
            wrap(static_cast<double>(nb), dn)));
      }
    }
    return cand;
  };
  // Strongest user first: decode, subtract its fold-aware template, move
  // on — in-window successive cancellation keeps weak users decodable next
  // to strong ones (the estimator already sorted users by magnitude).
  std::vector<std::uint32_t> symbols(users.size(), 0);
  std::vector<cplx> amps(users.size());
  auto pick = [&](std::size_t u, const cvec& w) {
    const UserEstimate& est = users[u];
    const dsp::FoldArgmax r = dsp::fold_argmax_candidates(
        w, est.offset_bins, est.timing_samples, candidates_for(est));
    std::uint32_t value = r.symbol;
    cplx amp = r.amplitude;
    if (opt_.isi_dedup && est.timing_samples > opt_.isi_dedup_min_tau &&
        !prev_symbols.empty() && value == prev_symbols[u] &&
        r.second_score > opt_.isi_second_ratio * r.score) {
      // Fig 5 rule: with a large timing offset this window's strongest
      // component can be the tail of the previous (already reported)
      // symbol; the runner-up then carries the new value.
      value = r.second;
      amp = dsp::fold_fit(w, est.offset_bins, est.timing_samples, value);
    }
    symbols[u] = value;
    amps[u] = amp;
  };

  for (std::size_t u = 0; u < users.size(); ++u) {
    pick(u, dechirped);
    dsp::fold_subtract(dechirped, users[u].offset_bins,
                       users[u].timing_samples, symbols[u], amps[u]);
  }
  // Refinement pass: re-decode each user against the residual with only
  // the *other* users subtracted. This untangles users whose fractional
  // offsets nearly coincide (first-pass biases from mutual sinc leakage).
  if (opt_.refine_pass && users.size() > 1) {
    // Only users whose fractional offsets nearly coincide with another's
    // benefit; skipping the rest saves a full matched pass.
    std::vector<bool> ambiguous(users.size(), false);
    for (std::size_t a = 0; a < users.size(); ++a) {
      for (std::size_t b = a + 1; b < users.size(); ++b) {
        double fd = std::abs((users[a].offset_bins - std::floor(users[a].offset_bins)) -
                             (users[b].offset_bins - std::floor(users[b].offset_bins)));
        fd = std::min(fd, 1.0 - fd);
        if (fd < 0.25) ambiguous[a] = ambiguous[b] = true;
      }
    }
    for (std::size_t u = 0; u < users.size(); ++u) {
      if (!ambiguous[u]) continue;
      // Add this user's pass-1 template back in place, re-decode against
      // the residual with only the others subtracted, then subtract the
      // (possibly revised) template again. No window copy needed.
      dsp::fold_subtract(dechirped, users[u].offset_bins,
                         users[u].timing_samples, symbols[u], -amps[u]);
      pick(u, dechirped);
      dsp::fold_subtract(dechirped, users[u].offset_bins,
                         users[u].timing_samples, symbols[u], amps[u]);
    }
  }
  prev_symbols = symbols;
  return symbols;
}

std::vector<DecodedUser> CollisionDecoder::decode_once(
    const cvec& rx, std::size_t start, obs::TraceCollector* trace) const {
  const std::size_t n = phy_.chips();
  std::vector<UserEstimate> users;
  {
    CHOIR_OBS_TRACE_SPAN(trace, "core.estimate");
    const std::vector<cvec> preamble = dechirped_windows(
        rx, start, static_cast<std::size_t>(phy_.preamble_len), true);
    users = estimator_.estimate(preamble);
    if (users.empty()) return {};
    estimate_timing(rx, start, users);
  }

  std::vector<DecodedUser> out(users.size());

  // Data windows the capture holds (the last may be partial).
  const std::size_t data_start =
      start + static_cast<std::size_t>(phy_.preamble_len + phy_.sfd_len) * n;
  const std::size_t avail =
      data_start + n > rx.size() + n / 2
          ? 0
          : std::min(opt_.max_data_symbols,
                     (rx.size() + n / 2 - n - data_start) / n + 1);
  const std::size_t max_peaks = 3 * users.size() + 8;

  // Data windows are dechirped and peak-searched once, on demand: only as
  // far as the users' headers say their frames extend.
  std::vector<cvec> data_windows;
  std::vector<std::vector<double>> window_peaks;
  auto dechirp_through = [&](std::size_t count) {
    for (std::size_t j = data_windows.size(); j < std::min(count, avail);
         ++j) {
      cvec w = slice(rx, data_start + j * n, n);
      dsp::dechirp(w, downchirp_);
      window_peaks.push_back(window_peak_positions(w, max_peaks));
      data_windows.push_back(std::move(w));
    }
  };
  // One demodulation pass: the first interleaver block, then through the
  // largest frame extent any user's header declares. Windows are extracted
  // in order (the ISI rule looks at the previous window's symbols), so
  // every symbol equals what a pass over the whole capture would give.
  auto extract_frame = [&] {
    for (DecodedUser& du : out) du.symbols.clear();
    std::vector<std::uint32_t> prev;
    auto extract_through = [&](std::size_t count) {
      dechirp_through(count);
      for (std::size_t j = out[0].symbols.size();
           j < std::min(count, data_windows.size()); ++j) {
        const std::vector<std::uint32_t> syms = extract_window_symbols(
            data_windows[j], users, window_peaks[j], prev);
        for (std::size_t u = 0; u < users.size(); ++u)
          out[u].symbols.push_back(syms[u]);
      }
    };
    extract_through(lora::header_symbol_count(phy_));
    std::size_t extent = 0;
    for (const DecodedUser& du : out) {
      extent = std::max(
          extent, lora::frame_symbols_from_header(du.symbols, phy_)
                      .value_or(0));
    }
    extract_through(extent);
  };
  extract_frame();

  // Packet-level timing polish: with the pass-1 symbols fixed, each user's
  // tau is refined on the whole packet (the SFD gave only two windows of
  // evidence), then everything is re-demodulated once. The polish samples
  // every stride-th buffered window; sampled windows past the frame are
  // demodulated on their own.
  if (opt_.tau_polish && avail > 0) {
    struct Sample {
      cvec window;
      std::vector<std::uint32_t> symbols;  // per user
    };
    std::vector<Sample> samples;
    const std::size_t stride = std::max<std::size_t>(1, avail / 8);
    const std::size_t in_frame = out[0].symbols.size();
    for (std::size_t j = 0; j < avail; j += stride) {
      Sample s;
      if (j < in_frame) {
        s.window = data_windows[j];
        for (const DecodedUser& du : out) s.symbols.push_back(du.symbols[j]);
      } else {
        s.window = slice(rx, data_start + j * n, n);
        dsp::dechirp(s.window, downchirp_);
        std::vector<std::uint32_t> prev;
        s.symbols = extract_window_symbols(
            s.window, users, window_peak_positions(s.window, max_peaks), prev);
      }
      samples.push_back(std::move(s));
    }
    for (std::size_t u = 0; u < users.size(); ++u) {
      auto objective = [&](double tau) {
        double acc = 0.0;
        for (const Sample& s : samples) {
          acc += std::abs(dsp::fold_corr(s.window, users[u].offset_bins, tau,
                                         s.symbols[u]));
        }
        return -acc;
      };
      const opt::GoldenResult g = opt::golden_section_minimize(
          objective, users[u].timing_samples - 0.6,
          users[u].timing_samples + 0.6, 5e-3);
      users[u].timing_samples = g.x;
      users[u].cfo_bins = users[u].offset_bins + g.x;
    }
    extract_frame();
  }
  for (std::size_t u = 0; u < users.size(); ++u) out[u].est = users[u];

  for (DecodedUser& du : out) {
    const auto parsed = lora::parse_frame_symbols(du.symbols, phy_);
    if (parsed) {
      du.frame_ok = true;
      du.payload = parsed->payload;
      du.crc_ok = parsed->crc_ok;
      du.fec = parsed->fec;
    }
  }
  return out;
}

void CollisionDecoder::subtract_window(cvec& rx, std::size_t wstart,
                                       const std::vector<double>& positions,
                                       bool up) const {
  const std::size_t n = phy_.chips();
  if (wstart >= rx.size()) return;
  // De-duplicate positions that coincide (tone_matrix would be singular).
  std::vector<double> pos = positions;
  std::sort(pos.begin(), pos.end());
  pos.erase(std::unique(pos.begin(), pos.end(),
                        [n](double a, double b) {
                          return circ_dist(a, b, static_cast<double>(n)) <
                                 0.05;
                        }),
            pos.end());
  if (pos.empty()) return;

  cvec w = slice(rx, wstart, n);
  dsp::dechirp(w, up ? downchirp_ : upchirp_);
  cvec h;
  try {
    h = fit_channels(w, pos);
  } catch (const std::runtime_error&) {
    return;  // singular fit: skip this window
  }
  const cvec model = reconstruct_tones(pos, h, n);
  const cvec& carrier = up ? upchirp_ : downchirp_;
  const std::size_t avail = std::min(n, rx.size() - wstart);
  for (std::size_t i = 0; i < avail; ++i) {
    rx[wstart + i] -= model[i] * carrier[i];
  }
}

std::vector<DecodedUser> CollisionDecoder::decode(
    const cvec& rx, std::size_t start, DecodeDiag* diag,
    obs::TraceCollector* trace) const {
  CHOIR_OBS_TIMED_SCOPE_T("core.decode.us", trace);
  // Packet-level SIC: strip CRC-clean users from the capture and give the
  // rest another chance with the interference gone.
  cvec work = rx;
  std::vector<DecodedUser> finished;
  std::vector<DecodedUser> losers;
  const int rounds = std::max(1, opt_.packet_sic_rounds);
  int rounds_run = 0;
  std::size_t first_pass_users = 0;
  for (int round = 0; round < rounds; ++round) {
    ++rounds_run;
    CHOIR_OBS_TRACE_SPAN(trace, "core.sic.round");
    std::vector<DecodedUser> decoded = decode_once(work, start, trace);
    if (round == 0) first_pass_users = decoded.size();
    std::vector<DecodedUser> winners;
    losers.clear();
    for (DecodedUser& du : decoded) {
      if (du.crc_ok) {
        winners.push_back(std::move(du));
      } else {
        losers.push_back(std::move(du));
      }
    }
    if (!winners.empty()) subtract_users(work, start, winners);
    for (DecodedUser& w : winners) finished.push_back(std::move(w));
    if (winners.empty() || losers.empty()) break;
  }
  for (DecodedUser& l : losers) finished.push_back(std::move(l));

  CHOIR_OBS_COUNT("core.decode.sic_rounds", static_cast<std::uint64_t>(rounds_run));
  CHOIR_OBS_HIST_COUNTS("core.decode.users", static_cast<double>(finished.size()));
  for (const DecodedUser& du : finished) {
    if (du.crc_ok) {
      CHOIR_OBS_COUNT("core.decode.crc_ok", 1);
    } else if (du.frame_ok) {
      CHOIR_OBS_COUNT("core.decode.crc_fail", 1);
    } else {
      CHOIR_OBS_COUNT("core.decode.frame_fail", 1);
    }
  }
  if (diag != nullptr) {
    diag->peak_count = first_pass_users;
    diag->sic_rounds = rounds_run;
  }
  return finished;
}

void CollisionDecoder::subtract_users(
    cvec& rx, std::size_t start, const std::vector<DecodedUser>& users) const {
  if (users.empty()) return;
  const std::size_t n = phy_.chips();
  const double dn = static_cast<double>(n);

  std::vector<double> offsets;
  offsets.reserve(users.size());
  for (const DecodedUser& du : users) offsets.push_back(du.est.offset_bins);

  // Preamble windows: every user sits at its aggregate offset (the fold is
  // at the window boundary there, so the pure-tone model is accurate).
  for (int k = 0; k < phy_.preamble_len; ++k) {
    subtract_window(rx, start + static_cast<std::size_t>(k) * n, offsets,
                    true);
  }
  // SFD down-chirps: dechirping with the up-chirp puts tones at cfo + tau.
  std::vector<double> mirrored;
  mirrored.reserve(users.size());
  for (const DecodedUser& du : users) {
    mirrored.push_back(
        wrap(du.est.offset_bins + 2.0 * du.est.timing_samples, dn));
  }
  for (int k = 0; k < phy_.sfd_len; ++k) {
    subtract_window(
        rx, start + static_cast<std::size_t>(phy_.preamble_len + k) * n,
        mirrored, false);
  }
  // Data windows: fold-aware template subtraction per user.
  const std::size_t data_start =
      start + static_cast<std::size_t>(phy_.preamble_len + phy_.sfd_len) * n;
  std::size_t n_syms = 0;
  for (const DecodedUser& du : users)
    n_syms = std::max(n_syms, du.symbols.size());
  for (std::size_t j = 0; j < n_syms; ++j) {
    const std::size_t ws = data_start + j * n;
    if (ws + n > rx.size()) break;
    cvec w = slice(rx, ws, n);
    dsp::dechirp(w, downchirp_);
    cvec cleaned = w;
    for (const DecodedUser& du : users) {
      if (j >= du.symbols.size()) continue;
      const cplx amp = dsp::fold_fit(cleaned, du.est.offset_bins,
                                     du.est.timing_samples, du.symbols[j]);
      dsp::fold_subtract(cleaned, du.est.offset_bins, du.est.timing_samples,
                         du.symbols[j], amp);
    }
    // Remove (original - cleaned), re-chirped, from the capture.
    for (std::size_t i = 0; i < n; ++i) {
      rx[ws + i] -= (w[i] - cleaned[i]) * upchirp_[i];
    }
  }
}

std::vector<DecodedUser> CollisionDecoder::decode_and_subtract(
    cvec& rx, std::size_t start) const {
  const std::vector<DecodedUser> decoded = decode(rx, start);
  subtract_users(rx, start, decoded);
  return decoded;
}

}  // namespace choir::core
