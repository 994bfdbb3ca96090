#include "lora/demodulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "dsp/chirp.hpp"
#include "dsp/fft.hpp"
#include "dsp/fold_tone.hpp"
#include "dsp/peaks.hpp"
#include "dsp/workspace.hpp"
#include "util/db.hpp"

namespace choir::lora {

namespace {

// Circular mean of bin positions on a ring of circumference n.
double circular_mean_bins(const std::vector<double>& bins, double n) {
  double sx = 0.0, sy = 0.0;
  for (double b : bins) {
    const double th = kTwoPi * b / n;
    sx += std::cos(th);
    sy += std::sin(th);
  }
  double th = std::atan2(sy, sx);
  if (th < 0) th += kTwoPi;
  return th * n / kTwoPi;
}

double circular_diff(double a, double b, double n) {
  double d = std::fmod(a - b + n, n);
  if (d > n / 2) d -= n;
  return d;
}

}  // namespace

Demodulator::Demodulator(const PhyParams& phy, const DemodOptions& opt)
    : phy_(phy), opt_(opt) {
  phy_.validate();
  if (!dsp::is_pow2(opt_.oversample) || opt_.oversample == 0)
    throw std::invalid_argument("Demodulator: oversample not pow2");
  downchirp_ = dsp::base_downchirp(phy_.chips());
  upchirp_ = dsp::base_upchirp(phy_.chips());
}

Demodulator::WindowPeak Demodulator::window_peak(const cvec& rx,
                                                 std::size_t start,
                                                 bool up) const {
  WindowPeak wp;
  window_peaks_batch(rx, &start, 1, up, &wp);
  return wp;
}

void Demodulator::window_peaks_batch(const cvec& rx, const std::size_t* starts,
                                     std::size_t count, bool up,
                                     WindowPeak* out) const {
  const std::size_t n = phy_.chips();
  const std::size_t fft_len = n * opt_.oversample;
  auto& pool = dsp::DspWorkspace::tls();
  auto spec_slab = pool.cbuf(count * fft_len);
  auto mag_slab = pool.rbuf(count * fft_len);
  auto scratch = pool.rbuf(fft_len);
  auto peaks = pool.peaks();
  dsp::dechirp_fft_mag_batch(rx, starts, count, up ? downchirp_ : upchirp_,
                             fft_len, *spec_slab, *mag_slab);
  dsp::PeakFindOptions popt;
  popt.max_peaks = 1;
  popt.min_separation = static_cast<double>(opt_.oversample);
  for (std::size_t w = 0; w < count; ++w) {
    const cplx* spec = spec_slab->data() + w * fft_len;
    const double* mag = mag_slab->data() + w * fft_len;
    dsp::find_peaks_mag(spec, mag, fft_len, popt, *peaks);
    WindowPeak wp;
    wp.noise = dsp::noise_floor_mag(mag, fft_len, *scratch);
    if (!peaks->empty()) {
      wp.fine_bin = peaks->front().bin / static_cast<double>(opt_.oversample);
      wp.magnitude = peaks->front().magnitude;
    }
    out[w] = wp;
  }
}

double Demodulator::estimate_preamble_offset(const cvec& rx,
                                             std::size_t start,
                                             int count) const {
  const std::size_t n = phy_.chips();
  std::vector<std::size_t> starts(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k)
    starts[static_cast<std::size_t>(k)] =
        start + static_cast<std::size_t>(k) * n;
  std::vector<WindowPeak> wps(starts.size());
  window_peaks_batch(rx, starts.data(), starts.size(), /*up=*/true,
                     wps.data());
  std::vector<double> bins;
  bins.reserve(wps.size());
  for (const WindowPeak& wp : wps) bins.push_back(wp.fine_bin);
  return circular_mean_bins(bins, static_cast<double>(n));
}

DemodResult Demodulator::demodulate_at(const cvec& rx,
                                       std::size_t start) const {
  const std::size_t n = phy_.chips();
  DemodResult res;
  res.frame_start = start;

  // Aggregate offset and SNR from the preamble — all preamble windows go
  // through one batched dechirp+FFT+magnitude pass.
  std::vector<double> bins;
  double peak_mag = 0.0, noise_mag = 0.0;
  {
    const auto plen = static_cast<std::size_t>(phy_.preamble_len);
    std::vector<std::size_t> starts(plen);
    for (std::size_t k = 0; k < plen; ++k) starts[k] = start + k * n;
    std::vector<WindowPeak> wps(plen);
    window_peaks_batch(rx, starts.data(), plen, /*up=*/true, wps.data());
    for (const WindowPeak& wp : wps) {
      bins.push_back(wp.fine_bin);
      peak_mag += wp.magnitude;
      noise_mag += wp.noise;
    }
  }
  peak_mag /= phy_.preamble_len;
  noise_mag /= phy_.preamble_len;
  const double lambda = circular_mean_bins(bins, static_cast<double>(n));
  res.offset_bins = lambda;
  // Tone SNR: peak ~ N*A, noise bin variance ~ N*sigma^2 with the Rayleigh
  // median at sigma*sqrt(2 ln 2).
  const double sigma_bin = noise_mag / 1.17741;
  if (sigma_bin > 0.0) {
    res.snr_db = linear_to_db(peak_mag * peak_mag /
                              (static_cast<double>(n) * sigma_bin * sigma_bin));
  }
  res.detected = true;

  // Split the aggregate offset into CFO and timing using the SFD: the
  // down-chirps (dechirped with the up-chirp) peak at cfo + tau while the
  // preamble peaked at cfo - tau. Knowing tau lets the data demodulator
  // use the fold-aware template (see dsp/fold_tone.hpp) instead of a plain
  // tone, which would lose up to the whole peak at adverse (symbol,
  // fractional-timing) combinations.
  double tau = 0.0;
  if (phy_.sfd_len > 0) {
    double mu_acc_sin = 0.0, mu_acc_cos = 0.0;
    const auto slen = static_cast<std::size_t>(phy_.sfd_len);
    std::vector<std::size_t> starts(slen);
    for (std::size_t k = 0; k < slen; ++k)
      starts[k] =
          start + (static_cast<std::size_t>(phy_.preamble_len) + k) * n;
    std::vector<WindowPeak> wps(slen);
    window_peaks_batch(rx, starts.data(), slen, /*up=*/false, wps.data());
    for (const WindowPeak& wp : wps) {
      const double th = kTwoPi * wp.fine_bin / static_cast<double>(n);
      mu_acc_cos += std::cos(th);
      mu_acc_sin += std::sin(th);
    }
    double mu = std::atan2(mu_acc_sin, mu_acc_cos) / kTwoPi *
                static_cast<double>(n);
    if (mu < 0) mu += static_cast<double>(n);
    double delta = circular_diff(mu, lambda, static_cast<double>(n));
    tau = delta / 2.0;
    // Feasible range: beacon-synchronized clients lead/lag the window
    // anchor by at most a fraction of a symbol in either direction.
    if (std::abs(tau) > static_cast<double>(n) / 8.0) tau = 0.0;
  }
  res.timing_samples = tau;

  // Demodulate the first interleaver block, then through the length its
  // header declares (or until the capture runs out). Each window is
  // demodulated on its own, so stopping at the frame's end changes nothing
  // the parser reads.
  const std::size_t data_start =
      start + static_cast<std::size_t>(phy_.preamble_len + phy_.sfd_len) * n;
  auto win = dsp::DspWorkspace::tls().cbuf(n);
  const auto demod_through = [&](std::size_t count) {
    for (std::size_t j = res.raw_symbols.size(); j < count; ++j) {
      const std::size_t ws = data_start + j * n;
      if (ws + n > rx.size() + n / 2) return;  // allow a final partial window
      dsp::dechirp_window_into(rx, ws, downchirp_, *win);
      res.raw_symbols.push_back(dsp::fold_argmax(*win, lambda, tau).symbol);
    }
  };
  demod_through(header_symbol_count(phy_));
  if (const auto syms = frame_symbols_from_header(res.raw_symbols, phy_))
    demod_through(*syms);

  const auto parsed = parse_frame_symbols(res.raw_symbols, phy_);
  if (parsed) {
    res.payload = parsed->payload;
    res.crc_ok = parsed->crc_ok;
    res.fec = parsed->fec;
  }
  return res;
}

std::optional<std::size_t> Demodulator::detect_preamble(
    const cvec& rx, std::size_t from) const {
  const std::size_t n = phy_.chips();
  if (rx.size() < from + n) return std::nullopt;

  // Track several candidate tones at once: in a collision the per-window
  // strongest peak flips between users, so a single-run tracker never
  // accumulates. Each window contributes its top peaks; a candidate fires
  // once it persists for min_preamble_run consecutive windows.
  struct Cand {
    double bin = 0.0;
    int count = 0;
    std::size_t first_w = 0;
    std::size_t last_w = 0;
  };
  std::vector<Cand> cands;
  const std::size_t fft_len = n * opt_.oversample;
  auto& pool = dsp::DspWorkspace::tls();
  // Scan windows in batches: one slab-wide dechirp+FFT+magnitude pass per
  // kBatch windows (the batched-demod planner), then per-row peak scans.
  // A batch may run a few windows past the detection point; detection
  // still returns the first qualifying window, so results are identical
  // to the window-at-a-time scan.
  constexpr std::size_t kBatch = 8;
  auto spec_slab = pool.cbuf(kBatch * fft_len);
  auto mag_slab = pool.rbuf(kBatch * fft_len);
  auto scratch = pool.rbuf(fft_len);
  auto peaks = pool.peaks();
  std::size_t starts[kBatch];
  std::size_t next = from;
  while (next + n <= rx.size()) {
    std::size_t count = 0;
    for (; count < kBatch && next + n <= rx.size(); ++count, next += n)
      starts[count] = next;
    dsp::dechirp_fft_mag_batch(rx, starts, count, downchirp_, fft_len,
                               *spec_slab, *mag_slab);
    for (std::size_t b = 0; b < count; ++b) {
    const std::size_t w = starts[b];
    const cplx* spec = spec_slab->data() + b * fft_len;
    const double* mag = mag_slab->data() + b * fft_len;
    dsp::PeakFindOptions popt;
    popt.threshold = opt_.detect_snr_factor *
                     dsp::noise_floor_mag(mag, fft_len, *scratch);
    popt.min_separation = 1.1 * static_cast<double>(opt_.oversample);
    popt.max_peaks = 3;
    dsp::find_peaks_mag(spec, mag, fft_len, popt, *peaks);
    for (const dsp::Peak& p : *peaks) {
      const double bin = p.bin / static_cast<double>(opt_.oversample);
      bool matched = false;
      for (Cand& c : cands) {
        if (c.last_w + n == w &&
            std::abs(circular_diff(bin, c.bin, static_cast<double>(n))) <
                1.5) {
          c.bin = bin;
          c.last_w = w;
          ++c.count;
          matched = true;
          break;
        }
      }
      if (!matched) cands.push_back({bin, 1, w, w});
    }
    for (const Cand& c : cands) {
      if (c.count >= opt_.min_preamble_run) {
        // The first chirp started at most one window before the run (grid
        // misalignment).
        return c.first_w > n ? c.first_w - n : 0;
      }
    }
    std::erase_if(cands, [&](const Cand& c) { return c.last_w < w; });
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> Demodulator::locate(const cvec& rx,
                                               std::size_t from) const {
  const auto coarse = detect_preamble(rx, from);
  if (!coarse) return std::nullopt;
  const std::size_t n = phy_.chips();
  // Refine alignment: search candidate starts on an N/8 grid around the
  // coarse estimate; aligned preamble windows maximize the dechirped peak
  // and the SFD down-chirps show up exactly where expected.
  const std::size_t step = std::max<std::size_t>(1, n / 8);
  double best_score = -1.0;
  std::size_t best_start = *coarse;
  // Candidate starts step by n/8 but probe windows at start + k*n, so
  // neighboring candidates re-evaluate ~7/8 of each other's windows.
  // window_peak is pure in (window start, chirp direction) — memoize it for
  // the duration of the search (~3x fewer FFTs).
  std::unordered_map<std::size_t, WindowPeak> memo;
  const auto peak_at = [&](std::size_t at, bool up) -> const WindowPeak& {
    const std::size_t key = at * 2 + (up ? 1 : 0);
    auto it = memo.find(key);
    if (it == memo.end()) it = memo.emplace(key, window_peak(rx, at, up)).first;
    return it->second;
  };
  // In a collision the preamble run can be recognized a few windows late
  // (the strongest user's bin flips between windows and restarts the run),
  // so search generously to the left of the coarse estimate.
  const std::int64_t lo =
      std::max<std::int64_t>(0, static_cast<std::int64_t>(*coarse) -
                                    3 * static_cast<std::int64_t>(n));
  const std::int64_t hi = static_cast<std::int64_t>(*coarse + 2 * n);
  for (std::int64_t cand = lo; cand <= hi;
       cand += static_cast<std::int64_t>(step)) {
    const auto start = static_cast<std::size_t>(cand);
    double score = 0.0;
    for (int k = 0; k < phy_.preamble_len; ++k) {
      score +=
          peak_at(start + static_cast<std::size_t>(k) * n, true).magnitude;
    }
    // The preamble is self-similar under symbol shifts, so the SFD has to
    // arbitrate: at the true start the SFD window is down-chirp-dominant
    // while the last preamble window is still up-chirp-dominant. Scoring
    // (rather than hard-rejecting) keeps collisions decodable — with
    // several users the energy ordering gets noisy.
    const std::size_t sfd_at =
        start + static_cast<std::size_t>(phy_.preamble_len) * n;
    if (phy_.sfd_len > 0) {
      score += peak_at(sfd_at, false).magnitude -
               peak_at(sfd_at, true).magnitude;
      score += peak_at(sfd_at - n, true).magnitude -
               peak_at(sfd_at - n, false).magnitude;
    }
    if (score > best_score) {
      best_score = score;
      best_start = start;
    }
  }
  if (best_score < 0.0) return std::nullopt;
  return best_start;
}

DemodResult Demodulator::demodulate(const cvec& rx, std::size_t from) const {
  const auto start = locate(rx, from);
  return start ? demodulate_at(rx, *start) : DemodResult{};
}

}  // namespace choir::lora
