// Standard single-user LoRa receiver.
//
// This is the baseline receiver the paper compares against: it can decode
// one transmission at a time and treats collisions as noise. Pipeline:
// preamble detection (consistent dechirped peak across consecutive
// windows), SFD-based frame alignment, aggregate offset estimation from the
// preamble (fine-grid peak average), then per-symbol argmax demodulation
// with offset subtraction, Gray/interleave/Hamming decode and CRC check.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lora/frame.hpp"
#include "lora/modulator.hpp"
#include "lora/params.hpp"
#include "util/types.hpp"

namespace choir::lora {

struct DemodOptions {
  /// Zero-padding factor of the symbol FFT (fine grid = oversample bins per
  /// chirp bin). Must be a power of two.
  std::size_t oversample = 16;
  /// Peak must exceed `detect_snr_factor * noise_floor` to count during
  /// detection.
  double detect_snr_factor = 4.0;
  /// Number of consistent consecutive windows required to call a preamble.
  int min_preamble_run = 5;
};

struct DemodResult {
  bool detected = false;       ///< a frame (preamble+SFD) was found
  bool crc_ok = false;         ///< payload passed its CRC
  std::vector<std::uint8_t> payload;
  std::vector<std::uint32_t> raw_symbols;  ///< demodulated data symbols
  double offset_bins = 0.0;    ///< aggregate CFO+TO estimate (fractional bins)
  double timing_samples = 0.0; ///< timing-offset estimate from the SFD
  double snr_db = 0.0;         ///< preamble-peak SNR estimate
  std::size_t frame_start = 0; ///< sample index of the first preamble chirp
  coding::DecodeStats fec;
};

class Demodulator {
 public:
  explicit Demodulator(const PhyParams& phy, const DemodOptions& opt = {});

  const PhyParams& phy() const { return phy_; }

  /// Detects the first frame at or after `from` and demodulates it:
  /// locate() then demodulate_at().
  DemodResult demodulate(const cvec& rx, std::size_t from = 0) const;

  /// Detects the first frame at or after `from` and aligns it on its SFD
  /// without demodulating: returns the sample index of its first preamble
  /// chirp (demodulate().frame_start), or nullopt when nothing is found.
  std::optional<std::size_t> locate(const cvec& rx, std::size_t from) const;

  /// Demodulates a frame whose preamble is known to start at `start`
  /// (within about an eighth of a symbol). Skips detection. Stops at the
  /// frame length its header declares.
  DemodResult demodulate_at(const cvec& rx, std::size_t start) const;

  /// Preamble search: returns the approximate sample index of the start of
  /// the first preamble found at or after `from` (aligned to within a
  /// symbol), or nullopt.
  std::optional<std::size_t> detect_preamble(const cvec& rx,
                                             std::size_t from) const;

  /// Estimate of the aggregate offset (bins) from `count` preamble windows
  /// starting at `start`. Exposed for the offset-characterization bench.
  double estimate_preamble_offset(const cvec& rx, std::size_t start,
                                  int count) const;

 private:
  struct WindowPeak {
    double fine_bin = 0.0;  ///< peak position in chirp bins (fractional)
    double magnitude = 0.0;
    double noise = 0.0;  ///< spectrum noise floor (magnitude)
  };

  /// Dechirp + padded FFT + max peak of one symbol window. `up` selects
  /// dechirping with the down-chirp (for up-chirp symbols) or with the
  /// up-chirp (to reveal SFD down-chirps).
  WindowPeak window_peak(const cvec& rx, std::size_t start, bool up) const;

  /// Batched window_peak over `count` windows sharing one chirp direction:
  /// dechirp + FFT + magnitude run as slab-wide passes (see
  /// dsp::dechirp_fft_mag_batch), then each row is peak-scanned. `out`
  /// must have room for `count` entries.
  void window_peaks_batch(const cvec& rx, const std::size_t* starts,
                          std::size_t count, bool up, WindowPeak* out) const;

  PhyParams phy_;
  DemodOptions opt_;
  cvec downchirp_;
  cvec upchirp_;
};

}  // namespace choir::lora
