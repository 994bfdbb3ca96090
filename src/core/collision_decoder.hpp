// Choir's multi-user collision decoder (paper Secs. 4-6).
//
// Given a capture containing K coarsely time-synchronized colliding LoRa
// frames (same spreading factor) and the sample index of the receiver's
// window grid anchor, the decoder:
//   1. estimates each user's aggregate offset and channel from the collided
//      preamble (OffsetEstimator: greedy-joint residual-minimizing
//      estimation that subsumes the phased SIC of Sec. 5.2),
//   2. splits each aggregate offset into CFO and timing via the SFD
//      down-chirps and validates the pairing on early data windows,
//   3. demodulates the frame's data windows (the first interleaver block,
//      then as far as the longest length header among the users declares)
//      with per-user fold-aware matched templates and in-window successive
//      cancellation; the *fractional* offsets keep peaks attributable to
//      users (the key insight of Sec. 4: data shifts peaks by integers,
//      hardware offsets by fractions),
//   4. de-duplicates values split across adjacent windows by sub-symbol
//      timing offsets (inter-symbol interference, Sec. 6.1, Fig 5),
//   5. runs packet-level SIC: CRC-clean users are reconstructed over their
//      whole frame, subtracted, and the remaining users re-estimated on the
//      cleaned capture,
//   6. decodes each user's symbol stream through the LoRa codec and checks
//      its CRC.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/codec.hpp"
#include "core/offset_estimator.hpp"
#include "lora/frame.hpp"
#include "lora/params.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace choir::core {

struct DecodedUser {
  UserEstimate est;
  /// Demodulated data symbols through the frame's extent: the longest
  /// length header among the users decoded with this one.
  std::vector<std::uint32_t> symbols;
  std::vector<std::uint8_t> payload;    ///< parsed payload (if frame_ok)
  bool frame_ok = false;                ///< frame structure parsed
  bool crc_ok = false;                  ///< payload CRC passed
  coding::DecodeStats fec;
};

struct CollisionDecoderOptions {
  EstimatorOptions est{};
  /// Largest timing offset (samples) considered when splitting each user's
  /// aggregate offset into CFO and timing via the SFD.
  double max_timing_samples = 8.0;
  /// Safety cap on decoded data symbols per collision.
  std::size_t max_data_symbols = 600;
  /// Enable the Fig-5 de-duplication of ISI-split symbol values (only
  /// meaningful when timing offsets exceed isi_dedup_min_tau samples —
  /// below that the previous symbol's ghost is negligible).
  bool isi_dedup = true;
  double isi_dedup_min_tau = 8.0;
  /// Runner-up score must reach this fraction of the winner's for the ISI
  /// de-duplication rule to prefer it.
  double isi_second_ratio = 0.4;
  /// Re-decode each user with the other users' templates removed (helps
  /// when fractional offsets nearly coincide).
  bool refine_pass = true;
  /// Refine each user's timing offset on the whole packet after the first
  /// demodulation pass, then re-demodulate (the SFD alone gives only two
  /// windows of timing evidence).
  bool tau_polish = true;
  /// Packet-level SIC rounds (1 = single decode, no cancellation loop).
  int packet_sic_rounds = 4;
};

/// Per-attempt diagnostics filled by decode(), consumed by the
/// observability decode-event log (src/obs/event_log.hpp).
struct DecodeDiag {
  /// User hypotheses produced by the first estimation pass (peak count
  /// after SNR gating) — the stage where undetected users are lost.
  std::size_t peak_count = 0;
  /// Packet-level SIC rounds actually executed (<= packet_sic_rounds).
  int sic_rounds = 0;
};

class CollisionDecoder {
 public:
  explicit CollisionDecoder(const lora::PhyParams& phy,
                            const CollisionDecoderOptions& opt = {});

  const lora::PhyParams& phy() const { return phy_; }

  /// Decodes all discernible users. `start` anchors the receiver's symbol
  /// window grid at the (beacon-synchronized) collision start; individual
  /// users may lead/lag it by their sub-symbol timing offsets. `diag`,
  /// when non-null, receives per-attempt stage diagnostics. `trace`, when
  /// non-null, collects per-stage spans (estimation, each SIC round) for
  /// the frame-trace subsystem (src/obs/trace.hpp).
  std::vector<DecodedUser> decode(const cvec& rx, std::size_t start,
                                  DecodeDiag* diag = nullptr,
                                  obs::TraceCollector* trace = nullptr) const;

  /// Like decode(), but also subtracts every decoded user's reconstructed
  /// signal from `rx` in the time domain — used to strip in-range users
  /// before hunting for below-noise sensor teams (Sec. 7.2).
  std::vector<DecodedUser> decode_and_subtract(cvec& rx,
                                               std::size_t start) const;

 private:
  std::vector<cvec> dechirped_windows(const cvec& rx, std::size_t start,
                                      std::size_t count, bool up) const;

  /// Splits each user's aggregate offset into CFO and timing using the SFD
  /// down-chirp windows (fills timing_samples / cfo_bins in place).
  void estimate_timing(const cvec& rx, std::size_t start,
                       std::vector<UserEstimate>& users) const;

  /// Per-window symbol extraction: fold-aware matched filtering per user
  /// with in-window successive cancellation (strongest user first).
  /// `peak_positions` are the window's FFT peak positions (chirp bins),
  /// used to shortlist candidate symbols; pass empty to scan exhaustively.
  std::vector<std::uint32_t> extract_window_symbols(
      const cvec& dechirped, const std::vector<UserEstimate>& users,
      const std::vector<double>& peak_positions,
      std::vector<std::uint32_t>& prev_symbols) const;

  /// FFT peak positions (chirp bins) of a dechirped window.
  std::vector<double> window_peak_positions(const cvec& dechirped,
                                            std::size_t max_peaks) const;

  /// Single estimation+demodulation pass (no packet-level SIC).
  std::vector<DecodedUser> decode_once(const cvec& rx, std::size_t start,
                                       obs::TraceCollector* trace) const;

  /// Subtracts the given users' full reconstructed frames from `rx`.
  void subtract_users(cvec& rx, std::size_t start,
                      const std::vector<DecodedUser>& users) const;

  void subtract_window(cvec& rx, std::size_t wstart,
                       const std::vector<double>& positions, bool up) const;

  lora::PhyParams phy_;
  CollisionDecoderOptions opt_;
  OffsetEstimator estimator_;
  cvec downchirp_;
  cvec upchirp_;
};

}  // namespace choir::core
