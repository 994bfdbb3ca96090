#include "rt/streaming.hpp"

#include <algorithm>
#include <memory>

#include "lora/frame.hpp"
#include "obs/obs.hpp"

namespace choir::rt {

core::CollisionDecoderOptions streaming_decoder_options(
    const lora::PhyParams& phy, const StreamingOptions& opt) {
  // Detection aligns the anchor only to within an eighth of a symbol,
  // which the decoder must absorb as (possibly negative) timing.
  auto dopt = opt.decoder;
  dopt.max_timing_samples =
      std::max(dopt.max_timing_samples,
               static_cast<double>(phy.chips()) / 8.0 + 8.0);
  return dopt;
}

std::vector<obs::DecodeUserRecord> to_decode_records(
    const std::vector<core::DecodedUser>& users) {
  std::vector<obs::DecodeUserRecord> records;
  records.reserve(users.size());
  for (std::size_t ui = 0; ui < users.size(); ++ui) {
    const core::DecodedUser& du = users[ui];
    obs::DecodeUserRecord rec;
    rec.cluster = static_cast<std::int32_t>(ui);
    rec.offset_bins = du.est.offset_bins;
    rec.cfo_bins = du.est.cfo_bins;
    rec.timing_samples = du.est.timing_samples;
    rec.snr_db = du.est.snr_db;
    rec.frame_ok = du.frame_ok;
    rec.crc_ok = du.crc_ok;
    rec.payload_bytes = static_cast<std::uint32_t>(du.payload.size());
    records.push_back(rec);
  }
  return records;
}

StreamingReceiver::StreamingReceiver(const lora::PhyParams& phy,
                                     const StreamingOptions& opt,
                                     Callback on_frame)
    : phy_(phy),
      opt_(opt),
      on_frame_(std::move(on_frame)),
      decoder_(phy, streaming_decoder_options(phy, opt)),
      detector_(phy, opt.detector) {
  phy_.validate();
  if constexpr (obs::kEnabled) {
    if (!opt_.flight.dir.empty()) {
      recorder_ = std::make_unique<obs::FlightRecorder>(
          opt_.flight, opt_.obs_channel, phy_.sf, phy_.bandwidth_hz);
    }
  }
}

void StreamingReceiver::push(const cvec& chunk) {
  CHOIR_OBS_COUNT("rt.samples_in", chunk.size());
  if constexpr (obs::kEnabled) {
    if (recorder_) recorder_->push(chunk);
  }
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
  flushed_ = false;
  // A scan cannot make progress on less than one new symbol window, and
  // re-scanning the whole buffer per pushed sample would make tiny chunks
  // quadratic — batch until a symbol's worth of samples arrived.
  unscanned_ += chunk.size();
  if (unscanned_ < phy_.chips()) return;
  unscanned_ = 0;
  scan(/*at_end=*/false);
}

void StreamingReceiver::flush() {
  if (flushed_) return;
  flushed_ = true;
  CHOIR_OBS_COUNT("rt.flushes", 1);
  unscanned_ = 0;
  scan(/*at_end=*/true);
}

void StreamingReceiver::scan(bool at_end) {
  CHOIR_OBS_TIMED_SCOPE("rt.scan.us");
  const std::size_t n = phy_.chips();
  // Longest frame we are prepared to decode, in samples.
  const std::size_t frame_span =
      (static_cast<std::size_t>(phy_.preamble_len + phy_.sfd_len) +
       lora::frame_symbol_count(opt_.max_payload_bytes, phy_)) *
      n;

  while (true) {
    double detect_t0 = 0.0;
    if constexpr (obs::kEnabled) detect_t0 = obs::trace_now_us();
    const auto found = detector_.detect_preamble(buffer_, scan_from_);
    double detect_dur = 0.0;
    if constexpr (obs::kEnabled) detect_dur = obs::trace_now_us() - detect_t0;
    if (!found) {
      // Nothing detected. A run of consecutive preamble windows that
      // straddles the buffer end only fires once its tail windows arrive,
      // so the next scan may restart just one run-length (plus the window
      // detect_preamble backs up by) before the current end instead of
      // re-scanning the whole retained history.
      const std::size_t margin =
          (static_cast<std::size_t>(opt_.detector.min_preamble_run) + 1) * n;
      scan_from_ = buffer_.size() > margin ? buffer_.size() - margin : 0;
      // Drop all but one frame-span of history (a preamble could be
      // straddling the chunk boundary).
      if (buffer_.size() > frame_span) {
        const std::size_t drop = buffer_.size() - frame_span;
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(drop));
        consumed_ += drop;
        scan_from_ -= std::min(scan_from_, drop);
      }
      return;
    }

    // Give the detected frame a little leading context.
    const std::size_t back = opt_.backtrack_symbols * n;
    const std::size_t start = *found > back ? *found - back : 0;
    if (!at_end && buffer_.size() < start + frame_span) {
      return;  // frame not fully buffered yet; wait for more samples
    }

    ++decode_attempts_;
    CHOIR_OBS_COUNT("rt.decode_attempts", 1);
    // Stage spans for this attempt accumulate in the scratch collector;
    // they become per-frame traces only if the attempt emits frames.
    obs::TraceCollector* trace = nullptr;
    if constexpr (obs::kEnabled) {
      if (opt_.trace_frames) {
        trace_scratch_.clear();
        trace_scratch_.add("rt.detect", detect_t0, detect_dur);
        trace = &trace_scratch_;
      }
    }
    // Refine alignment with the single-user pipeline (it knows how to line
    // up the SFD), then hand the anchor to the collision decoder so *all*
    // users in the pile-up are recovered.
    const std::size_t anchor = [&] {
      CHOIR_OBS_TRACE_SPAN(trace, "rt.align");
      return detector_.locate(buffer_, start).value_or(*found);
    }();
    core::DecodeDiag diag;
    obs::Clock::time_point decode_t0{};
    if constexpr (obs::kEnabled) decode_t0 = obs::Clock::now();
    const auto users = decoder_.decode(buffer_, anchor, &diag, trace);

    // The estimator occasionally splits one transmission into two nearby
    // user hypotheses that both parse to the same payload; emit each
    // payload once, preferring the CRC-clean, strongest copy.
    std::vector<const core::DecodedUser*> emit;
    for (const auto& du : users) {
      if (!du.frame_ok) continue;
      bool duplicate = false;
      for (auto& kept : emit) {
        if (kept->payload != du.payload) continue;
        duplicate = true;
        const auto rank = [](const core::DecodedUser& u) {
          return std::make_pair(u.crc_ok ? 1 : 0, u.est.snr_db);
        };
        if (rank(du) > rank(*kept)) kept = &du;
        break;
      }
      if (!duplicate) emit.push_back(&du);
    }
    std::size_t decoded_syms = 0;
    obs::TraceId first_trace = 0;
    for (const auto* du : emit) {
      FrameEvent ev;
      ev.stream_offset = consumed_ + anchor;
      ev.user = *du;
      if constexpr (obs::kEnabled) {
        if (trace != nullptr) {
          // The frame exists now: mint its trace, seeded with the stages
          // the whole attempt shared (colliding frames share the decode).
          obs::FrameTrace ft;
          ft.channel = opt_.obs_channel;
          ft.sf = phy_.sf;
          ft.stream_offset = consumed_ + anchor;
          ft.crc_ok = du->crc_ok;
          ft.stages = trace_scratch_.stages();
          ev.trace_id = obs::trace_log().begin(std::move(ft));
          obs::trace_log().add_stage(ev.trace_id, "rt.emit",
                                     obs::trace_now_us(), 0.0);
          if (first_trace == 0) first_trace = ev.trace_id;
        }
      }
      on_frame_(ev);
      if constexpr (obs::kEnabled) {
        if (ev.trace_id != 0 && !opt_.trace_completed_downstream) {
          obs::trace_log().complete(ev.trace_id);
        }
      }
      decoded_syms = std::max(
          decoded_syms, lora::frame_symbol_count(du->payload.size(), phy_));
    }
    CHOIR_OBS_COUNT("rt.frames_emitted", emit.size());

    // One structured decode event per attempt: what the estimation stage
    // saw, how every user hypothesis fared, and what was emitted.
    if constexpr (obs::kEnabled) {
      const auto records = to_decode_records(users);
      obs::DecodeEvent oev;
      oev.channel = opt_.obs_channel;
      oev.sf = phy_.sf;
      oev.stream_offset = consumed_ + anchor;
      oev.peak_count = static_cast<std::uint32_t>(diag.peak_count);
      oev.sic_rounds = static_cast<std::uint32_t>(diag.sic_rounds);
      oev.users_emitted = static_cast<std::uint32_t>(emit.size());
      oev.decode_us = obs::elapsed_us(decode_t0, obs::Clock::now());
      oev.users = records;
      obs::decode_log().record(std::move(oev));

      // Flight-recorder triggers: every failure mode is worth a capture,
      // but a CRC failure is the most specific signal, so it names the
      // file when several apply.
      if (recorder_ && recorder_->enabled()) {
        bool any_crc_fail = false;  // parsed frame, bad payload CRC
        bool any_crc_ok = false;
        for (const auto& du : users) {
          if (du.frame_ok && !du.crc_ok) any_crc_fail = true;
          if (du.crc_ok) any_crc_ok = true;
        }
        const char* reason = nullptr;
        if (opt_.flight.trigger_crc_fail && any_crc_fail) {
          reason = "crc_fail";
        } else if (opt_.flight.trigger_sic_exhausted && !users.empty() &&
                   !any_crc_ok &&
                   diag.sic_rounds >= opt_.decoder.packet_sic_rounds) {
          reason = "sic_exhausted";
        } else if (opt_.flight.trigger_decode_fail && !any_crc_ok) {
          reason = "decode_fail";
        }
        if (reason != nullptr) {
          obs::CaptureContext ctx;
          ctx.reason = reason;
          ctx.anchor = consumed_ + anchor;
          // End exactly at the decoded window's edge: replay must see the
          // same number of trailing samples the live decode saw, or its
          // window-count bounds (and therefore its diagnostics) diverge.
          ctx.stream_end = consumed_ + buffer_.size();
          ctx.trace_id = first_trace;
          ctx.peak_count = static_cast<std::uint32_t>(diag.peak_count);
          ctx.sic_rounds = static_cast<std::uint32_t>(diag.sic_rounds);
          ctx.users = records;
          // The cf32 file stores float32; the live decode ran on doubles.
          // For the sidecar to describe the *file* exactly (the
          // byte-for-byte replay contract), re-decode the window as
          // quantized — only when a capture will actually be written, so
          // the extra decode is bounded by the retention cap.
          cvec quantized;
          std::uint64_t cap_start = 0;
          if (recorder_->will_write() &&
              recorder_->extract(ctx.anchor, ctx.stream_end, &quantized,
                                 &cap_start) &&
              cap_start <= ctx.anchor) {
            core::DecodeDiag qdiag;
            const auto qusers = decoder_.decode(
                quantized,
                static_cast<std::size_t>(ctx.anchor - cap_start), &qdiag);
            ctx.peak_count = static_cast<std::uint32_t>(qdiag.peak_count);
            ctx.sic_rounds = static_cast<std::uint32_t>(qdiag.sic_rounds);
            ctx.users = to_decode_records(qusers);
          }
          if (!recorder_->trigger(ctx).empty()) {
            CHOIR_OBS_COUNT("rt.flight.captures", 1);
          }
        }
      }
    }

    // Consume through the end of this frame (collisions share the span).
    // When a user decoded, its payload tells the frame's real extent —
    // consuming the full worst-case span instead would swallow the head of
    // a closely following frame.
    const std::size_t span =
        decoded_syms > 0
            ? (static_cast<std::size_t>(phy_.preamble_len + phy_.sfd_len) +
               decoded_syms + 1) *
                  n
            : frame_span;
    const std::size_t consumed_through =
        std::min(buffer_.size(), anchor + span);
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_through));
    consumed_ += consumed_through;
    scan_from_ = 0;  // the remaining tail has not been scanned on its own
    if (at_end && buffer_.empty()) return;
    if (buffer_.size() < n) return;
  }
}

}  // namespace choir::rt
