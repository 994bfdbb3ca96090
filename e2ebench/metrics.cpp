// Per-layer metric names and units. A traced run reports every one of them
// (0 where a workload bypasses the layer); BENCHMARK.json lists the same set.
#include "workloads.hpp"

namespace e2e {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kPerLayer[] = {
  // gateway: channelizer, worker pool, aggregator
  {"gateway.channelize_us_per_air_ms", "us/air-ms"},
  {"gateway.push_s", "s"},
  {"gateway.stop_s", "s"},
  {"gateway.queue_high_water", "count"},
  {"gateway.worker_skew", "ratio"},
  // rt: streaming receiver (preamble scan / align)
  {"rt.receiver_us_per_air_ms", "us/air-ms"},
  {"rt.scan_s", "s"},
  {"rt.decode_attempts_per_frame", "1/frame"},
  // core: collision decoder (estimate, residual search, SIC)
  {"core.decode_s", "s"},
  {"core.decode_ms_p50", "ms"},
  {"core.decode_ms_p99", "ms"},
  {"core.estimate_s", "s"},
  {"core.residual_evals_per_frame", "1/frame"},
  {"core.sic_rounds_per_decode", "1/decode"},
  {"core.users_per_decode_p50", "users"},
  {"core.users_per_decode_p99", "users"},
  {"core.useful_user_ratio", "ratio"},
  // dsp: FFT / dechirp kernels
  {"dsp.fft_s", "s"},
  {"dsp.fft_calls_per_air_ms", "1/air-ms"},
  {"dsp.dechirp_windows_per_air_ms", "1/air-ms"},
  {"dsp.workspace_allocs", "count"},
  // lora / coding: demod, CRC
  {"lora.crc_fail_per_frame", "1/frame"},
  // truth-matched scorer (gw_*)
  {"score.delivered", "frames"},
  {"score.missed", "frames"},
  {"score.false_alarm_crc_fail", "frames"},
  {"score.false_alarm_unmatched", "frames"},
  {"score.delivery_k1", "ratio"},
  {"score.delivery_k2", "ratio"},
  {"score.delivery_k3", "ratio"},
  // backhaul: net/uplink + net/udp
  {"backhaul.encode_us_per_uplink", "us"},
  {"backhaul.decode_us_per_uplink", "us"},
  {"backhaul.send_us_per_datagram", "us"},
  {"backhaul.rcvbuf_dropped", "count"},
  {"backhaul.decode_errors", "count"},
  {"backhaul.gen_late_ms_max", "ms"},
  // net: dedup, replay window, registry, ADR
  {"net.ingest_us_per_uplink", "us"},
  {"net.dedup_ratio", "ratio"},
  {"net.replay_rejected", "count"},
  // persist
  {"persist.journal_us_per_uplink", "us"},
  {"persist.checkpoint_ms", "ms"},
  {"persist.journal_bytes_per_uplink", "B"},
  // ha
  {"ha.repl_us_per_uplink", "us"},
  {"ha.lag_records_max", "count"},
  {"ha.catchup_ms", "ms"},
  {"ha.retransmits", "count"},
  {"ha.naks", "count"},
  {"ha.bootstrap_s", "s"},
  // citysim
  {"citysim.events", "count"},
  {"citysim.uplinks_offered", "count"},
  {"citysim.collided_ratio", "ratio"},
  {"citysim.net_share", "ratio"},
  {"citysim.events_per_s", "events/s"},
  // cost of the benchmark's own spans: traced vs untraced CPU
  {"trace.overhead_pct", "%"},
};

}  // namespace

void set_end_to_end(Result& r, double mem_mb, double goodput_per_core_s,
                    double rt_factor, double delivery_ratio,
                    double false_alarm_ratio, double cpu_us_per_uplink,
                    double ingest_p50_us, double ingest_p99_us) {
  r.set("mem_mb", mem_mb, "MB");
  r.set("goodput_per_core_s", goodput_per_core_s, "frames/core-s");
  r.set("rt_factor", rt_factor, "traffic-s/wall-s");
  r.set("delivery_ratio", delivery_ratio, "ratio");
  r.set("false_alarm_ratio", false_alarm_ratio, "ratio");
  r.set("cpu_us_per_uplink", cpu_us_per_uplink, "core-us");
  r.set("ingest_p50_us", ingest_p50_us, "us");
  r.set("ingest_p99_us", ingest_p99_us, "us");
}

void init_per_layer(Result& r) {
  for (const auto& d : kPerLayer) r.set(d.name, 0.0, d.unit);
}

}  // namespace e2e
