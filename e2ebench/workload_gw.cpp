// gw_sparse and gw_collide: wideband IQ -> GatewayRuntime -> make_uplink /
// CHOU over UDP loopback -> UdpIngestServer -> NetServer accept callback.
//
// Inputs are a fixed, seed-derived set of captures (at most 256 frames
// each, so every frame carries its own compact-header device and FCnt 0).
// Each capture runs through a fresh gateway and netserver, exactly as one
// choir_gateway --uplink-dest invocation would: push every chunk, stop(),
// forward the CRC-clean events, then wait until the server has classified
// every forwarded frame. The run repeats the capture set until --seconds
// have passed (at least one full pass) and checks that every repeat
// decodes the identical frame set.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "channel/collision.hpp"
#include "gateway/channelizer.hpp"
#include "gateway/gateway.hpp"
#include "gateway/traffic.hpp"
#include "lora/frame.hpp"
#include "net/server.hpp"
#include "net/udp.hpp"
#include "net/uplink.hpp"
#include "obs/trace.hpp"
#include "rt/streaming.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace choir;

namespace {

constexpr std::size_t kChannels = 8;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kChunk = 1 << 16;  // choir_gateway's default --chunk
constexpr std::size_t kPayload = 8;

struct Truth {
  std::size_t channel = 0;
  std::vector<std::uint8_t> payload;
  double end_s = 0.0;  ///< end of the frame's air time in the capture
  int k = 1;           ///< collision size of its slot
};

struct Capture {
  cvec samples;
  double rate_hz = 0.0;
  std::vector<Truth> truth;
  double air_s() const { return static_cast<double>(samples.size()) / rate_hz; }
};

// Per-workload input shape: SF, number of captures, and per capture the
// frames per channel (gw_sparse) or collision slots per channel
// (gw_collide). Many short captures give many per-capture samples.
struct Spec {
  int sf = 7;
  std::size_t captures = 12;
  std::size_t per_channel = 16;
};

Spec spec_for(bool collide) { return collide ? Spec{8, 20, 2} : Spec{7, 16, 10}; }

lora::PhyParams phy_for(int sf) {
  lora::PhyParams p;
  p.sf = sf;
  return p;
}

double frame_s(const lora::PhyParams& phy) {
  return static_cast<double>(phy.preamble_len + phy.sfd_len +
                             lora::frame_symbol_count(kPayload, phy)) *
         phy.symbol_duration_s();
}

// upconvert_channels zero-pads every channel to a power-of-two length, so
// a capture can carry up to twice its content in silent tail. Cut it eight
// symbols after the last frame ends: the offered air time then tracks the
// traffic, not the padding.
void trim_tail(Capture& cap, const lora::PhyParams& phy) {
  double end_s = 0.0;
  for (const auto& t : cap.truth) end_s = std::max(end_s, t.end_s);
  const auto keep = static_cast<std::size_t>(
      (end_s + 8.0 * phy.symbol_duration_s()) * cap.rate_hz);
  if (keep < cap.samples.size()) cap.samples.resize(keep);
}

// Same-channel traffic with no collisions: generate_traffic with device
// headers.
Capture make_sparse(std::uint64_t seed) {
  gateway::TrafficConfig tc;
  tc.phy = phy_for(7);
  tc.n_channels = kChannels;
  tc.frames_per_channel = spec_for(false).per_channel;
  tc.payload_bytes = kPayload;
  tc.stamp_device_headers = true;
  tc.seed = seed;
  gateway::WidebandCapture wc = gateway::generate_traffic(tc);
  Capture cap;
  cap.samples = std::move(wc.samples);
  cap.rate_hz = wc.sample_rate_hz;
  const double fs = frame_s(tc.phy);
  for (auto& f : wc.frames) {
    cap.truth.push_back({f.channel, std::move(f.payload), f.start_s + fs, 1});
  }
  trim_tail(cap, tc.phy);
  return cap;
}

// Frame-aligned k-user collisions, concentrated on a few channels: every
// slot on channels 0-1 carries k = 3 users, on channels 2-3 k = 2, on the
// rest a single user (fixed per channel, so every seed offers the same
// collision mix and frame count).
// Rendered per channel with channel::render_collision, then upconverted
// with gateway::upconvert_channels and AWGN at the wideband rate, the
// same conventions generate_traffic uses.
Capture make_collide(std::uint64_t seed) {
  const std::size_t slots = spec_for(true).per_channel;
  const lora::PhyParams phy = phy_for(8);
  const double sym_s = phy.symbol_duration_s();
  const double fs = frame_s(phy);
  channel::OscillatorModel osc;
  Rng rng(seed);
  Capture cap;
  std::vector<cvec> basebands(kChannels);
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    std::vector<channel::TxInstance> txs;
    double t = rng.uniform(2.0, 6.0) * sym_s;
    for (std::size_t s = 0; s < slots; ++s) {
      const int k = ch < 2 ? 3 : ch < 4 ? 2 : 1;
      for (int u = 0; u < k; ++u) {
        channel::TxInstance tx;
        tx.phy = phy;
        tx.payload.resize(kPayload);
        const std::size_t ordinal = cap.truth.size();
        tx.payload[0] = static_cast<std::uint8_t>(ordinal & 0xFF);
        tx.payload[1] = static_cast<std::uint8_t>((ordinal >> 8) & 0xFF);
        tx.payload[2] = static_cast<std::uint8_t>((ordinal >> 16) & 0xFF);
        for (std::size_t b = 3; b < kPayload; ++b)
          tx.payload[b] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        tx.hw = channel::DeviceHardware::sample(osc, rng);
        tx.snr_db = rng.uniform(15.0, 20.0);
        tx.fading.kind = channel::FadingKind::kNone;
        tx.extra_delay_s = t;
        cap.truth.push_back({ch, tx.payload, t + fs, k});
        txs.push_back(std::move(tx));
      }
      t += fs + rng.exponential(24.0 * sym_s);
    }
    channel::RenderOptions ropt;
    ropt.osc = osc;
    ropt.add_noise = false;
    ropt.tail_s = 4.0 * sym_s;
    basebands[ch] = channel::render_collision(txs, ropt, rng).samples;
  }
  cap.samples = gateway::upconvert_channels(basebands);
  cap.rate_hz = phy.sample_rate_hz() * static_cast<double>(kChannels);
  const double variance = static_cast<double>(kChannels);
  for (auto& s : cap.samples) s += rng.cgaussian(variance);
  trim_tail(cap, phy);
  return cap;
}

// Renders the capture set on up to four threads (input generation is not
// measured; the renderers are thread-safe).
std::vector<Capture> make_inputs(const RunOptions& o, bool collide,
                                 std::size_t count) {
  std::vector<Capture> caps(count);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min<std::size_t>(4, count); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < caps.size(); i = next++) {
        const std::uint64_t s = mix_seed(o.seed, (collide ? 200 : 100) + i);
        caps[i] = collide ? make_collide(s) : make_sparse(s);
      }
    });
  }
  for (auto& t : pool) t.join();
  return caps;
}

gateway::GatewayConfig gateway_config(bool collide) {
  gateway::GatewayConfig cfg;
  cfg.phy = phy_for(spec_for(collide).sf);
  cfg.sfs = {spec_for(collide).sf};
  cfg.n_channels = kChannels;
  cfg.n_workers = kWorkers;
  return cfg;
}

net::NetServerConfig server_config() {
  net::NetServerConfig c;
  c.keep_feed = false;  // the accept callback is the sink
  return c;
}

// Everything one capture needs to be served: netserver, its UDP ingest
// front end, the gateway's uplink socket and the gateway runtime.
struct Stack {
  struct Accept {
    std::size_t channel;
    std::vector<std::uint8_t> payload;
    std::uint32_t dev;
    std::uint32_t fcnt;
    double at_us;
  };
  net::NetServer server;
  std::mutex mu;
  std::vector<Accept> accepts;
  std::unique_ptr<net::UdpIngestServer> udp;
  std::unique_ptr<net::UdpUplinkSender> sender;
  gateway::GatewayRuntime gw;

  explicit Stack(bool collide)
      : server(server_config()), gw(gateway_config(collide)) {
    server.set_callback([this](const net::UplinkFrame& f) {
      const double t = now_us();
      std::lock_guard<std::mutex> lk(mu);
      accepts.push_back({f.channel, f.payload, f.dev_addr, f.fcnt, t});
    });
    udp = std::make_unique<net::UdpIngestServer>(server, 0);
    sender = std::make_unique<net::UdpUplinkSender>("127.0.0.1", udp->port());
  }
};

// What one capture's pass produced.
struct CaptureRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double mem_mb = 0.0;  ///< peak RSS growth while serving the capture
  std::uint64_t forwarded = 0;
  std::uint64_t classified = 0;
  std::uint64_t double_accepts = 0;
  std::uint64_t truth_accepted = 0;
  std::uint64_t crc_fail = 0;
  std::uint64_t unmatched = 0;   ///< CRC-ok events matching no transmitter
  std::uint64_t matched_events = 0;
  std::uint64_t events = 0;
  std::uint64_t decode_attempts = 0;
  std::size_t queue_high_water = 0;
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> by_k;  // k -> (accepted, total)
  std::vector<double> latency_us;
  std::uint64_t frame_set_hash = 0;
};

std::uint64_t hash_events(const std::vector<gateway::GatewayEvent>& evs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const auto& e : evs) {
    mix(e.channel);
    mix(e.stream_offset);
    mix(e.user.crc_ok ? 1 : 0);
    mix(net::fnv1a64(e.user.payload.data(), e.user.payload.size()));
  }
  return h;
}

CaptureRun run_capture(const Capture& cap, bool collide) {
  Span cap_span("gw.capture");
  // Each capture starts from a trimmed heap, like a fresh choir_gateway
  // process, so its peak RSS growth is a sample of its own.
  ::malloc_trim(0);
  const double base_mb = rss_mb();
  reset_peak_rss();
  std::unique_ptr<Stack> st;
  {
    Span s("gateway.setup");
    st = std::make_unique<Stack>(collide);
  }
  CaptureRun r;
  const std::size_t n_chunks = (cap.samples.size() + kChunk - 1) / kChunk;
  std::vector<double> pushed_us(n_chunks, 0.0);

  const double cpu0 = process_cpu_s();
  const double t0 = now_us();
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t at = c * kChunk;
    const std::size_t end = std::min(cap.samples.size(), at + kChunk);
    cvec chunk(cap.samples.begin() + static_cast<std::ptrdiff_t>(at),
               cap.samples.begin() + static_cast<std::ptrdiff_t>(end));
    {
      Span s("gateway.push");
      st->gw.push(chunk);
    }
    pushed_us[c] = now_us();
  }
  std::vector<gateway::GatewayEvent> events;
  {
    Span s("gateway.stop");
    events = st->gw.stop();
  }
  std::vector<net::UplinkFrame> uplinks;
  {
    Span s("backhaul.make_uplink");
    for (const auto& ev : events) {
      if (!ev.user.crc_ok) continue;
      net::UplinkFrame f = net::make_uplink(
          ev.user.payload, static_cast<float>(ev.user.est.snr_db),
          static_cast<float>(ev.user.est.cfo_bins),
          static_cast<float>(ev.user.est.timing_samples), ev.gateway_id,
          static_cast<std::uint16_t>(ev.channel),
          static_cast<std::uint8_t>(ev.sf), ev.stream_offset);
      if (ev.trace_id != 0) {
        f.trace_id = ev.trace_id;
        f.emitted_unix_us = obs::unix_now_us();
      }
      uplinks.push_back(std::move(f));
    }
  }
  {
    Span s("backhaul.send");
    st->sender->send(uplinks);
  }
  r.forwarded = uplinks.size();
  {
    // Completion is the accept callback, never the CHOA ack: wait until
    // the server has classified every forwarded frame.
    Span s("net.await_classified");
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (st->server.stats().uplinks < r.forwarded &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const double cpu1 = process_cpu_s();
  const double t_done = now_us();
  r.mem_mb = peak_rss_mb() - base_mb;
  r.classified = st->server.stats().uplinks;
  const auto gc = st->gw.counters();
  r.decode_attempts = gc.decode_attempts;
  r.queue_high_water = gc.max_queue_high_water();
  st->udp->stop();

  std::vector<Stack::Accept> accepts;
  {
    std::lock_guard<std::mutex> lk(st->mu);
    accepts = st->accepts;
  }
  double last_accept = t0;
  for (const auto& a : accepts) last_accept = std::max(last_accept, a.at_us);
  r.wall_s = ((accepts.empty() ? t_done : last_accept) - t0) / 1e6;
  r.cpu_s = cpu1 - cpu0;
  r.events = events.size();
  r.frame_set_hash = hash_events(events);

  // Truth-matched scoring by (channel, payload).
  std::map<std::pair<std::size_t, std::vector<std::uint8_t>>, std::size_t> index;
  for (std::size_t i = 0; i < cap.truth.size(); ++i) {
    index[{cap.truth[i].channel, cap.truth[i].payload}] = i;
    auto& bk = r.by_k[cap.truth[i].k];
    ++bk.second;
  }
  for (const auto& ev : events) {
    if (!ev.user.crc_ok) {
      ++r.crc_fail;
      continue;
    }
    if (index.count({ev.channel, ev.user.payload})) ++r.matched_events;
    else ++r.unmatched;
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::vector<bool> delivered(cap.truth.size(), false);
  for (const auto& a : accepts) {
    if (!seen.insert({a.dev, a.fcnt}).second) ++r.double_accepts;
    const auto it = index.find({a.channel, a.payload});
    if (it == index.end() || delivered[it->second]) continue;
    delivered[it->second] = true;
    const Truth& t = cap.truth[it->second];
    ++r.truth_accepted;
    ++r.by_k[t.k].first;
    const auto c = std::min(n_chunks - 1,
                            static_cast<std::size_t>(t.end_s * cap.rate_hz) / kChunk);
    r.latency_us.push_back(a.at_us - pushed_us[c]);
  }
  return r;
}

// Sums of CaptureRun fields over many captures.
struct Totals {
  double wall_s = 0.0, cpu_s = 0.0, air_s = 0.0;
  std::uint64_t truth = 0, forwarded = 0, classified = 0, double_accepts = 0;
  std::uint64_t truth_accepted = 0, crc_fail = 0, unmatched = 0;
  std::uint64_t matched_events = 0, events = 0, decode_attempts = 0;
  std::size_t queue_high_water = 0;
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> by_k;
  std::vector<std::uint64_t> hashes;
  std::vector<double> mem_mb;  ///< per capture run

  void add(const CaptureRun& r, const Capture& cap) {
    mem_mb.push_back(r.mem_mb);
    wall_s += r.wall_s;
    cpu_s += r.cpu_s;
    air_s += cap.air_s();
    truth += cap.truth.size();
    forwarded += r.forwarded;
    classified += r.classified;
    double_accepts += r.double_accepts;
    truth_accepted += r.truth_accepted;
    crc_fail += r.crc_fail;
    unmatched += r.unmatched;
    matched_events += r.matched_events;
    events += r.events;
    decode_attempts += r.decode_attempts;
    queue_high_water = std::max(queue_high_water, r.queue_high_water);
    for (const auto& [k, v] : r.by_k) {
      by_k[k].first += v.first;
      by_k[k].second += v.second;
    }
    hashes.push_back(r.frame_set_hash);
  }
};

void print_score(const char* label, const Totals& t) {
  std::printf("# %s: %llu truth frames, %llu delivered, %llu missed, "
              "false alarms %llu (crc-fail %llu, crc-ok unmatched %llu)\n",
              label, static_cast<unsigned long long>(t.truth),
              static_cast<unsigned long long>(t.truth_accepted),
              static_cast<unsigned long long>(t.truth - t.truth_accepted),
              static_cast<unsigned long long>(t.crc_fail + t.unmatched),
              static_cast<unsigned long long>(t.crc_fail),
              static_cast<unsigned long long>(t.unmatched));
  for (const auto& [k, v] : t.by_k) {
    std::printf("#   k=%d: %llu/%llu delivered\n", k,
                static_cast<unsigned long long>(v.first),
                static_cast<unsigned long long>(v.second));
  }
}

// Gate: every forwarded CRC-clean frame classified exactly once, none
// accepted twice, and every repeat of a capture decodes the same set.
void gate(Result& res, const Totals& t, const std::vector<std::uint64_t>& ref) {
  res.attempted += t.forwarded;
  const std::uint64_t unclassified =
      t.forwarded > t.classified ? t.forwarded - t.classified : 0;
  res.failed += unclassified + t.double_accepts;
  if (unclassified > 0)
    res.fail(std::to_string(unclassified) + " forwarded frames never classified");
  if (t.double_accepts > 0)
    res.fail(std::to_string(t.double_accepts) + " frames accepted twice");
  for (std::size_t i = 0; i < t.hashes.size(); ++i) {
    if (t.hashes[i] != ref[i % ref.size()]) {
      res.fail("decoded frame set differs between repeats of capture " +
               std::to_string(i % ref.size()));
      break;
    }
  }
}

// Every capture is served one or more times, and its repeats do the same
// work (the gate checks it), so its fastest repeat is the one least
// disturbed by other load on the shared host. The end-to-end figures are
// sums over the whole capture set, each capture counted once: its least
// CPU and least wall over its repeats, delivery and false alarms from the
// first pass. Latency is per capture, from its fastest repeat: the median
// capture's p50 and the median capture's p99 (all accepts of a capture
// land after stop(), so pooling frames over captures would make p99 the
// slowest capture's wall).
void report_end_to_end(Result& res, const std::vector<Capture>& caps,
                       const std::vector<std::vector<CaptureRun>>& runs,
                       const Totals& all, const Totals& first) {
  double air_s = 0.0, wall_s = 0.0, cpu_s = 0.0;
  std::vector<double> p50_us, p99_us;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const CaptureRun* fastest = &runs[i][0];
    double cpu = runs[i][0].cpu_s;
    for (const auto& r : runs[i]) {
      if (r.wall_s < fastest->wall_s) fastest = &r;
      cpu = std::min(cpu, r.cpu_s);
    }
    air_s += caps[i].air_s();
    wall_s += fastest->wall_s;
    cpu_s += cpu;
    if (fastest->latency_us.empty()) continue;
    p50_us.push_back(quantile(fastest->latency_us, 0.5));
    p99_us.push_back(quantile(fastest->latency_us, 0.99));
  }
  const double truth = static_cast<double>(first.truth);
  set_end_to_end(res, median(all.mem_mb),
                 static_cast<double>(first.truth_accepted) / cpu_s, air_s / wall_s,
                 static_cast<double>(first.truth_accepted) / truth,
                 static_cast<double>(first.crc_fail + first.unmatched) / truth,
                 cpu_s * 1e6 / truth, median(p50_us), median(p99_us));
}

// Standalone re-timing of the gateway's layers on the same capture: the
// channelizer alone, then every (channel, SF) streaming receiver alone on
// the channelizer's output, chunk for chunk as the runtime feeds it.
struct Standalone {
  double air_s = 0.0;
  double channelize_s = 0.0;
  double receivers_s = 0.0;
  std::vector<double> worker_s = std::vector<double>(kWorkers, 0.0);
};

void standalone(const Capture& cap, bool collide, Standalone& out) {
  const gateway::GatewayConfig cfg = gateway_config(collide);
  out.air_s += cap.air_s();
  gateway::Channelizer chz(kChannels, cfg.channelizer);
  std::vector<std::vector<cvec>> chunks(kChannels);
  {
    Span s("standalone.gateway.channelize");
    const auto t0 = Clock::now();
    std::vector<cvec> scratch;
    for (std::size_t at = 0; at < cap.samples.size(); at += kChunk) {
      const std::size_t end = std::min(cap.samples.size(), at + kChunk);
      cvec chunk(cap.samples.begin() + static_cast<std::ptrdiff_t>(at),
                 cap.samples.begin() + static_cast<std::ptrdiff_t>(end));
      for (auto& c : scratch) c.clear();
      chz.push(chunk, scratch);
      for (std::size_t ch = 0; ch < kChannels; ++ch) {
        if (!scratch[ch].empty()) chunks[ch].push_back(scratch[ch]);
      }
    }
    out.channelize_s += since_s(t0);
  }
  // Pipelines are created channel-major, one per (channel, SF), and
  // assigned round-robin to workers: pipeline p runs on worker p % N.
  std::size_t p = 0;
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    for (int sf : cfg.sfs) {
      lora::PhyParams phy = cfg.phy;
      phy.sf = sf;
      rt::StreamingOptions sopt = cfg.streaming;
      sopt.obs_channel = static_cast<int>(ch);
      std::size_t frames = 0;
      rt::StreamingReceiver rx(phy, sopt,
                               [&frames](const rt::FrameEvent&) { ++frames; });
      Span s("standalone.rt.pipeline");
      const auto t0 = Clock::now();
      for (const auto& c : chunks[ch]) rx.push(c);
      rx.flush();
      const double dt = since_s(t0);
      out.receivers_s += dt;
      out.worker_s[p % kWorkers] += dt;
      ++p;
    }
  }
}

void report_per_layer(Result& res, const Totals& t, const Totals& untraced,
                      const obs::RegistrySnapshot& snap, const Standalone& sa) {
  const double air_ms = t.air_s * 1e3;
  const double sa_air_ms = sa.air_s * 1e3;
  const double truth = static_cast<double>(t.truth);
  Tracer& tr = Tracer::get();
  res.set("gateway.channelize_us_per_air_ms", sa.channelize_s * 1e6 / sa_air_ms, "us/air-ms");
  res.set("gateway.push_s", tr.total_ms("gateway.push") / 1e3, "s");
  res.set("gateway.stop_s", tr.total_ms("gateway.stop") / 1e3, "s");
  res.set("gateway.queue_high_water", static_cast<double>(t.queue_high_water), "count");
  double wmax = 0.0, wsum = 0.0;
  for (double w : sa.worker_s) {
    wmax = std::max(wmax, w);
    wsum += w;
  }
  res.set("gateway.worker_skew", wsum > 0 ? wmax / (wsum / kWorkers) : 0.0, "ratio");

  const auto scan = obs_hist(snap, "rt.scan.us");
  const auto dec = obs_hist(snap, "core.decode.us");
  res.set("rt.receiver_us_per_air_ms", sa.receivers_s * 1e6 / sa_air_ms, "us/air-ms");
  res.set("rt.scan_s", (scan.sum - dec.sum) / 1e6, "s");
  res.set("rt.decode_attempts_per_frame", static_cast<double>(t.decode_attempts) / truth, "1/frame");

  res.set("core.decode_s", dec.sum / 1e6, "s");
  res.set("core.decode_ms_p50", dec.p50 / 1e3, "ms");
  res.set("core.decode_ms_p99", dec.p99 / 1e3, "ms");
  res.set("core.estimate_s", obs_hist(snap, "core.estimate.us").sum / 1e6, "s");
  res.set("core.residual_evals_per_frame",
          static_cast<double>(obs_counter(snap, "core.residual.evals")) / truth, "1/frame");
  res.set("core.sic_rounds_per_decode",
          dec.count ? static_cast<double>(obs_counter(snap, "core.decode.sic_rounds")) /
                          static_cast<double>(dec.count)
                    : 0.0,
          "1/decode");
  const auto users = obs_hist(snap, "core.decode.users");
  res.set("core.users_per_decode_p50", users.p50, "users");
  res.set("core.users_per_decode_p99", users.p99, "users");
  res.set("core.useful_user_ratio",
          t.events ? static_cast<double>(t.matched_events) / static_cast<double>(t.events) : 0.0,
          "ratio");

  const auto fft = obs_hist(snap, "dsp.fft.us");
  res.set("dsp.fft_s", fft.sum / 1e6, "s");
  res.set("dsp.fft_calls_per_air_ms", static_cast<double>(fft.count) / air_ms, "1/air-ms");
  res.set("dsp.dechirp_windows_per_air_ms",
          static_cast<double>(obs_counter(snap, "dsp.dechirp.windows")) / air_ms, "1/air-ms");
  res.set("dsp.workspace_allocs",
          static_cast<double>(obs_counter(snap, "dsp.workspace.allocs")), "count");

  res.set("lora.crc_fail_per_frame", static_cast<double>(t.crc_fail) / truth, "1/frame");

  res.set("score.delivered", static_cast<double>(t.truth_accepted), "frames");
  res.set("score.missed", static_cast<double>(t.truth - t.truth_accepted), "frames");
  res.set("score.false_alarm_crc_fail", static_cast<double>(t.crc_fail), "frames");
  res.set("score.false_alarm_unmatched", static_cast<double>(t.unmatched), "frames");
  for (int k = 1; k <= 3; ++k) {
    const auto it = t.by_k.find(k);
    const double ratio =
        it == t.by_k.end() || it->second.second == 0
            ? 0.0
            : static_cast<double>(it->second.first) / static_cast<double>(it->second.second);
    res.set("score.delivery_k" + std::to_string(k), ratio, "ratio");
  }
  res.set("trace.overhead_pct", (t.cpu_s - untraced.cpu_s) / untraced.cpu_s * 100.0, "%");
}

}  // namespace

double setup_gw(const RunOptions& /*o*/, bool collide) {
  const auto t0 = Clock::now();
  Stack st(collide);
  return since_s(t0);
}

Result run_gw(const RunOptions& o, bool collide) {
  const char* name = collide ? "gw_collide" : "gw_sparse";
  const auto t_gen = Clock::now();
  // A traced run serves the first half of the capture set three times
  // (untraced, traced, layer by layer), so it stays within the time limit.
  const std::size_t n_caps = spec_for(collide).captures / (o.trace ? 2 : 1);
  const std::vector<Capture> caps = make_inputs(o, collide, n_caps);
  double air = 0.0;
  for (const auto& c : caps) air += c.air_s();
  std::printf("# %s: %zu captures, %.1f air-s, rendered in %.2f s\n", name,
              caps.size(), air, since_s(t_gen));

  Result res;
  const auto t_start = Clock::now();
  std::vector<std::uint64_t> ref;  // per-capture frame-set hash, first pass
  Totals first;
  std::vector<std::vector<CaptureRun>> runs(caps.size());  // by capture
  for (std::size_t i = 0; i < caps.size(); ++i) {
    CaptureRun r = run_capture(caps[i], collide);
    std::printf("# %s capture %zu: %zu truth, %llu delivered, %llu crc-fail, "
                "%llu unmatched, %.2f air-s, %.2f wall-s, %.2f core-s\n",
                name, i, caps[i].truth.size(),
                static_cast<unsigned long long>(r.truth_accepted),
                static_cast<unsigned long long>(r.crc_fail),
                static_cast<unsigned long long>(r.unmatched), caps[i].air_s(),
                r.wall_s, r.cpu_s);
    first.add(r, caps[i]);
    ref.push_back(r.frame_set_hash);
    runs[i].push_back(std::move(r));
  }
  print_score(name, first);

  if (!o.trace) {
    // Keep cycling the capture set until the run's time is spent.
    Totals all = first;
    for (std::size_t i = 0; since_s(t_start) < o.seconds; ++i) {
      const Capture& cap = caps[i % caps.size()];
      CaptureRun r = run_capture(cap, collide);
      all.add(r, cap);
      runs[i % caps.size()].push_back(std::move(r));
    }
    gate(res, all, ref);
    std::printf("# %s: %zu capture runs, %.1f air-s in %.2f wall-s, %.2f core-s\n",
                name, all.hashes.size(), all.air_s, all.wall_s, all.cpu_s);
    report_end_to_end(res, caps, runs, all, first);
    return res;
  }

  // Traced run: the untraced first pass above is the overhead baseline;
  // repeat the pass with spans on, read the obs instruments for it, then
  // re-time each layer standalone on the same inputs.
  init_per_layer(res);
  Tracer::get().enable(o.seed);
  obs::registry().reset_values();
  Totals traced;
  for (const auto& cap : caps) traced.add(run_capture(cap, collide), cap);
  const obs::RegistrySnapshot snap = obs::registry().snapshot();
  // Standalone receivers run serially; two captures bound their cost.
  Standalone sa;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, caps.size()); ++i)
    standalone(caps[i], collide, sa);
  gate(res, first, ref);
  gate(res, traced, ref);
  report_per_layer(res, traced, first, snap, sa);
  return res;
}

}  // namespace e2e
