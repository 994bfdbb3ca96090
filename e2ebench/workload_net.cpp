// net_durable: no IQ. Pre-encoded CHOU datagrams go open loop, at a fixed
// offered rate, from one generator thread over several sockets to a
// UdpIngestServer in front of a
// NetServer that journals every classification (flush_every_records = 1)
// and replicates its journal over CHOR to an in-process StandbyServer. A
// timer thread calls checkpoint() once per kCheckpointEvery offered
// uplinks (mid-way through each block), as choir_netserver
// --snapshot-every would.
//
// Latency runs from each datagram's due time to the NetServer accept
// callback — never to the CHOA ack, which UdpIngestServer sends before it
// decodes or ingests the datagram.
#include <sys/prctl.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "net/ha/replication.hpp"
#include "net/ha/standby.hpp"
#include "net/persist/snapshot.hpp"
#include "net/server.hpp"
#include "net/udp.hpp"
#include "net/uplink.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace choir;

namespace {

constexpr std::uint32_t kDevices = 100000;
constexpr double kRatePerS = 50000.0;         // offered uplinks per second
constexpr std::size_t kRecordsPerDatagram = 8;
constexpr std::size_t kSockets = 4;
constexpr std::size_t kCheckpointEvery = 250000;
constexpr std::size_t kPayload = 12;
constexpr unsigned kReplayPct = 3;
constexpr std::size_t kStandaloneUplinks = 200000;
constexpr double kWindowS = 0.1;  // due-time window for per-window figures

// One socket's share of the schedule: its datagrams in send order, each
// with a due time (seconds from the schedule start).
struct Stream {
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::vector<double> due_s;
  std::vector<std::size_t> first_record;  ///< global record id of record 0
};

struct Schedule {
  std::vector<Stream> streams;
  std::vector<double> record_due_s;  ///< by global record id
  std::uint64_t records = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t replays = 0;
  double span_s = 0.0;
};

// Builds the offered load. Devices are split over the sockets (dev % N),
// so one device's records always travel in one ordered stream. Each
// transmission is heard by 1-3 gateways (copies with strictly rising SNR,
// so every later copy upgrades the retained one); a few percent of
// records are replays: the device's last accepted FCnt with fresh content.
// The exact expected classification is counted as the schedule is built.
Schedule make_schedule(std::uint64_t seed, std::size_t total_records,
                       std::uint32_t devices, double rate_per_s) {
  Schedule sch;
  sch.streams.resize(kSockets);
  sch.record_due_s.resize(total_records);
  const std::size_t per_stream = total_records / kSockets;
  const double stream_rate = rate_per_s / static_cast<double>(kSockets);
  for (std::size_t s = 0; s < kSockets; ++s) {
    Rng rng(mix_seed(seed, 300 + s));
    std::vector<std::uint32_t> devs;
    for (std::uint32_t d = static_cast<std::uint32_t>(s); d < devices;
         d += kSockets)
      devs.push_back(d + 1);  // DevAddr 0 is never used
    for (std::size_t i = devs.size(); i > 1; --i)
      std::swap(devs[i - 1], devs[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(i - 1)))]);
    std::vector<std::uint32_t> next_fcnt(devs.size(), 0);
    std::vector<std::int64_t> last_acc(devs.size(), -1);

    std::vector<net::UplinkFrame> frames;
    frames.reserve(per_stream);
    std::size_t cursor = 0;
    const std::size_t base = s * per_stream;
    auto add = [&](net::UplinkFrame f) {
      f.stream_offset = base + frames.size();
      frames.push_back(std::move(f));
    };
    while (frames.size() < per_stream) {
      const std::size_t di = cursor % devs.size();
      const std::uint32_t dev = devs[di];
      net::UplinkFrame f;
      f.dev_addr = dev;
      f.sf = static_cast<std::uint8_t>(7 + dev % 4);
      f.channel = static_cast<std::uint16_t>(dev % 8);
      f.cfo_bins = static_cast<float>(static_cast<int>(dev % 64) - 32) * 0.25f;
      f.payload.resize(kPayload);
      for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      std::memcpy(f.payload.data(), &dev, 4);
      if (rng.uniform_int(0, 99) < kReplayPct && last_acc[di] >= 0) {
        // Replay: stale counter, content no real copy has.
        f.fcnt = static_cast<std::uint32_t>(last_acc[di]);
        f.payload[kPayload - 1] = 0xEE;
        f.gateway_id = 9;
        f.snr_db = 0.0f;
        ++sch.replays;
        add(std::move(f));
        continue;
      }
      f.fcnt = next_fcnt[di]++;
      last_acc[di] = f.fcnt;
      std::memcpy(f.payload.data() + 4, &f.fcnt, 3);
      ++cursor;
      ++sch.transmissions;
      const auto copies = static_cast<int>(rng.uniform_int(1, 3));
      for (int c = 0; c < copies && frames.size() < per_stream; ++c) {
        net::UplinkFrame copy = f;
        copy.gateway_id = static_cast<std::uint32_t>(c + 1);
        copy.snr_db = -5.0f + static_cast<float>(dev % 10) + 1.5f * static_cast<float>(c);
        if (c > 0) ++sch.duplicates;
        add(std::move(copy));
      }
    }
    Stream& st = sch.streams[s];
    for (std::size_t at = 0; at < frames.size(); at += kRecordsPerDatagram) {
      const std::size_t end = std::min(frames.size(), at + kRecordsPerDatagram);
      st.datagrams.push_back(net::encode_datagram(frames, at, end));
      // Streams are staggered so the sockets interleave evenly.
      const double due = (static_cast<double>(at) +
                          static_cast<double>(s * kRecordsPerDatagram) /
                              static_cast<double>(kSockets)) /
                         stream_rate;
      st.due_s.push_back(due);
      st.first_record.push_back(base + at);
      for (std::size_t r = at; r < end; ++r) sch.record_due_s[base + r] = due;
      sch.span_s = std::max(sch.span_s, due);
    }
  }
  sch.records = per_stream * kSockets;
  sch.record_due_s.resize(sch.records);
  return sch;
}

std::string fresh_state_dir(const RunOptions& o) {
  static std::atomic<int> n{0};
  const std::string dir = o.out_dir + "/net-state-" + std::to_string(::getpid()) +
                          "-" + std::to_string(n.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

net::NetServerConfig server_config(const std::string& dir) {
  net::NetServerConfig c;
  c.keep_feed = false;
  c.persist.dir = dir;
  c.persist.flush_every_records = 1;
  return c;
}

// Active netserver with persistence, CHOR replication to an in-process
// standby, and the UDP ingest front end — choir_netserver --state-dir
// --repl-dest plus choir_netserver --standby --repl-listen, in one process.
struct DurableStack {
  std::string dir;
  std::unique_ptr<net::ha::StandbyServer> standby;
  std::unique_ptr<net::NetServer> server;
  std::unique_ptr<net::ha::ReplicationSender> sender;
  std::unique_ptr<net::UdpIngestServer> udp;
  std::atomic<std::uint64_t> journal_records{0};
  double bootstrap_s = 0.0;

  DurableStack(const std::string& state_dir,
               std::function<void(const net::UplinkFrame&)> on_accept)
      : dir(state_dir) {
    net::ha::StandbyOptions so;
    so.server.keep_feed = false;
    so.repl_enabled = true;
    standby = std::make_unique<net::ha::StandbyServer>(so);
    server = std::make_unique<net::NetServer>(server_config(dir));
    if (on_accept) server->set_callback(std::move(on_accept));
    sender = std::make_unique<net::ha::ReplicationSender>(
        net::Endpoint{"127.0.0.1", standby->receiver()->port()},
        server->registry().n_shards());
    net::ha::ReplicationSender* snd = sender.get();
    net::NetServer* srv = server.get();
    server->persistence()->set_record_sink(
        [this, snd](std::size_t shard, const std::string& framed) {
          journal_records.fetch_add(1, std::memory_order_relaxed);
          snd->on_record(shard, framed);
        });
    sender->set_snapshot_source(
        [srv, snd](std::uint64_t& generation, std::vector<std::uint64_t>& heads) {
          std::string bytes;
          srv->with_ingest_quiesced([&] {
            bytes = net::persist::encode_snapshot(srv->snapshot_image());
            heads = snd->heads();
            generation = srv->persistence()->generation();
          });
          return bytes;
        });
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::seconds(10);
    while (!standby->receiver()->bootstrapped() && Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!standby->receiver()->bootstrapped())
      throw std::runtime_error("net_durable: standby never bootstrapped");
    bootstrap_s = since_s(t0);
    udp = std::make_unique<net::UdpIngestServer>(*server, 0);
  }

  ~DurableStack() {
    if (udp) udp->stop();
    if (server && server->persistence())
      server->persistence()->set_record_sink(nullptr);
    if (sender) sender->stop();
    udp.reset();
    sender.reset();
    server.reset();
    standby.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

// What one open-loop pass over the schedule measured.
struct Pass {
  net::NetServerStats stats{};
  double cpu_s = 0.0;          ///< process CPU minus the load generator's
  double first_due_us = 0.0;
  double last_accept_us = 0.0;
  double gen_late_ms_max = 0.0;
  double send_us = 0.0;        ///< wall time inside send, all sockets
  std::uint64_t datagrams = 0;
  std::uint64_t rcvbuf_dropped = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t standby_applied = 0;
  std::uint64_t lag_records_max = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t naks = 0;
  double catchup_ms = 0.0;
  double bootstrap_s = 0.0;
  bool caught_up = false;
  /// Per kWindowS of due time: median latency of the window's records.
  std::vector<double> window_p50_us;
  /// Per checkpoint block (kCheckpointEvery uplinks of due time, one
  /// checkpoint each): 99th-percentile latency.
  std::vector<double> block_p99_us;
  std::vector<double> checkpoint_ms;
};

// Buffers a pass fills, allocated by the caller before the memory
// baseline so that mem_mb counts only the program.
struct PassBuffers {
  std::vector<double> lat;     ///< by global record id; -1 = not accepted
  std::vector<double> window;  ///< one window's or block's latencies
  explicit PassBuffers(const Schedule& sch)
      : lat(sch.records), window(kCheckpointEvery + 2 * kSockets * kRecordsPerDatagram) {}
};

// Waits until `t_us` (steady clock): sleeps to just before it, then spins
// the last few microseconds. With the thread's timer slack at 1 ns this
// keeps the generator's own wake-up jitter out of the measured latency;
// what lateness remains is reported.
void wait_until_us(double t_us) {
  constexpr double kSpinUs = 30.0;
  const auto ns = static_cast<long long>((t_us - kSpinUs) * 1e3);
  if (ns > static_cast<long long>(now_us() * 1e3)) {
    const timespec ts{static_cast<time_t>(ns / 1000000000LL),
                      static_cast<long>(ns % 1000000000LL)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
    }
  }
  while (now_us() < t_us) {
  }
}

// One open-loop pass, filling the caller's buffers.
Pass run_pass(const RunOptions& o, const Schedule& sch, PassBuffers& buf) {
  Span root("net.pass");
  Pass p;
  std::vector<double>& lat = buf.lat;
  lat.assign(sch.records, -1.0);
  std::atomic<double> t_base_us{0.0};
  std::atomic<double> last_accept{0.0};
  auto on_accept = [&](const net::UplinkFrame& f) {
    // Runs on the ingest thread only: the accept callback is completion.
    const double now = now_us();
    if (f.stream_offset < lat.size())
      lat[f.stream_offset] = now - (t_base_us.load(std::memory_order_relaxed) +
                                    sch.record_due_s[f.stream_offset] * 1e6);
    last_accept.store(now, std::memory_order_relaxed);
  };
  std::unique_ptr<DurableStack> st;
  {
    Span s("net.setup");
    st = std::make_unique<DurableStack>(fresh_state_dir(o), on_accept);
  }
  p.bootstrap_s = st->bootstrap_s;

  std::vector<int> fds(kSockets, -1);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(st->udp->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (auto& fd : fds) {
    fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      throw std::runtime_error("net_durable: sender socket");
  }

  std::atomic<std::uint64_t> offered{0};
  std::atomic<bool> sending{true};
  const double base = now_us() + 20e3;  // first datagram due in 20 ms
  t_base_us.store(base);
  p.first_due_us = base;
  const double cpu0 = process_cpu_s();
  // The checkpoint timer and the standby lag sampler.
  std::thread timer([&] {
    std::uint64_t next_mark = kCheckpointEvery / 2;
    while (sending.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      p.lag_records_max =
          std::max(p.lag_records_max, st->standby->receiver()->lag_records());
      if (offered.load(std::memory_order_relaxed) >= next_mark) {
        next_mark += kCheckpointEvery;
        Span span("persist.checkpoint");
        const double t0 = now_us();
        st->server->checkpoint();
        p.checkpoint_ms.push_back((now_us() - t0) / 1e3);
      }
    }
  });
  // The load generator, on this thread. Datagram d of stream s is due at
  // (8 d + 2 s) / stream rate, so taking d, then s, sends in due order,
  // and each device's records leave in order on their stream's socket.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double gen_cpu0 = thread_cpu_s();
  const std::size_t per_stream = sch.records / kSockets;
  for (std::size_t d = 0; d < sch.streams[0].datagrams.size(); ++d) {
    for (std::size_t s = 0; s < kSockets; ++s) {
      const Stream& stream = sch.streams[s];
      const double due = base + stream.due_s[d] * 1e6;
      wait_until_us(due);
      const double t0 = now_us();
      p.gen_late_ms_max = std::max(p.gen_late_ms_max, (t0 - due) / 1e3);
      {
        Span span("backhaul.send");
        const auto& dg = stream.datagrams[d];
        (void)::send(fds[s], dg.data(), dg.size(), 0);
      }
      p.send_us += now_us() - t0;
      const std::size_t n = std::min<std::size_t>(
          kRecordsPerDatagram, (s + 1) * per_stream - stream.first_record[d]);
      offered.fetch_add(n, std::memory_order_relaxed);
    }
  }
  const double gen_cpu = thread_cpu_s() - gen_cpu0;
  ::prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
  {
    Span s("net.await_classified");
    const auto deadline = Clock::now() + std::chrono::seconds(15);
    while (st->server->stats().uplinks < sch.records && Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double cpu1 = process_cpu_s();
  sending.store(false);
  timer.join();
  {
    Span s("ha.catchup");
    const auto deadline = Clock::now() + std::chrono::seconds(15);
    auto* rx = st->standby->receiver();
    while ((rx->applied_records() < st->journal_records.load() ||
            rx->lag_records() != 0) &&
           Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    p.caught_up = rx->applied_records() == st->journal_records.load() &&
                  rx->lag_records() == 0;
  }
  st->udp->stop();  // joins the ingest thread: every callback has returned
  p.last_accept_us = last_accept.load();
  p.catchup_ms = (now_us() - p.last_accept_us) / 1e3;
  for (int fd : fds) ::close(fd);

  p.stats = st->server->stats();
  p.cpu_s = cpu1 - cpu0 - gen_cpu;
  // Per-window and per-block figures. Each stream's records are in due
  // order, so one window is one contiguous range of every stream.
  std::vector<std::size_t> next(kSockets, 0);
  for (double end_s = kWindowS; end_s < sch.span_s + kWindowS; end_s += kWindowS) {
    std::size_t n = 0;
    for (std::size_t s = 0; s < kSockets; ++s) {
      const std::size_t first = s * per_stream;
      for (std::size_t& i = next[s]; i < per_stream && sch.record_due_s[first + i] < end_s; ++i) {
        if (lat[first + i] >= 0.0 && n < buf.window.size()) buf.window[n++] = lat[first + i];
      }
    }
    if (n == 0) continue;
    std::sort(buf.window.begin(), buf.window.begin() + static_cast<std::ptrdiff_t>(n));
    p.window_p50_us.push_back(sorted_quantile(buf.window.data(), n, 0.5));
  }
  const double block_s = static_cast<double>(kCheckpointEvery) / kRatePerS;
  for (double b0 = 0.0; b0 < sch.span_s; b0 += block_s) {
    std::size_t n = 0;
    for (std::size_t r = 0; r < sch.records; ++r) {
      if (lat[r] >= 0.0 && sch.record_due_s[r] >= b0 &&
          sch.record_due_s[r] < b0 + block_s && n < buf.window.size())
        buf.window[n++] = lat[r];
    }
    if (n == 0) continue;
    std::sort(buf.window.begin(), buf.window.begin() + static_cast<std::ptrdiff_t>(n));
    p.block_p99_us.push_back(sorted_quantile(buf.window.data(), n, 0.99));
  }
  for (const auto& s : sch.streams) p.datagrams += s.datagrams.size();
  p.rcvbuf_dropped = st->udp->rcvbuf_dropped();
  p.decode_errors = st->udp->decode_errors();
  p.journal_records = st->journal_records.load();
  p.standby_applied = st->standby->receiver()->applied_records();
  p.retransmits = st->sender->retransmits();
  p.naks = st->standby->receiver()->naks_sent();
  return p;
}

// Gate: the server's classification equals the schedule's exact
// expectation, and the standby applied every journaled record.
void gate(Result& res, const Schedule& sch, const Pass& p) {
  const auto& s = p.stats;
  res.attempted += sch.records;
  auto diff = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; };
  const std::uint64_t bad = diff(s.uplinks, sch.records) +
                            diff(s.accepted, sch.transmissions) +
                            diff(s.dedup_dropped, sch.duplicates) +
                            diff(s.dedup_upgraded, sch.duplicates) +
                            diff(s.replay_rejected, sch.replays) +
                            s.unknown_device + s.malformed;
  res.failed += bad;
  if (bad != 0) {
    res.fail("classification mismatch: uplinks " + std::to_string(s.uplinks) +
             "/" + std::to_string(sch.records) + ", accepted " +
             std::to_string(s.accepted) + "/" + std::to_string(sch.transmissions) +
             ", dup " + std::to_string(s.dedup_dropped) + "/" +
             std::to_string(sch.duplicates) + ", upgraded " +
             std::to_string(s.dedup_upgraded) + ", replay " +
             std::to_string(s.replay_rejected) + "/" + std::to_string(sch.replays));
  }
  if (!p.caught_up) {
    res.fail("standby applied " + std::to_string(p.standby_applied) + " of " +
             std::to_string(p.journal_records) + " journal records");
  }
}

// Single-thread re-timing of one ingest configuration over `frames`,
// using their due times as the logical clock. Returns us per uplink.
double time_ingest(const std::vector<net::UplinkFrame>& frames,
                   const std::vector<double>& due_s, net::NetServer& server,
                   const char* span_name) {
  Span s(span_name);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < frames.size(); ++i) server.ingest_at(frames[i], due_s[i]);
  return since_s(t0) * 1e6 / static_cast<double>(frames.size());
}

struct StandaloneNet {
  double encode_us = 0.0, decode_us = 0.0, ingest_us = 0.0;
  double journal_us = 0.0, repl_us = 0.0;
};

// The schedule's first `limit` records decoded back into frames, in due
// order (datagram d of every stream before datagram d + 1), with their due
// times and the datagrams they came from.
struct Decoded {
  std::vector<net::UplinkFrame> frames;
  std::vector<double> due_s;
  std::vector<const std::vector<std::uint8_t>*> datagrams;
};

Decoded decode_prefix(const Schedule& sch, std::size_t limit) {
  Decoded out;
  for (std::size_t d = 0; out.frames.size() < limit; ++d) {
    bool any = false;
    for (const auto& st : sch.streams) {
      if (d >= st.datagrams.size()) continue;
      any = true;
      out.datagrams.push_back(&st.datagrams[d]);
      std::vector<net::UplinkFrame> recs;
      net::decode_datagram(st.datagrams[d].data(), st.datagrams[d].size(), recs);
      for (auto& f : recs) {
        out.due_s.push_back(st.due_s[d]);
        out.frames.push_back(std::move(f));
      }
    }
    if (!any) break;
  }
  return out;
}

StandaloneNet standalone(const RunOptions& o, const Schedule& sch) {
  const Decoded dec = decode_prefix(sch, kStandaloneUplinks);
  const auto& frames = dec.frames;
  const auto& due = dec.due_s;
  const auto& dgs = dec.datagrams;
  StandaloneNet r;
  const double n = static_cast<double>(frames.size());
  {
    Span s("standalone.backhaul.encode");
    const auto t0 = Clock::now();
    std::size_t bytes = 0;
    for (std::size_t at = 0; at < frames.size(); at += kRecordsPerDatagram)
      bytes += net::encode_datagram(frames, at,
                                    std::min(frames.size(), at + kRecordsPerDatagram))
                   .size();
    r.encode_us = since_s(t0) * 1e6 / n;
    if (bytes == 0) r.encode_us = 0.0;
  }
  {
    Span s("standalone.backhaul.decode");
    const auto t0 = Clock::now();
    std::vector<net::UplinkFrame> out;
    for (const auto* dg : dgs) {
      out.clear();
      net::decode_datagram(dg->data(), dg->size(), out);
    }
    r.decode_us = since_s(t0) * 1e6 / n;
  }
  {
    net::NetServerConfig c;
    c.keep_feed = false;
    net::NetServer mem(c);
    r.ingest_us = time_ingest(frames, due, mem, "standalone.net.ingest");
  }
  double persist_us = 0.0;
  {
    const std::string dir = fresh_state_dir(o);
    {
      net::NetServer disk(server_config(dir));
      persist_us = time_ingest(frames, due, disk, "standalone.persist.ingest");
    }
    std::filesystem::remove_all(dir);
  }
  r.journal_us = persist_us - r.ingest_us;
  {
    DurableStack st(fresh_state_dir(o), nullptr);
    r.repl_us = time_ingest(frames, due, *st.server, "standalone.ha.ingest") - persist_us;
  }
  return r;
}

std::size_t total_records(const RunOptions& o) {
  const auto n = static_cast<std::size_t>(kRatePerS * o.seconds);
  return std::max<std::size_t>(n - n % (kSockets * kRecordsPerDatagram),
                               kSockets * kRecordsPerDatagram);
}

}  // namespace

double standalone_ingest_us(std::uint64_t seed, std::uint32_t devices,
                            std::size_t uplinks) {
  const Schedule sch = make_schedule(seed, uplinks, devices, kRatePerS);
  const Decoded dec = decode_prefix(sch, uplinks);
  net::NetServerConfig c;
  c.keep_feed = false;
  net::NetServer mem(c);
  return time_ingest(dec.frames, dec.due_s, mem, "standalone.net.ingest");
}

double setup_net(const RunOptions& o) {
  const auto t0 = Clock::now();
  DurableStack st(fresh_state_dir(o), nullptr);
  return since_s(t0);
}

Result run_net(const RunOptions& o) {
  const Schedule sch = make_schedule(o.seed, total_records(o), kDevices, kRatePerS);
  std::printf("# net_durable: %llu uplinks (%llu transmissions, %llu duplicate "
              "copies, %llu replays) at %.0f/s over %.2f s, %zu sockets\n",
              static_cast<unsigned long long>(sch.records),
              static_cast<unsigned long long>(sch.transmissions),
              static_cast<unsigned long long>(sch.duplicates),
              static_cast<unsigned long long>(sch.replays), kRatePerS, sch.span_s,
              kSockets);
  PassBuffers buf(sch);
  const double base_mb = rss_mb();
  reset_peak_rss();

  Result res;
  const Pass p = run_pass(o, sch, buf);
  gate(res, sch, p);
  const double mem_mb = peak_rss_mb() - base_mb;
  std::printf("# net_durable: accepted %llu, generator late max %.2f ms, %.2f core-s\n",
              static_cast<unsigned long long>(p.stats.accepted), p.gen_late_ms_max,
              p.cpu_s);
  // Median latency comes from the run's least disturbed 0.1 s windows:
  // the 10th percentile over them of the window's median, which a burst
  // of other load on the shared host moves only if it covers most of the
  // run. The 99th percentile sits inside a checkpoint's quiesce, so it is
  // taken per checkpoint block; the median block stands for a typical
  // checkpoint. CPU is the whole pass's.
  const double p50_us = quantile(p.window_p50_us, 0.1);
  const double p99_us = median(p.block_p99_us);
  const double cpu_us = p.cpu_s * 1e6 / static_cast<double>(sch.records);
  std::printf("# net_durable: p50 %.1f us (10th percentile over %zu windows of %.1f s), "
              "p99 %.1f ms (median over %zu checkpoint blocks); checkpoints ms:",
              p50_us, p.window_p50_us.size(), kWindowS, p99_us / 1e3,
              p.block_p99_us.size());
  for (double ms : p.checkpoint_ms) std::printf(" %.1f", ms);
  std::printf("\n");
  const double tx = static_cast<double>(sch.transmissions);
  if (!o.trace) {
    set_end_to_end(res, mem_mb, static_cast<double>(p.stats.accepted) / p.cpu_s,
                   sch.span_s * 1e6 / (p.last_accept_us - p.first_due_us),
                   static_cast<double>(p.stats.accepted) / tx,
                   static_cast<double>(p.stats.replay_rejected) / tx, cpu_us,
                   p50_us, p99_us);
    return res;
  }

  init_per_layer(res);
  Tracer::get().enable(o.seed);
  obs::registry().reset_values();
  const Pass t = run_pass(o, sch, buf);
  gate(res, sch, t);
  const obs::RegistrySnapshot snap = obs::registry().snapshot();
  const StandaloneNet sa = standalone(o, sch);
  const double recs = static_cast<double>(sch.records);
  res.set("backhaul.encode_us_per_uplink", sa.encode_us, "us");
  res.set("backhaul.decode_us_per_uplink", sa.decode_us, "us");
  res.set("backhaul.send_us_per_datagram", t.send_us / static_cast<double>(t.datagrams), "us");
  res.set("backhaul.rcvbuf_dropped", static_cast<double>(t.rcvbuf_dropped), "count");
  res.set("backhaul.decode_errors", static_cast<double>(t.decode_errors), "count");
  res.set("backhaul.gen_late_ms_max", t.gen_late_ms_max, "ms");
  res.set("net.ingest_us_per_uplink", sa.ingest_us, "us");
  res.set("net.dedup_ratio", static_cast<double>(t.stats.dedup_dropped) / recs, "ratio");
  res.set("net.replay_rejected", static_cast<double>(t.stats.replay_rejected), "count");
  res.set("persist.journal_us_per_uplink", sa.journal_us, "us");
  res.set("persist.checkpoint_ms", median(Tracer::get().durations_ms("persist.checkpoint")), "ms");
  res.set("persist.journal_bytes_per_uplink",
          static_cast<double>(obs_counter(snap, "net.persist.journal.bytes")) / recs, "B");
  res.set("ha.repl_us_per_uplink", sa.repl_us, "us");
  res.set("ha.lag_records_max", static_cast<double>(t.lag_records_max), "count");
  res.set("ha.catchup_ms", t.catchup_ms, "ms");
  res.set("ha.retransmits", static_cast<double>(t.retransmits), "count");
  res.set("ha.naks", static_cast<double>(t.naks), "count");
  res.set("ha.bootstrap_s", t.bootstrap_s, "s");
  res.set("trace.overhead_pct", (t.cpu_s - p.cpu_s) / p.cpu_s * 100.0, "%");
  return res;
}

}  // namespace e2e
