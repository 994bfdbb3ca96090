#include "citysim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <queue>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "lora/frame.hpp"
#include "lora/params.hpp"
#include "net/adr.hpp"
#include "obs/obs.hpp"

namespace choir::citysim {

namespace {

// Stream ids for the engine's per-device RNG families. Must stay disjoint
// from the layout's (city.cpp) and traffic's (traffic.cpp) stream ids.
constexpr std::uint64_t kTrafficStream = 0x7AFF1CULL;
constexpr std::uint64_t kOutcomeStream = 0x0DECADEULL;
constexpr std::uint64_t kReplayStream = 0x2E91AFULL;
constexpr std::uint64_t kCfoStream = 0xCF0ULL;

constexpr std::uint8_t kEndEvent = 0;    ///< ends sort before same-time starts
constexpr std::uint8_t kStartEvent = 1;

struct Event {
  double t = 0.0;
  std::uint32_t dev = 0;
  std::uint8_t kind = kStartEvent;
};

/// Min-heap order (t, kind, dev): deterministic processing under ties —
/// a frame ending exactly when another starts does not collide with it.
struct EventCmp {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.t, a.kind, a.dev) > std::tie(b.t, b.kind, b.dev);
  }
};

double unit(std::uint64_t raw) {
  return static_cast<double>(raw >> 11) * 0x1.0p-53;  // [0, 1)
}

}  // namespace

struct CityEngine::ActiveTx {
  std::uint32_t dev = 0;
  std::uint32_t fcnt = 0;
  std::uint8_t sf = 7;
  std::uint16_t colliders = 1;  ///< same-SF overlaps seen, incl. self
  /// Received power / noise per gateway, linear (0 = below hear floor).
  std::array<float, kMaxGateways> lin{};
  /// Accumulated same-(channel, SF) interference per gateway, linear.
  std::array<float, kMaxGateways> interf{};
};

struct CityEngine::Worker {
  std::priority_queue<Event, std::vector<Event>, EventCmp> heap;
  // Local accumulators, folded into the report (and the obs registry) at
  // epoch barriers — the hot path touches no shared counters.
  std::uint64_t events = 0;
  std::uint64_t tx = 0;
  std::uint64_t collided = 0;
  std::uint64_t heard = 0;
  std::uint64_t decoded = 0;
  std::uint64_t injected = 0;
  std::array<std::uint64_t, kDeviceClasses> tx_by_class{};
  std::uint64_t exp_accepted = 0;
  std::uint64_t exp_duplicates = 0;
  std::uint64_t exp_upgraded = 0;
  std::uint64_t exp_replays = 0;
  std::uint64_t adr_changes = 0;
};

EngineOptions effective_options(EngineOptions o) {
  o.n_devices = std::max<std::size_t>(1, o.n_devices);
  o.n_channels = std::max<std::size_t>(1, o.n_channels);
  o.city.n_gateways =
      std::clamp<std::size_t>(o.city.n_gateways, 1, kMaxGateways);
  o.payload_bytes = std::max<std::size_t>(12, o.payload_bytes);
  if (o.epoch_s <= 0.0) o.epoch_s = 30.0;
  o.net.keep_feed = false;  // the feed would retain every accepted frame
  // The dedup window runs on *simulated* time and expires lazily on
  // insert, but workers' sim clocks only rendezvous at epoch barriers —
  // between barriers they diverge by up to epoch_s. A frame's copies are
  // all ingested at one instant by one worker; if another worker's sweep
  // (running ahead in sim time) could expire the frame's entry between
  // two of those copies, the late copy would miss dedup and die in the
  // registry as a replay — nondeterministically, breaking both exact
  // accounting and thread-count invariance. Clamp the window to cover
  // the worst-case skew so no live frame's entry can expire mid-frame.
  o.net.dedup.window_s = std::max(o.net.dedup.window_s, o.epoch_s + 1.0);
  if ((o.checkpoint_epochs > 0 || o.kill_restore_epoch > 0) &&
      o.net.persist.dir.empty())
    throw std::invalid_argument(
        "citysim: checkpoint_epochs / kill_restore_epoch require "
        "net.persist.dir");
  // The kill drill drops whatever the journal buffered but had not yet
  // written; only per-record flushing makes recovery lossless, which the
  // drill's bit-for-bit mirror check demands.
  if (o.kill_restore_epoch > 0) o.net.persist.flush_every_records = 1;
  return o;
}

CityEngine::CityEngine(const EngineOptions& opt, const OutcomeTable& table)
    : opt_(effective_options(opt)),
      table_(table),
      layout_(opt_.city, opt_.seed),
      server_(std::make_unique<net::NetServer>(opt_.net)) {
  n_workers_ = static_cast<std::size_t>(std::clamp<std::int64_t>(
      opt_.threads, 1, static_cast<std::int64_t>(opt_.n_channels)));
  n_gw_ = layout_.gateways().size();
  for (int sf = 5; sf <= 12; ++sf) {
    lora::PhyParams phy;
    phy.sf = std::max(6, sf);  // PhyParams floor; SF5 never occurs anyway
    airtime_s_[sf] = lora::frame_airtime_s(opt_.payload_bytes, phy);
  }
  workers_.reserve(n_workers_);
  for (std::size_t w = 0; w < n_workers_; ++w)
    workers_.push_back(std::make_unique<Worker>());
  active_.resize(opt_.n_channels);
}

CityEngine::~CityEngine() = default;

void CityEngine::init_devices() {
  const std::size_t n = opt_.n_devices;
  cls_.resize(n);
  sf_.resize(n);
  power_dbm_.resize(n);
  fcnt_.assign(n, 0);
  traffic_ctr_.assign(n, 0);
  model_last_.assign(n, 0);
  model_seen_.assign(n, 0);
  since_adr_.assign(n, 0);

  const double p0 = opt_.net.adr.max_power_dbm;
  const CounterRng traffic_root(opt_.seed, kTrafficStream);
  for (std::uint32_t dev = 0; dev < n; ++dev) {
    const DeviceClass cls = assign_class(opt_.seed, dev, opt_.mix);
    cls_[dev] = static_cast<std::uint8_t>(cls);
    power_dbm_[dev] = static_cast<float>(p0);
    // Initial SF: fastest rate whose required SNR (under the ADR link
    // model) the device's best home link clears with margin; devices out
    // of reach start at max SF, where teams can still aggregate them.
    const double best = layout_.best_home_snr_db(dev, p0);
    int sf = opt_.net.adr.max_sf;
    for (int s = opt_.net.adr.min_sf; s <= opt_.net.adr.max_sf; ++s) {
      if (best >= net::required_snr_db(s, opt_.net.adr) + opt_.init_margin_db) {
        sf = s;
        break;
      }
    }
    sf_[dev] = static_cast<std::uint8_t>(std::clamp(sf, 6, 12));

    CounterRng trng = traffic_root.split(dev);
    const double first = next_tx_time(cls, 0.0, opt_.traffic, trng);
    traffic_ctr_[dev] = trng.counter();
    if (first < opt_.duration_s) {
      const std::size_t w = (dev % opt_.n_channels) % n_workers_;
      workers_[w]->heap.push(Event{first, dev, kStartEvent});
    }
  }
}

void CityEngine::on_tx_start(Worker& wk, std::uint32_t dev, double t) {
  const std::size_t ch = dev % opt_.n_channels;
  const std::uint8_t sf = sf_[dev];
  const DeviceClass cls = static_cast<DeviceClass>(cls_[dev]);
  ++wk.tx;
  ++wk.tx_by_class[cls_[dev]];
  const std::uint32_t fcnt = fcnt_[dev]++;
  const double t_end = t + airtime_s_[sf];

  double x = 0.0, y = 0.0;
  if (cls == DeviceClass::kTracker) {
    layout_.mobile_position(dev, t, &x, &y);
  } else {
    layout_.device_home(dev, &x, &y);
  }

  ActiveTx a;
  a.dev = dev;
  a.fcnt = fcnt;
  a.sf = sf;
  bool heard_any = false;
  for (std::size_t gw = 0; gw < n_gw_; ++gw) {
    const double snr = layout_.link_snr_db(dev, gw, x, y, power_dbm_[dev]) +
                       layout_.fading_db(dev, gw, fcnt);
    if (snr >= opt_.city.hear_floor_db) {
      a.lin[gw] = static_cast<float>(std::pow(10.0, snr / 10.0));
      heard_any = true;
    }
  }

  if (heard_any) {
    // Join the channel's collision set: mutual interference with every
    // in-flight same-SF frame, at each gateway that hears either side.
    // (Cross-SF interference is quasi-orthogonal and ignored; frames
    // below the hear floor everywhere are radio-invisible and skipped.)
    std::vector<ActiveTx>& list = active_[ch];
    for (ActiveTx& e : list) {
      if (e.sf != sf) continue;
      ++e.colliders;
      ++a.colliders;
      for (std::size_t gw = 0; gw < n_gw_; ++gw) {
        e.interf[gw] += a.lin[gw];
        a.interf[gw] += e.lin[gw];
      }
    }
    list.push_back(a);
    wk.heap.push(Event{t_end, dev, kEndEvent});
  }

  // Schedule the next transmission from this frame's end (the device's
  // own duty cycle), drawing from its persistent traffic stream.
  CounterRng trng = CounterRng(opt_.seed, kTrafficStream).split(dev);
  trng.seek(traffic_ctr_[dev]);
  const double next = next_tx_time(cls, t_end, opt_.traffic, trng);
  traffic_ctr_[dev] = trng.counter();
  if (next < opt_.duration_s) wk.heap.push(Event{next, dev, kStartEvent});
}

void CityEngine::on_tx_end(Worker& wk, std::uint32_t dev, double t) {
  std::vector<ActiveTx>& list = active_[dev % opt_.n_channels];
  std::size_t idx = 0;
  while (idx < list.size() && list[idx].dev != dev) ++idx;
  if (idx == list.size()) return;  // unreachable by construction
  const ActiveTx a = list[idx];
  list[idx] = list.back();
  list.pop_back();

  if (a.colliders > 1) ++wk.collided;

  // Per-gateway decode outcomes from the calibrated curves, one
  // counter-indexed draw per (frame, gateway) so outcomes are independent
  // of processing order.
  std::array<std::pair<std::size_t, float>, kMaxGateways> dec;
  std::size_t copies = 0;
  const CounterRng orng = CounterRng(opt_.seed, kOutcomeStream).split(dev);
  for (std::size_t gw = 0; gw < n_gw_; ++gw) {
    if (a.lin[gw] <= 0.0f) continue;
    ++wk.heard;
    const double sinr_db =
        10.0 * std::log10(static_cast<double>(a.lin[gw]) /
                          (1.0 + static_cast<double>(a.interf[gw])));
    const double p =
        table_.decode_prob(opt_.receiver, a.sf, a.colliders, sinr_db);
    const double u = unit(
        orng.at(static_cast<std::uint64_t>(a.fcnt) * kMaxGateways + gw));
    if (u < p) dec[copies++] = {gw, static_cast<float>(sinr_db)};
  }
  if (copies == 0) return;
  wk.decoded += copies;

  if (opt_.provision_positions && !model_seen_[dev]) {
    double hx = 0.0, hy = 0.0;
    layout_.device_home(dev, &hx, &hy);
    server_->provision(dev, hx, hy);  // journaled when persistence is on
  }

  const float cfo =
      static_cast<float>(CounterRng(opt_.seed, kCfoStream)
                             .split(dev)
                             .uniform(-0.25, 0.25));
  const std::vector<std::uint8_t> payload = make_payload(dev, a.fcnt, 0);
  float best_snr = 0.0f;
  std::uint64_t upgraded = 0;
  for (std::size_t i = 0; i < copies; ++i) {
    net::UplinkFrame f;
    f.gateway_id = static_cast<std::uint32_t>(dec[i].first);
    f.channel = static_cast<std::uint16_t>(dev % opt_.n_channels);
    f.sf = a.sf;
    f.dev_addr = dev;
    f.fcnt = a.fcnt;
    f.stream_offset = static_cast<std::uint64_t>(t * 125e3);
    f.snr_db = dec[i].second;
    f.cfo_bins = cfo;
    f.payload = payload;
    server_->ingest_at(std::move(f), t);
    if (i == 0) {
      best_snr = dec[i].second;
    } else if (dec[i].second > best_snr) {
      best_snr = dec[i].second;
      ++upgraded;  // mirror of dedup's best-SNR upgrade rule
    }
  }
  account_copies(wk, dev, a.fcnt, copies, upgraded);

  // Optional adversarial replay: an old FCnt with fresh payload bits —
  // must pass dedup (different hash) and die in the registry's window.
  if (opt_.replay_rate > 0.0 && model_seen_[dev]) {
    const double u = unit(
        CounterRng(opt_.seed, kReplayStream).split(dev).at(a.fcnt));
    if (u < opt_.replay_rate) {
      net::UplinkFrame f;
      f.gateway_id = static_cast<std::uint32_t>(dec[0].first);
      f.channel = static_cast<std::uint16_t>(dev % opt_.n_channels);
      f.sf = a.sf;
      f.dev_addr = dev;
      f.fcnt = model_last_[dev];
      f.stream_offset = static_cast<std::uint64_t>(t * 125e3);
      f.snr_db = dec[0].second;
      f.cfo_bins = cfo;
      f.payload = make_payload(dev, model_last_[dev], a.fcnt + 1);
      server_->ingest_at(std::move(f), t);
      ++wk.injected;
      ++wk.exp_replays;
    }
  }
}

void CityEngine::account_copies(Worker& wk, std::uint32_t dev,
                                std::uint32_t fcnt, std::size_t copies,
                                std::uint64_t upgraded) {
  // Mirror of the registry's FCnt window (registry.cpp accept): fresh iff
  // never seen, or strictly newer within the desync gap.
  const bool fresh =
      !model_seen_[dev] ||
      (fcnt > model_last_[dev] &&
       fcnt - model_last_[dev] <= opt_.net.registry.max_fcnt_gap);
  if (fresh) {
    ++wk.exp_accepted;
    model_seen_[dev] = 1;
    model_last_[dev] = fcnt;
    if (opt_.adr_every > 0 && ++since_adr_[dev] >= opt_.adr_every) {
      since_adr_[dev] = 0;
      const net::AdrDecision d =
          server_->adr_for(dev, sf_[dev], power_dbm_[dev]);
      if (d.changed) {
        sf_[dev] = static_cast<std::uint8_t>(std::clamp(d.sf, 6, 12));
        power_dbm_[dev] = static_cast<float>(d.tx_power_dbm);
        server_->note_adr_applied(dev);
        ++wk.adr_changes;
      }
    }
  } else {
    ++wk.exp_replays;
  }
  wk.exp_duplicates += copies - 1;
  wk.exp_upgraded += upgraded;
}

std::vector<std::uint8_t> CityEngine::make_payload(std::uint32_t dev,
                                                   std::uint32_t fcnt,
                                                   std::uint32_t nonce) const {
  std::vector<std::uint8_t> p(opt_.payload_bytes);
  for (int i = 0; i < 4; ++i) {
    p[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(dev >> (8 * i));
    p[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(fcnt >> (8 * i));
    p[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(nonce >> (8 * i));
  }
  for (std::size_t i = 12; i < p.size(); ++i)
    p[i] = static_cast<std::uint8_t>(dev * 131u + fcnt * 31u + i * 7u);
  return p;
}

void CityEngine::run_worker(std::size_t w, double until_s) {
  Worker& wk = *workers_[w];
  while (!wk.heap.empty() && wk.heap.top().t < until_s) {
    const Event e = wk.heap.top();
    wk.heap.pop();
    ++wk.events;
    if (e.kind == kStartEvent) {
      on_tx_start(wk, e.dev, e.t);
    } else {
      on_tx_end(wk, e.dev, e.t);
    }
  }
}

void CityEngine::kill_and_restore() {
  // The barrier guarantees quiescence: no worker is mid-ingest and every
  // copy of every frame ending before `until` has been offered. Kill the
  // persistence exactly as SIGKILL would leave it (unflushed bytes die
  // with the process — none exist at flush_every_records == 1), drop the
  // whole server, and rebuild it from the state directory alone. The
  // engine's model_last_/model_seen_ mirrors are NOT reset: if recovery
  // is correct they describe the recovered registry too, and the
  // end-of-run exact-accounting check proves it.
  server_->persistence()->simulate_kill();
  server_.reset();
  if (opt_.promote_standby) {
    server_ = opt_.promote_standby();
    // A standby configured from the raw options would carry the narrower
    // dedup window and let late copies die as replays only under skew;
    // refuse it outright instead.
    if (server_->config().dedup.window_s < opt_.net.dedup.window_s)
      throw std::invalid_argument(
          "citysim: promoted standby's dedup window is narrower than the "
          "engine's; build it from effective_options(opt).net");
  } else {
    server_ = std::make_unique<net::NetServer>(opt_.net);
  }
  restored_ = true;
  recovery_ = server_->recovery();
}

void CityEngine::flush_obs() {
  std::uint64_t ev = 0, tx = 0, dec = 0, col = 0;
  for (const auto& w : workers_) {
    ev += w->events;
    tx += w->tx;
    dec += w->decoded;
    col += w->collided;
  }
  CHOIR_OBS_COUNT("citysim.events", ev - flushed_events_);
  CHOIR_OBS_COUNT("citysim.transmissions", tx - flushed_tx_);
  CHOIR_OBS_COUNT("citysim.decoded", dec - flushed_decoded_);
  CHOIR_OBS_COUNT("citysim.collided", col - flushed_collided_);
  flushed_events_ = ev;
  flushed_tx_ = tx;
  flushed_decoded_ = dec;
  flushed_collided_ = col;
}

EngineReport CityEngine::run() {
  if (ran_) throw std::logic_error("CityEngine::run: call once");
  ran_ = true;
  const auto wall0 = std::chrono::steady_clock::now();

  CHOIR_OBS_GAUGE_SET("citysim.devices",
                      static_cast<std::int64_t>(opt_.n_devices));
  init_devices();

  std::uint64_t team_churn = 0;
  std::uint64_t epoch = 0;
  for (;;) {
    bool pending = false;
    for (const auto& w : workers_) pending = pending || !w->heap.empty();
    if (!pending) break;

    const double until = static_cast<double>(epoch + 1) * opt_.epoch_s;
    if (n_workers_ == 1) {
      run_worker(0, until);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(n_workers_);
      for (std::size_t w = 0; w < n_workers_; ++w)
        threads.emplace_back([this, w, until] { run_worker(w, until); });
      for (auto& th : threads) th.join();
    }

    // Epoch barrier: every event before `until` on every channel has been
    // processed, so the registry snapshot below is deterministic.
    if (opt_.team_rebuild_epochs > 0 &&
        (epoch + 1) % opt_.team_rebuild_epochs == 0 &&
        static_cast<double>(epoch) * opt_.epoch_s < opt_.duration_s) {
      team_churn += server_->teams().rebuild().churned;
    }
    if (opt_.checkpoint_epochs > 0 &&
        (epoch + 1) % opt_.checkpoint_epochs == 0) {
      server_->checkpoint();
    }
    if (opt_.kill_restore_epoch > 0 && epoch + 1 == opt_.kill_restore_epoch) {
      kill_and_restore();
    }
    flush_obs();
    CHOIR_OBS_GAUGE_SET(
        "citysim.sim_time_s",
        static_cast<std::int64_t>(std::min(until, opt_.duration_s)));
    ++epoch;
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  EngineReport r;
  for (const auto& w : workers_) {
    r.events += w->events;
    r.transmissions += w->tx;
    r.collided += w->collided;
    r.heard += w->heard;
    r.decoded += w->decoded;
    r.replays_injected += w->injected;
    for (int c = 0; c < kDeviceClasses; ++c)
      r.tx_by_class[static_cast<std::size_t>(c)] +=
          w->tx_by_class[static_cast<std::size_t>(c)];
    r.expect_accepted += w->exp_accepted;
    r.expect_duplicates += w->exp_duplicates;
    r.expect_upgraded += w->exp_upgraded;
    r.expect_replays += w->exp_replays;
    r.adr_changes += w->adr_changes;
  }
  r.storms = storms_before(opt_.duration_s, opt_.traffic);
  r.net_stats = server_->stats();
  r.devices_registered = server_->registry().device_count();
  r.registry_evicted = server_->registry().evicted();
  r.accounting_exact =
      r.registry_evicted == 0 &&
      r.net_stats.uplinks == r.decoded + r.replays_injected &&
      r.net_stats.accepted == r.expect_accepted &&
      r.net_stats.dedup_dropped == r.expect_duplicates &&
      r.net_stats.dedup_upgraded == r.expect_upgraded &&
      r.net_stats.replay_rejected == r.expect_replays &&
      r.net_stats.unknown_device == 0 && r.net_stats.malformed == 0;

  r.restored = restored_;
  r.recovery_generation = recovery_.generation;
  r.recovery_snapshot_sessions = recovery_.snapshot_sessions;
  r.recovery_replayed = recovery_.replayed;
  r.recovery_discarded = recovery_.discarded;

  const net::TeamRoster roster = server_->teams().roster();
  r.team_version = roster.version;
  r.teams = roster.plan.teams.size();
  r.team_individual = roster.plan.individual.size();
  r.team_unreachable = roster.plan.unreachable.size();
  r.team_churned = team_churn;

  r.sim_time_s = opt_.duration_s;
  r.wall_s = wall_s;
  if (wall_s > 0.0) {
    r.events_per_s = static_cast<double>(r.events) / wall_s;
    r.uplinks_per_s = static_cast<double>(r.net_stats.uplinks) / wall_s;
  }
  flush_obs();
  return r;
}

std::string format_report(const EngineReport& r) {
  char buf[1200];
  std::string kill_restore = "off";
  if (r.restored) {
    char kr[160];
    std::snprintf(kr, sizeof(kr),
                  "recovered gen %llu (%llu sessions, %llu journal records"
                  " replayed, %llu discarded)",
                  static_cast<unsigned long long>(r.recovery_generation),
                  static_cast<unsigned long long>(r.recovery_snapshot_sessions),
                  static_cast<unsigned long long>(r.recovery_replayed),
                  static_cast<unsigned long long>(r.recovery_discarded));
    kill_restore = kr;
  }
  std::snprintf(
      buf, sizeof(buf),
      "  events              : %llu (%.0f/s)\n"
      "  transmissions       : %llu (metering %llu, parking %llu, "
      "tracker %llu, alarm %llu)\n"
      "  collided            : %llu\n"
      "  heard / decoded     : %llu / %llu\n"
      "  replays injected    : %llu\n"
      "  storms              : %llu\n"
      "  adr changes         : %llu\n"
      "  devices registered  : %zu (evicted %llu)\n"
      "  teams               : v%llu, %zu teams, %zu individual, "
      "%zu unreachable, churn %llu\n"
      "  accounting          : %s\n"
      "  kill/restore        : %s\n"
      "  wall                : %.2fs (%.0f uplinks/s)\n",
      static_cast<unsigned long long>(r.events), r.events_per_s,
      static_cast<unsigned long long>(r.transmissions),
      static_cast<unsigned long long>(r.tx_by_class[0]),
      static_cast<unsigned long long>(r.tx_by_class[1]),
      static_cast<unsigned long long>(r.tx_by_class[2]),
      static_cast<unsigned long long>(r.tx_by_class[3]),
      static_cast<unsigned long long>(r.collided),
      static_cast<unsigned long long>(r.heard),
      static_cast<unsigned long long>(r.decoded),
      static_cast<unsigned long long>(r.replays_injected),
      static_cast<unsigned long long>(r.storms),
      static_cast<unsigned long long>(r.adr_changes), r.devices_registered,
      static_cast<unsigned long long>(r.registry_evicted),
      static_cast<unsigned long long>(r.team_version), r.teams,
      r.team_individual, r.team_unreachable,
      static_cast<unsigned long long>(r.team_churned),
      r.accounting_exact ? "exact" : "MISMATCH",
      kill_restore.c_str(), r.wall_s, r.uplinks_per_s);
  return buf;
}

}  // namespace choir::citysim
