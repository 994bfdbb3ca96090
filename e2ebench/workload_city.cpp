// city_1m: citysim::CityEngine with a million devices driving an
// in-memory NetServer through concurrent in-process ingest_at writers
// (2 engine threads, ADR on, 1% injected replays, the checked-in PHY
// outcome table). No UDP, no journal, no PHY: it exercises the net layer
// differently from net_durable and is the only workload for the engine.
//
// The run repeats the identical city (the gate checks it) and cuts every
// repeat into slices of kSliceAccepts accepted uplinks. Each slice is the
// same work in every repeat, so the fastest instance of each slice is the
// one least disturbed by other load on the shared host; the end-to-end
// figures are taken from the sum of those fastest slices (the "best
// composite" repeat). The whole simulated horizon is due when run()
// starts (the simulator runs as fast as it can), so an uplink's ingest
// latency is its accept time minus the run's start: p50 is about half the
// run's wall time and p99 about all of it. They restate rt_factor, not a
// per-uplink latency.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include "citysim/engine.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace choir;

namespace {

constexpr std::size_t kDevices = 1000000;
constexpr double kSimSeconds = 240.0;
constexpr int kThreads = 2;
constexpr std::size_t kSliceAccepts = 4096;
constexpr std::size_t kMaxSlices = 4096;

citysim::EngineOptions engine_options(const RunOptions& o) {
  citysim::EngineOptions opt;
  opt.n_devices = kDevices;
  opt.duration_s = kSimSeconds;
  opt.threads = kThreads;
  opt.seed = o.seed;
  opt.replay_rate = 0.01;
  opt.net.keep_feed = false;
  return opt;
}

citysim::OutcomeTable load_table(const RunOptions& o) {
  return citysim::OutcomeTable::load(o.repo_root +
                                     "/tests/data/citysim_outcomes.json");
}

// Wall and process CPU time at the end of every kSliceAccepts-th accept,
// relative to the repeat's start. The callback runs on every engine
// worker; one clock serves every repeat and is allocated before the
// memory baseline, so mem_mb counts only the program.
struct AcceptClock {
  std::atomic<std::size_t> n{0};
  double t0_us = 0.0, cpu0_s = 0.0;
  std::vector<double> wall_s = std::vector<double>(kMaxSlices, 0.0);
  std::vector<double> cpu_s = std::vector<double>(kMaxSlices, 0.0);
  void start() {
    n.store(0);
    t0_us = now_us();
    cpu0_s = process_cpu_s();
  }
  void on_accept() {
    const std::size_t i = n.fetch_add(1, std::memory_order_relaxed) + 1;
    if (i % kSliceAccepts == 0 && i / kSliceAccepts <= kMaxSlices) {
      wall_s[i / kSliceAccepts - 1] = (now_us() - t0_us) / 1e6;
      cpu_s[i / kSliceAccepts - 1] = process_cpu_s() - cpu0_s;
    }
  }
};

// One repeat: its report and the wall / CPU seconds of every slice (the
// last slice runs from the last full slice to the end of run()).
struct Rep {
  citysim::EngineReport report;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> slice_wall_s, slice_cpu_s;
};

Rep run_rep(const RunOptions& o, const citysim::OutcomeTable& table,
            AcceptClock& clock) {
  Span root("citysim.rep");
  std::unique_ptr<citysim::CityEngine> engine;
  {
    Span s("citysim.construct");
    engine = std::make_unique<citysim::CityEngine>(engine_options(o), table);
  }
  AcceptClock* c = &clock;
  engine->server().set_callback([c](const net::UplinkFrame&) { c->on_accept(); });
  Rep r;
  clock.start();
  {
    Span s("citysim.run");
    r.report = engine->run();
  }
  r.wall_s = (now_us() - clock.t0_us) / 1e6;
  r.cpu_s = process_cpu_s() - clock.cpu0_s;
  const std::size_t full = std::min(kMaxSlices, clock.n.load() / kSliceAccepts);
  double wall = 0.0, cpu = 0.0;
  for (std::size_t i = 0; i <= full; ++i) {
    const double w = i < full ? clock.wall_s[i] : r.wall_s;
    const double u = i < full ? clock.cpu_s[i] : r.cpu_s;
    r.slice_wall_s.push_back(w - wall);
    r.slice_cpu_s.push_back(u - cpu);
    wall = w;
    cpu = u;
  }
  return r;
}

// The best composite repeat: per slice, the least wall and the least CPU
// over all repeats; `at_s` is its cumulative wall time at each slice end.
struct Composite {
  double wall_s = 0.0, cpu_s = 0.0;
  std::vector<double> at_s;
};

Composite best_composite(const std::vector<Rep>& reps) {
  Composite c;
  std::size_t n = reps[0].slice_wall_s.size();
  for (const auto& r : reps) n = std::min(n, r.slice_wall_s.size());
  for (std::size_t i = 0; i < n; ++i) {
    double w = reps[0].slice_wall_s[i], u = reps[0].slice_cpu_s[i];
    for (const auto& r : reps) {
      w = std::min(w, r.slice_wall_s[i]);
      u = std::min(u, r.slice_cpu_s[i]);
    }
    c.wall_s += w;
    c.cpu_s += u;
    c.at_s.push_back(c.wall_s);
  }
  return c;
}

// Composite wall time by which a share q of the accepted uplinks were in.
double accept_time_s(const Composite& c, std::uint64_t accepted, double q) {
  const double slice = q * static_cast<double>(accepted) / kSliceAccepts;
  const auto i = static_cast<std::size_t>(slice);
  if (i + 1 >= c.at_s.size()) return c.at_s.back();
  const double before = i == 0 ? 0.0 : c.at_s[i - 1];
  return before + (c.at_s[i] - before) * (slice - static_cast<double>(i));
}

// Gate: exact accounting, and every repeat reproduces the same report.
void gate(Result& res, const Rep& r, const Rep& ref) {
  const auto& a = r.report;
  const auto& b = ref.report;
  res.attempted += a.net_stats.uplinks;
  if (!a.accounting_exact) {
    res.failed += 1;
    res.fail("citysim accounting is not exact");
  }
  if (a.events != b.events || a.transmissions != b.transmissions ||
      a.decoded != b.decoded || a.net_stats.accepted != b.net_stats.accepted ||
      a.net_stats.dedup_dropped != b.net_stats.dedup_dropped ||
      a.net_stats.replay_rejected != b.net_stats.replay_rejected) {
    res.failed += 1;
    res.fail("citysim report differs between repeats of the same seed");
  }
}

}  // namespace

double setup_city(const RunOptions& o) {
  const auto t0 = Clock::now();
  const citysim::OutcomeTable table = load_table(o);
  citysim::CityEngine engine(engine_options(o), table);
  return since_s(t0);
}

Result run_city(const RunOptions& o) {
  const citysim::OutcomeTable table = load_table(o);
  auto clock = std::make_unique<AcceptClock>();
  const double base_mb = rss_mb();
  reset_peak_rss();
  Result res;
  const auto t_start = Clock::now();
  std::vector<Rep> reps;
  reps.push_back(run_rep(o, table, *clock));
  gate(res, reps[0], reps[0]);
  const citysim::EngineReport r0 = reps[0].report;
  std::printf("# city_1m: %llu events, %llu transmissions (%llu collided), "
              "%llu uplinks offered, %llu accepted, %llu replays rejected, "
              "accounting %s, %.2f s wall for %.0f simulated s\n",
              static_cast<unsigned long long>(r0.events),
              static_cast<unsigned long long>(r0.transmissions),
              static_cast<unsigned long long>(r0.collided),
              static_cast<unsigned long long>(r0.net_stats.uplinks),
              static_cast<unsigned long long>(r0.net_stats.accepted),
              static_cast<unsigned long long>(r0.net_stats.replay_rejected),
              r0.accounting_exact ? "exact" : "MISMATCH", reps[0].wall_s,
              r0.sim_time_s);

  if (!o.trace) {
    while (since_s(t_start) < o.seconds) {
      reps.push_back(run_rep(o, table, *clock));
      gate(res, reps.back(), reps[0]);
    }
    const Composite best = best_composite(reps);
    std::printf("# city_1m: %zu runs, wall s:", reps.size());
    for (const auto& r : reps) std::printf(" %.3f", r.wall_s);
    std::printf("; best composite %.3f wall-s, %.3f core-s\n", best.wall_s, best.cpu_s);
    const auto& ns = r0.net_stats;
    const double tx = static_cast<double>(r0.transmissions);
    set_end_to_end(res, peak_rss_mb() - base_mb,
                   static_cast<double>(ns.accepted) / best.cpu_s,
                   r0.sim_time_s / best.wall_s,
                   static_cast<double>(ns.accepted) / tx,
                   static_cast<double>(ns.replay_rejected) / tx,
                   best.cpu_s * 1e6 / static_cast<double>(ns.uplinks),
                   accept_time_s(best, ns.accepted, 0.5) * 1e6,
                   accept_time_s(best, ns.accepted, 0.99) * 1e6);
    return res;
  }

  init_per_layer(res);
  Tracer::get().enable(o.seed);
  obs::registry().reset_values();
  const Rep t = run_rep(o, table, *clock);
  gate(res, t, reps[0]);
  const auto& tr = t.report;
  const double ingest_us =
      standalone_ingest_us(o.seed, static_cast<std::uint32_t>(kDevices), 200000);
  res.set("net.ingest_us_per_uplink", ingest_us, "us");
  res.set("net.dedup_ratio",
          static_cast<double>(tr.net_stats.dedup_dropped) /
              static_cast<double>(tr.net_stats.uplinks),
          "ratio");
  res.set("net.replay_rejected", static_cast<double>(tr.net_stats.replay_rejected), "count");
  res.set("citysim.events", static_cast<double>(tr.events), "count");
  res.set("citysim.uplinks_offered", static_cast<double>(tr.net_stats.uplinks), "count");
  res.set("citysim.collided_ratio",
          static_cast<double>(tr.collided) / static_cast<double>(tr.transmissions), "ratio");
  res.set("citysim.net_share",
          static_cast<double>(tr.net_stats.uplinks) * ingest_us / 1e6 / t.wall_s, "ratio");
  res.set("citysim.events_per_s", tr.events_per_s, "events/s");
  res.set("trace.overhead_pct", (t.cpu_s - reps[0].cpu_s) / reps[0].cpu_s * 100.0, "%");
  return res;
}

}  // namespace e2e
