// The benchmark workloads (BENCHMARK.json lists the ones it is judged on;
// gw_collide runs by hand). Each takes its inputs from the seed alone,
// drives the program through its public entry points and fills a Result:
// end-to-end metrics on an untraced run, per-layer metrics on a traced one.
#pragma once

#include "common.hpp"

namespace e2e {

/// Constructs everything the workload needs to serve and returns the
/// seconds from construction to ready (one cold set-up in this process).
double setup_gw(const RunOptions& o, bool collide);
double setup_net(const RunOptions& o);
double setup_city(const RunOptions& o);

Result run_gw(const RunOptions& o, bool collide);
Result run_net(const RunOptions& o);
Result run_city(const RunOptions& o);

/// Single-thread in-memory NetServer::ingest_at cost (us per uplink) over
/// a net_durable-shaped schedule of `uplinks` records across `devices`.
double standalone_ingest_us(std::uint64_t seed, std::uint32_t devices,
                            std::size_t uplinks);

/// splitmix64: derives independent sub-seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Metric names shared by every workload (see BENCHMARK.json).
void set_end_to_end(Result& r, double mem_mb, double goodput_per_core_s,
                    double rt_factor, double delivery_ratio,
                    double false_alarm_ratio, double cpu_us_per_uplink,
                    double ingest_p50_us, double ingest_p99_us);

/// Fills every per-layer metric with 0 so a traced run always reports the
/// full set; each workload then overwrites the layers it exercises.
void init_per_layer(Result& r);

}  // namespace e2e
