// choir_e2ebench — one benchmark from IQ to durable uplink.
//
//   choir_e2ebench --workload=gw_sparse|gw_collide|net_durable|city_1m
//                  --seed=N --seconds=S --trace=0|1 [--setup-only]
//                  [--repo-root=DIR] [--out-dir=DIR]
//
// Prints human-readable notes as '#' lines and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. An untraced run reports
// the end-to-end metrics, a traced run the per-layer metrics (and writes a
// Perfetto trace plus a budget table under --out-dir). --setup-only builds
// the workload's serving stack once and prints "setup_s <seconds>".
// e2ebench/run.py builds this binary and drives it; see e2ebench/README.md.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  choir::Args args(argc, argv);
  e2e::RunOptions o;
  o.workload = args.get("workload", "");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  o.seconds = args.get_double("seconds", 10.0);
  o.trace = args.get_int("trace", 0) != 0;
  o.setup_only = args.has("setup-only");
  o.repo_root = args.get("repo-root", ".");
  o.out_dir = args.get("out-dir", ".bench_out");

  const bool gw = o.workload == "gw_sparse" || o.workload == "gw_collide";
  const bool collide = o.workload == "gw_collide";
  if (!gw && o.workload != "net_durable" && o.workload != "city_1m") {
    std::fprintf(stderr, "unknown --workload '%s'\n", o.workload.c_str());
    return 2;
  }
  try {
    std::filesystem::create_directories(o.out_dir);
    if (o.setup_only) {
      const double s = gw ? e2e::setup_gw(o, collide)
                       : o.workload == "net_durable" ? e2e::setup_net(o)
                                                     : e2e::setup_city(o);
      std::printf("setup_s %.9f\n", s);
      return 0;
    }
    const e2e::Result r = gw ? e2e::run_gw(o, collide)
                          : o.workload == "net_durable" ? e2e::run_net(o)
                                                        : e2e::run_city(o);
    if (o.trace) {
      const std::string stem =
          o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed);
      std::string layers = "# per-layer metrics\n";
      char line[160];
      for (const auto& [name, vu] : r.metrics) {
        std::snprintf(line, sizeof(line), "%-34s %16.6g %s\n", name.c_str(),
                      vu.first, vu.second.c_str());
        layers += line;
      }
      e2e::Tracer::get().write(stem + ".json", stem + ".budget.txt", layers);
      std::fputs(e2e::Tracer::get().budget_table().c_str(), stdout);
      std::printf("# trace written to %s.json\n", stem.c_str());
    }
    e2e::print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "choir_e2ebench: %s\n", e.what());
    return 2;
  }
}
