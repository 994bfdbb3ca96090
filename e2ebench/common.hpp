// Shared plumbing for the end-to-end benchmark: run options, clocks, CPU
// and memory probes, the result record every workload fills in, and small
// statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace e2e {

namespace obs = choir::obs;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;   ///< construct, report setup time, exit
  std::string repo_root;     ///< checkout root (for tests/data)
  std::string out_dir;       ///< scratch + trace output, inside the checkout
};

using Clock = std::chrono::steady_clock;

inline double since_s(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double since_s(Clock::time_point t0) { return since_s(t0, Clock::now()); }

/// Process CPU time (user + system, all threads), seconds.
double process_cpu_s();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();

/// Resident-set probes from /proc/self/status, in MB. reset_peak_rss()
/// restarts the kernel's high-water mark so peak growth can be measured
/// from a baseline taken after the inputs exist.
double rss_mb();
double peak_rss_mb();
void reset_peak_rss();

/// One workload run's outcome. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); a run whose
/// correctness gate failed carries `correct = false` and a verdict.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string verdict;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    if (correct) verdict = why;
    else verdict += "; " + why;
    correct = false;
  }
};

/// Prints `r` as the JSON result line that ends every run's output.
void print_result(const Result& r);

/// Linear-interpolated quantile of an unsorted sample (q in [0,1]).
double quantile(std::vector<double> v, double q);
/// The same over the first `n` values of an already sorted array; it
/// allocates nothing, so it can run inside a peak-RSS measurement.
double sorted_quantile(const double* v, std::size_t n, double q);
double median(std::vector<double> v);

/// Reads a histogram / counter from the program's obs registry by name;
/// absent instruments read as empty / zero.
obs::HistogramSnapshot obs_hist(const obs::RegistrySnapshot& s,
                                const std::string& name);
std::uint64_t obs_counter(const obs::RegistrySnapshot& s,
                          const std::string& name);

/// Monotone wall-clock stamp in microseconds (steady clock), comparable
/// across threads.
inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace e2e
