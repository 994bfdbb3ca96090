#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace e2e {

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double status_field_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string k(key);
  while (std::getline(in, line)) {
    if (line.compare(0, k.size(), k) == 0) {
      return std::strtod(line.c_str() + k.size(), nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double rss_mb() { return status_field_mb("VmRSS:"); }
double peak_rss_mb() { return status_field_mb("VmHWM:"); }

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

void print_result(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  if (!r.correct) {
    std::printf("# verdict: FAIL: %s\n", r.verdict.c_str());
    std::printf("%s, \"metrics\": {}}\n", out.c_str());
    std::fflush(stdout);
    return;
  }
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : r.metrics) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return sorted_quantile(v.data(), v.size(), q);
}

double sorted_quantile(const double* v, std::size_t n, double q) {
  if (n == 0) return 0.0;
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

obs::HistogramSnapshot obs_hist(const obs::RegistrySnapshot& s,
                                const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return h;
  }
  return {};
}

std::uint64_t obs_counter(const obs::RegistrySnapshot& s,
                          const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace e2e
