#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

#include "common.hpp"
#include "util/atomic_write.hpp"

namespace e2e {

namespace {

thread_local std::vector<std::uint64_t> t_open;  // open span ids, innermost last

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

std::uint64_t Tracer::begin(double& start_us, std::uint64_t& parent) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = next_id_++;
  }
  parent = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(id);
  start_us = now_us();
  return id;
}

void Tracer::end(const char* name, std::uint64_t id, std::uint64_t parent,
                 double start_us) {
  const double end_us = now_us();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, start_us, end_us, id, parent, thread_ordinal()});
}

double Tracer::total_ms(const std::string& name) const {
  double t = 0.0;
  for (double d : durations_ms(name)) t += d;
  return t;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

std::string Tracer::budget_table() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Children of one parent do not overlap (they run on the parent's
  // thread), so self time is duration minus the sum of child durations.
  std::map<std::uint64_t, double> child_us;
  for (const auto& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const auto& s : spans_) {
    Row& r = rows[s.name];
    const double dur = s.end_us - s.start_us;
    ++r.count;
    r.total_ms += dur / 1e3;
    r.self_ms += (dur - child_us[s.id]) / 1e3;
  }
  std::string out = "# per-layer budget (benchmark spans)\n";
  char line[160];
  std::snprintf(line, sizeof(line), "%-34s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  out += line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "%-34s %8llu %12.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ms, r.self_ms);
    out += line;
  }
  return out;
}

void Tracer::write(const std::string& json_path, const std::string& table_path,
                   const std::string& appendix) const {
  std::string json = "{\"traceEvents\": [\n";
  {
    std::lock_guard<std::mutex> lk(mu_);
    double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
    for (const auto& s : spans_) t0 = std::min(t0, s.start_us);
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"e2ebench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"id\":%llu,\"parent\":%llu,\"run\":%llu}}%s\n",
                    s.name, s.start_us - t0, s.end_us - s.start_us,
                    s.tid, static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(run_id_),
                    i + 1 < spans_.size() ? "," : "");
      json += buf;
    }
  }
  json += "]}\n";
  choir::util::atomic_write(json_path, json);
  choir::util::atomic_write(table_path, budget_table() + appendix);
}

}  // namespace e2e
