#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void add_metric(Result& r, std::string name, double value, std::string unit) {
  r.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void fail_gate(Result& r, const std::string& what) {
  r.correct = false;
  std::printf("GATE FAILED: %s\n", what.c_str());
  std::fflush(stdout);
}

void print_result(const Result& r) {
  for (const Metric& m : r.metrics)
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("correct %s  attempted %llu  failed %llu\n",
              r.correct ? "yes" : "NO",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : r.json_names) {
    const auto it = std::find_if(r.metrics.begin(), r.metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == r.metrics.end()) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(it->value) ? it->value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            it->unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

namespace {

std::vector<int> allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  return cpus;
}

void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)::sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

void pin_service_cpus() {
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpus.pop_back();
  pin(cpus);
}

void pin_to_cpu_index(std::size_t k) {
  const std::vector<int> cpus = allowed_cpus();
  if (!cpus.empty()) pin({cpus[k % cpus.size()]});
}

void pin_harness_cpu() {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  pin({cpus.back()});
}

// ---- spans ---------------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::int64_t SpanLog::open(const char* name, std::uint32_t var,
                           std::uint64_t seqno, std::int64_t parent) {
  spans_.push_back(Span{name, now_ns(), 0, var, seqno, parent});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::vector<std::pair<std::string, SpanLog::LayerTotal>> SpanLog::self_times()
    const {
  // Children of one parent run one after another, so the part of the
  // parent they cover is the sum of their durations.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, LayerTotal> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotal& t = totals[spans_[i].name];
    t.self_ns += std::max(
        0.0, static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
                 child_ns[i]);
    ++t.count;
  }
  return {totals.begin(), totals.end()};
}

void SpanLog::write_chrome_json(const std::filesystem::path& path,
                                std::size_t max_spans) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < std::min(max_spans, spans_.size()); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"var\": %u, \"seqno\": %llu, \"parent\": %lld}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.var,
                  static_cast<unsigned long long>(s.seqno),
                  static_cast<long long>(s.parent));
    out << line;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
