// Shared pieces of the repo benchmark: clocks, CPU and memory probes,
// order statistics, the in-memory span recorder used by traced runs,
// and the result line every workload prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: tiny phases, no rate sweep beyond two rungs. Used by
  /// the benchmark's own test; the gates and metric names are the same.
  bool smoke = false;
  std::filesystem::path work_dir;
};

[[nodiscard]] double seconds_since(Clock::time_point t0);
/// Process CPU time, user + system, from getrusage(RUSAGE_SELF).
[[nodiscard]] double process_cpu_s();
/// The calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] double thread_cpu_s();
/// Peak resident set size of the process (ru_maxrss), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank quantile, q in [0, 1]. 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// One printed metric. Every metric is printed as a text line
/// `metric <name> <value> <unit>`; the ones named in BENCHMARK.json
/// also go into the final JSON object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< all metrics, printed as text lines
  std::vector<std::string> json_names;  ///< subset for the JSON line
};

void add_metric(Result& r, std::string name, double value, std::string unit);
/// Marks the run incorrect and prints the reason at once.
void fail_gate(Result& r, const std::string& what);
/// Prints every metric as a text line, then the JSON result line.
void print_result(const Result& r);

/// CPU placement. The process starts with every CPU it may use; the
/// main thread keeps all but the last (the service's threads inherit
/// that set), and the generator and reader threads move to the last, so
/// the load generator does not compete with the system under test. With
/// a single CPU both calls do nothing.
void pin_service_cpus();
void pin_harness_cpu();
/// Moves the calling thread to the k-th allowed CPU (mod their count).
void pin_to_cpu_index(std::size_t k);

// ---- spans ---------------------------------------------------------------

/// In-memory span store for traced runs. A span has a name, start/end
/// (ns on the steady clock), the (var, seqno) of the update it belongs
/// to and its parent span. Spans are appended to a pre-reserved vector
/// and written out once, at the end of the run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t var;
    std::uint64_t seqno;
    std::int64_t parent;  ///< index into spans(), -1 for a root
  };

  explicit SpanLog(std::size_t reserve) { spans_.reserve(reserve); }

  /// Opens a span; returns its index. close() sets its end.
  std::int64_t open(const char* name, std::uint32_t var, std::uint64_t seqno,
                    std::int64_t parent);
  void close(std::int64_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the part covered by its
  /// direct children, summed over every span of that name.
  struct LayerTotal {
    double self_ns = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::vector<std::pair<std::string, LayerTotal>> self_times()
      const;

  /// Writes the first `max_spans` spans as Chrome trace_event JSON.
  void write_chrome_json(const std::filesystem::path& path,
                         std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

[[nodiscard]] std::uint64_t now_ns();

/// RAII span over a call into one layer; records nothing when `log` is
/// null, which is how the untraced replay runs the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint32_t var,
             std::uint64_t seqno, std::int64_t parent)
      : log_(log), index_(log ? log->open(name, var, seqno, parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int64_t index_;
};

}  // namespace perfbench
