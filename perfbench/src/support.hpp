// Shared plumbing of the benchmark program: statistics, the result
// report, and the in-memory span recorder used by traced runs.
//
// Spans are recorded only around calls the benchmark makes into the
// library (see workloads.cpp); nothing inside the library is traced.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// The highest percentile (at most p99) that leaves at least ten samples
/// beyond it, and its value.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
};
Tail tail_percentile(const std::vector<double>& v);

/// Upper end of the 95% Wilson score interval for failed / attempted.
/// Never 0 for attempted > 0, so a run with no failures still bounds the
/// failure rate, and one new failure moves it measurably.
double wilson_upper(double failed, double attempted);

// ---------------------------------------------------------------------------
// Result report: every metric by name with its unit, the operation
// counts, and the output-check violations.

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  /// Record an output-check violation (counted as a failed operation).
  void violation(const std::string& what) { violations_.push_back(what); }
  /// Extra detail for the result file and the human-readable log.
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }
  void note(const std::string& key, double value);

  // Operation counts; the Report is filled from the main thread only.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed, refused or shed operations

  // failed_frac's base: a number of operations that does not depend on
  // how fast the program runs (label cells, sweep cells, open-loop
  // requests; a closed loop's failures scaled to a fixed request count),
  // and the failures among them.
  double base = 0.0;
  double base_failed = 0.0;

  /// Operations whose count is fixed by the workload and seed.
  void count_fixed(std::uint64_t ops, std::uint64_t failures) {
    attempted += ops;
    failed += failures;
    base += static_cast<double>(ops);
    base_failed += static_cast<double>(failures);
  }

  std::uint64_t violations() const { return violations_.size(); }
  const std::map<std::string, Metric>& e2e_metrics() const { return e2e_; }
  const std::map<std::string, Metric>& layer_metrics() const { return layer_; }
  const std::map<std::string, std::string>& notes() const { return notes_; }
  const std::vector<std::string>& violation_list() const {
    return violations_;
  }

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> violations_;
};

// ---------------------------------------------------------------------------
// Span recorder.

struct SpanRecord {
  std::string name;
  std::string req;  // request id shared by every span of one request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t tid = 0;
  double work = 0.0;  // units of work the call did (nnz, rows, ...)
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  static std::int64_t now_ns();
  /// New span id; also what an open span pushes as the thread's parent.
  std::uint64_t next_id();
  void record(SpanRecord span);

  /// Durations (ms) and summed work of every span named `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  double total_ms(const std::string& name) const;
  double total_work(const std::string& name) const;

  /// Chrome trace-event JSON of every span recorded.
  void write_chrome_trace(const std::string& path) const;
  /// Per-span-name and per-layer self-time table. A span's self time is
  /// its duration minus the part of it covered by its child spans.
  std::string self_time_table() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call: records name, start, end, the enclosing
/// span on this thread as parent, and the request id. A no-op while the
/// tracer is disabled.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view req = {},
                double work = 0.0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return rec_.id; }
  void set_work(double work) { rec_.work = work; }

 private:
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
  SpanRecord rec_;
};

}  // namespace perfbench
