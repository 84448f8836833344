#include "support.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank > 0) --rank;
  return v[std::min(rank, v.size() - 1)];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Tail tail_percentile(const std::vector<double>& v) {
  Tail t;
  if (v.empty()) return t;
  // Nearest rank r leaves n - r samples beyond it; keep n - r >= 10.
  const double n = static_cast<double>(v.size());
  double pct = 99.0;
  if (n * (1.0 - pct / 100.0) < 10.0)
    pct = std::max(50.0, std::floor(100.0 * (1.0 - 10.0 / n)));
  t.pct = pct;
  t.value = quantile(v, pct / 100.0);
  return t;
}

double wilson_upper(double failed, double attempted) {
  if (attempted <= 0.0) return 1.0;
  const double z = 1.959963984540054;
  const double n = attempted;
  const double p = std::min(failed, n) / n;
  const double z2n = z * z / n;
  return (p + z2n / 2.0 + z * std::sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))) /
         (1.0 + z2n);
}

void Report::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  note(key, std::string(buf));
}

// ---------------------------------------------------------------------------

namespace {

thread_local std::uint64_t t_parent = 0;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  if (span.tid == 0) span.tid = thread_tag();
  std::lock_guard<std::mutex> lock(mu_);
  if (span.id == 0) span.id = next_id_++;
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.ms());
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations_ms(name)) sum += d;
  return sum;
}

double Tracer::total_work(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const auto& s : spans_)
    if (s.name == name) sum += s.work;
  return sum;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  std::int64_t origin = 0;
  for (const auto& s : spans_)
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const auto& s : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f",
                  static_cast<unsigned long long>(s.tid),
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << "{\"name\":\"" << json_escape(s.name) << "\"," << buf
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"req\":\"" << json_escape(s.req) << "\",\"work\":" << s.work
        << "}}";
  }
  out << "\n]}\n";
}

std::string Tracer::self_time_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& s : spans_)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> by_name, by_layer;
  for (const auto& s : spans_) {
    const auto it = children.find(s.id);
    const std::int64_t child_ns =
        it == children.end() ? 0 : covered_ns(it->second, s.start_ns, s.end_ns);
    const double self = static_cast<double>(s.end_ns - s.start_ns - child_ns) * 1e-6;
    for (auto* table : {&by_name, &by_layer}) {
      const std::string key =
          table == &by_name ? s.name : s.name.substr(0, s.name.find('.'));
      Row& row = (*table)[key];
      ++row.count;
      row.total_ms += s.ms();
      row.self_ms += self;
    }
  }
  std::ostringstream out;
  char buf[160];
  for (auto* table : {&by_layer, &by_name}) {
    std::snprintf(buf, sizeof(buf), "%-34s %10s %12s %12s\n",
                  table == &by_layer ? "layer" : "span", "count", "total_ms",
                  "self_ms");
    out << buf;
    for (const auto& [key, row] : *table) {
      std::snprintf(buf, sizeof(buf), "%-34s %10llu %12.3f %12.3f\n",
                    key.c_str(), static_cast<unsigned long long>(row.count),
                    row.total_ms, row.self_ms);
      out << buf;
    }
    out << "\n";
  }
  return out.str();
}

Span::Span(std::string_view name, std::string_view req, double work) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.req = req;
  rec_.work = work;
  rec_.id = tracer.next_id();
  rec_.parent = t_parent;
  saved_parent_ = t_parent;
  t_parent = rec_.id;
  rec_.start_ns = Tracer::now_ns();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = Tracer::now_ns();
  t_parent = saved_parent_;
  Tracer::get().record(std::move(rec_));
}

}  // namespace perfbench
