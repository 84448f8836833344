// Scoped RAII trace spans emitting Chrome trace-event JSON.
//
//   { obs::TraceSpan span("collect.matrix"); span.arg("index", i); ... }
//
// With SPMVML_TRACE=out.json set (or trace_start(path) called), every
// span records one complete ("ph":"X") event with microsecond timestamps
// relative to the trace epoch, the process pid slot fixed at 1, and the
// same small per-thread tid the logger uses. The resulting file loads in
// Perfetto / chrome://tracing. trace_instant() adds thread-scoped instant
// events (checkpoint writes).
//
// Off by default and zero-overhead when off: TraceSpan's constructor
// checks one relaxed atomic; disabled spans store nothing, take no lock
// and read no clock. Spans are strictly scoped objects, so events on one
// thread always nest properly (the unit tests verify this from the
// recorded intervals).
//
// Events are buffered in memory and written at trace_stop() — or, for
// the SPMVML_TRACE path, from an atexit hook. A span that is still open
// when the buffer is written is simply absent from the file (Chrome's
// own tracer has the same property).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace spmvml::obs {

/// True when spans are being recorded. First call reads SPMVML_TRACE.
bool trace_enabled();

/// Start recording; events flush to `path` on trace_stop() or process
/// exit. An empty path records to memory only (tests read it back with
/// trace_snapshot()).
void trace_start(const std::string& path);

/// Stop recording, write the JSON file (if a path was configured) and
/// clear the buffer.
void trace_stop();

struct TraceArg {
  std::string key;
  std::string json;  // pre-rendered JSON value (number or quoted string)
};

struct TraceEvent {
  std::string name;
  char phase = 'X';  // 'X' complete, 'i' instant
  double ts_us = 0;  // relative to the trace epoch
  double dur_us = 0; // complete events only
  int tid = 0;
  std::vector<TraceArg> args;
};

/// Copy of the event buffer (test hook).
std::vector<TraceEvent> trace_snapshot();

/// Serialize events as a Chrome trace-event JSON document.
void write_trace_json(std::ostream& out, const std::vector<TraceEvent>& events);

/// Thread-scoped instant event; no-op when tracing is off.
void trace_instant(std::string_view name);

/// Instant event tagged with a request id ("args":{"id":...}); serving
/// uses these for per-request points (admit, shed, infer) that have no
/// duration of their own. No-op when tracing is off.
void trace_instant(std::string_view name, std::string_view id);

/// Complete ("X") event that *ends now* and started dur_us ago, tagged
/// with a request id. Serving phases that start on one thread and end on
/// another (queue wait, whole-request latency) cannot be scoped RAII
/// spans, so they are recorded retroactively from the measured duration.
/// No-op when tracing is off.
void trace_complete(std::string_view name, double dur_us,
                    std::string_view id);

class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  TraceSpan& arg(std::string_view key, double v);
  TraceSpan& arg(std::string_view key, std::int64_t v);
  TraceSpan& arg(std::string_view key, std::uint64_t v);
  TraceSpan& arg(std::string_view key, int v) {
    return arg(key, static_cast<std::int64_t>(v));
  }
  TraceSpan& arg(std::string_view key, unsigned v) {
    return arg(key, static_cast<std::uint64_t>(v));
  }
  TraceSpan& arg(std::string_view key, std::string_view v);

 private:
  bool enabled_;
  std::string name_;
  double start_us_ = 0;
  std::vector<TraceArg> args_;
};

}  // namespace spmvml::obs
