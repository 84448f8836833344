// Per-stage circuit breaker for the serving request path.
//
// A stage that keeps failing must stop being *tried*: every doomed
// attempt burns worker time that healthy requests need. The breaker is
// the standard three-state machine, tripped by error rate alone:
//
//   closed ──(windowed error rate over threshold)──> open
//   open   ──(cooldown elapsed)──> half-open
//   half-open ──(probe successes)──> closed
//             ──(any probe failure)──> open (cooldown restarts)
//
// While a stage's breaker is open the Service walks down the
// degradation ladder instead of calling the stage: an open feature or
// inference breaker sends select and indirect to the static CSR answer
// (always valid, needs no model and no features), an open materialize
// breaker serves the selection unmaterialized.
//
// Time is passed in explicitly (steady_clock time_points), so the state
// machine is unit-testable without sleeping; callers use Clock::now().
// All methods are thread-safe; the lock is per-breaker and the critical
// sections are a handful of arithmetic ops.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace spmvml::serve {

enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* breaker_state_name(BreakerState s);

struct BreakerConfig {
  /// Sliding outcome window: the error-rate trip needs at least this
  /// many recorded outcomes and fires when the windowed error fraction
  /// reaches `error_threshold`.
  int window = 16;
  double error_threshold = 0.5;
  /// open -> half-open after this cooldown.
  double open_cooldown_ms = 100.0;
  /// Consecutive half-open successes required to close again.
  int half_open_probes = 3;
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  CircuitBreaker(std::string name, BreakerConfig config);

  /// May the caller attempt the stage right now? Closed: yes. Open:
  /// no, until the cooldown promotes to half-open (this call performs
  /// the promotion). Half-open: yes — traffic is the probe.
  bool allow(Clock::time_point now);

  /// Record one stage outcome. Failures feed the error-rate trip; in
  /// half-open, `half_open_probes` consecutive successes close the
  /// breaker and any failure reopens it.
  void record(bool ok, Clock::time_point now);

  BreakerState state() const;
  std::uint64_t trips() const;
  const std::string& name() const { return name_; }

 private:
  void trip(Clock::time_point now);   // -> open (caller holds mu_)
  void publish_state(BreakerState s); // metrics gauge (caller holds mu_)

  const std::string name_;
  const BreakerConfig cfg_;

  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  Clock::time_point opened_at_{};
  // Sliding window as counters over the last `window` outcomes: a ring
  // of booleans would do, but counts are all the trip needs.
  std::uint64_t window_total_ = 0;
  std::uint64_t window_errors_ = 0;
  int half_open_successes_ = 0;
  std::uint64_t trips_ = 0;
};

}  // namespace spmvml::serve
