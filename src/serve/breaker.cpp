#include "serve/breaker.hpp"

#include <algorithm>

#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"

namespace spmvml::serve {

namespace {

BreakerConfig sanitize(BreakerConfig cfg) {
  cfg.window = std::max(cfg.window, 1);
  cfg.error_threshold = std::clamp(cfg.error_threshold, 0.0, 1.0);
  cfg.open_cooldown_ms = std::max(cfg.open_cooldown_ms, 0.0);
  cfg.half_open_probes = std::max(cfg.half_open_probes, 1);
  return cfg;
}

}  // namespace

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(std::string name, BreakerConfig config)
    : name_(std::move(name)), cfg_(sanitize(config)) {
  publish_state(state_);
}

void CircuitBreaker::publish_state(BreakerState s) {
  obs::MetricsRegistry::global()
      .gauge("serve.breaker." + name_ + ".state")
      .set(static_cast<double>(static_cast<int>(s)));
}

void CircuitBreaker::trip(Clock::time_point now) {
  state_ = BreakerState::kOpen;
  opened_at_ = now;
  half_open_successes_ = 0;
  window_total_ = 0;
  window_errors_ = 0;
  ++trips_;
  publish_state(state_);
  obs::MetricsRegistry::global()
      .counter("serve.breaker." + name_ + ".trips")
      .inc();
  obs::log_warn("serve.breaker.open").kv("stage", name_);
}

bool CircuitBreaker::allow(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
    case BreakerState::kHalfOpen:
      return true;
    case BreakerState::kOpen: {
      const double since_ms =
          std::chrono::duration<double, std::milli>(now - opened_at_).count();
      if (since_ms < cfg_.open_cooldown_ms) return false;
      state_ = BreakerState::kHalfOpen;
      half_open_successes_ = 0;
      publish_state(state_);
      obs::log_info("serve.breaker.half_open").kv("stage", name_);
      return true;
    }
  }
  return true;
}

void CircuitBreaker::record(bool ok, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == BreakerState::kHalfOpen) {
    if (!ok) {
      trip(now);  // a failed probe reopens; the cooldown restarts
      return;
    }
    if (++half_open_successes_ >= cfg_.half_open_probes) {
      state_ = BreakerState::kClosed;
      window_total_ = 0;
      window_errors_ = 0;
      publish_state(state_);
      obs::log_info("serve.breaker.closed").kv("stage", name_);
    }
    return;
  }
  if (state_ != BreakerState::kClosed) return;  // open: stale outcome

  ++window_total_;
  if (!ok) ++window_errors_;
  if (window_total_ >= static_cast<std::uint64_t>(cfg_.window)) {
    const double frac = static_cast<double>(window_errors_) /
                        static_cast<double>(window_total_);
    if (frac >= cfg_.error_threshold && window_errors_ > 0) {
      trip(now);
    } else {
      // Tumble the window so old outcomes age out deterministically.
      window_total_ = 0;
      window_errors_ = 0;
    }
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::uint64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

}  // namespace spmvml::serve
