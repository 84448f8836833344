// Circuit-breaker state-machine tests. Time is injected as explicit
// steady_clock time_points, so every transition — including the open →
// half-open cooldown — is exercised without sleeping. (The tsan job
// runs these too: the breaker is the serving path's contention point.)
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "serve/breaker.hpp"

namespace spmvml::serve {
namespace {

using Clock = CircuitBreaker::Clock;

Clock::time_point t0() {
  static const Clock::time_point t = Clock::now();
  return t;
}

Clock::time_point at_ms(double ms) {
  return t0() + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

BreakerConfig small_cfg() {
  BreakerConfig cfg;
  cfg.window = 4;
  cfg.error_threshold = 0.5;
  cfg.open_cooldown_ms = 100.0;
  cfg.half_open_probes = 2;
  return cfg;
}

TEST(Breaker, StartsClosedAndAllows) {
  CircuitBreaker b("t_start", small_cfg());
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.allow(at_ms(0)));
  EXPECT_EQ(b.trips(), 0u);
}

TEST(Breaker, SuccessesNeverTrip) {
  CircuitBreaker b("t_ok", small_cfg());
  for (int i = 0; i < 64; ++i) b.record(true, at_ms(i));
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.trips(), 0u);
}

TEST(Breaker, ErrorRateOverThresholdTrips) {
  CircuitBreaker b("t_err", small_cfg());
  // Window 4, threshold 0.5: two failures in four outcomes trip it.
  b.record(true, at_ms(0));
  b.record(false, at_ms(1));
  b.record(true, at_ms(2));
  EXPECT_EQ(b.state(), BreakerState::kClosed);  // window not full yet
  b.record(false, at_ms(3));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 1u);
  EXPECT_FALSE(b.allow(at_ms(4)));
}

TEST(Breaker, ErrorRateUnderThresholdTumblesWindow) {
  CircuitBreaker b("t_tumble", small_cfg());
  // One failure per full window stays under 0.5 forever.
  for (int w = 0; w < 8; ++w) {
    b.record(false, at_ms(w * 4));
    for (int i = 1; i < 4; ++i) b.record(true, at_ms(w * 4 + i));
  }
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.trips(), 0u);
}

TEST(Breaker, CooldownPromotesToHalfOpenViaAllow) {
  CircuitBreaker b("t_cool", small_cfg());
  for (int i = 0; i < 4; ++i) b.record(false, at_ms(i));
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow(at_ms(50)));  // cooldown (100 ms) not elapsed
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_TRUE(b.allow(at_ms(103 + 4)));  // opened at t=3, +100 ms passed
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
}

TEST(Breaker, HalfOpenProbeSuccessesClose) {
  CircuitBreaker b("t_close", small_cfg());
  for (int i = 0; i < 4; ++i) b.record(false, at_ms(i));
  ASSERT_TRUE(b.allow(at_ms(200)));
  ASSERT_EQ(b.state(), BreakerState::kHalfOpen);
  b.record(true, at_ms(201));
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);  // 1 of 2 probes
  b.record(true, at_ms(202));
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.allow(at_ms(203)));
  EXPECT_EQ(b.trips(), 1u);
}

TEST(Breaker, HalfOpenProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker b("t_reopen", small_cfg());
  for (int i = 0; i < 4; ++i) b.record(false, at_ms(i));
  ASSERT_TRUE(b.allow(at_ms(200)));
  b.record(true, at_ms(201));   // one good probe...
  b.record(false, at_ms(202));  // ...then a failure: reopen
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 2u);
  EXPECT_FALSE(b.allow(at_ms(250)));  // cooldown restarted at t=202
  EXPECT_TRUE(b.allow(at_ms(310)));
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
}

TEST(Breaker, OutcomesWhileOpenAreIgnored) {
  CircuitBreaker b("t_stale", small_cfg());
  for (int i = 0; i < 4; ++i) b.record(false, at_ms(i));
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  // Stale in-flight outcomes landing after the trip don't double-trip
  // or corrupt the next half-open probe accounting.
  b.record(false, at_ms(5));
  b.record(true, at_ms(6));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 1u);
}

TEST(Breaker, SanitizesDegenerateConfig) {
  BreakerConfig cfg;
  cfg.window = 0;
  cfg.half_open_probes = 0;
  cfg.open_cooldown_ms = -5.0;
  cfg.error_threshold = 1.0;
  CircuitBreaker b("t_sane", cfg);
  b.record(false, at_ms(0));  // window clamped to 1: trips at once
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_TRUE(b.allow(at_ms(0)));  // cooldown clamped to 0
  b.record(true, at_ms(1));   // probes clamped to 1: closes
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(Breaker, ConcurrentRecordAndAllowAreSafe) {
  // tsan coverage: hammer one breaker from several threads through
  // full trip/cooldown/close cycles.
  BreakerConfig cfg = small_cfg();
  cfg.open_cooldown_ms = 0.1;
  CircuitBreaker b("t_race", cfg);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&b, w] {
      for (int i = 0; i < 500; ++i) {
        const auto now = Clock::now();
        if (b.allow(now)) b.record((i + w) % 3 != 0, now);
        b.state();
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_GE(b.trips(), 0u);  // no crash / no race is the assertion
}

}  // namespace
}  // namespace spmvml::serve
