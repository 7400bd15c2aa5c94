// Tests for the circuit breaker (common/circuit.h): the full state
// machine under an injectable clock — trip threshold and min-sample
// guard, cooldown into HALF-OPEN, probe admission and verdicts (re-close
// on all-success, re-open on any failure), journal-style Seed()
// semantics including ratio-preserving scale-down, denial accounting,
// and the exported metrics.

#include <cstdint>

#include <gtest/gtest.h>

#include "common/circuit.h"
#include "obs/metrics.h"

namespace xmlproj {
namespace {

// Injectable clock: a file-scope knob because CircuitBreakerOptions
// takes a plain function pointer.
uint64_t g_now_ns = 0;
uint64_t FakeNow() { return g_now_ns; }

CircuitBreakerOptions TestOptions() {
  CircuitBreakerOptions options;
  options.window = 8;
  options.min_samples = 4;
  options.failure_threshold = 0.5;
  options.cooldown_ms = 1000;
  options.half_open_probes = 2;
  options.now_ns = &FakeNow;
  return options;
}

void Fail(CircuitBreaker* breaker, int n) {
  for (int i = 0; i < n; ++i) breaker->RecordFailure();
}
void Succeed(CircuitBreaker* breaker, int n) {
  for (int i = 0; i < n; ++i) breaker->RecordSuccess();
}

TEST(CircuitBreakerTest, StartsClosedAndAdmitsEverything) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  EXPECT_EQ(breaker.state_int(), 0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.denied(), 0u);
}

TEST(CircuitBreakerTest, MinSamplesGuardsAColdBreaker) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  // 3 straight failures: 100% failure rate but below min_samples=4.
  Fail(&breaker, 3);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  breaker.RecordFailure();  // 4th sample crosses the guard
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.opened(), 1u);
}

TEST(CircuitBreakerTest, TripsAtTheThresholdRatio) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  // 4 outcomes, 1 failure: 25% < 50% — stays closed.
  Succeed(&breaker, 3);
  Fail(&breaker, 1);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  // Push to 3 failures / 6 outcomes = exactly 50% — trips.
  Fail(&breaker, 2);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
}

TEST(CircuitBreakerTest, SlidingWindowForgetsOldFailures) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());  // window 8
  Fail(&breaker, 3);
  // 8 successes evict all 3 failures from the window.
  Succeed(&breaker, 8);
  // A single new failure is 1/8 — far from tripping.
  Fail(&breaker, 1);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
}

TEST(CircuitBreakerTest, OpenDeniesUntilCooldownThenProbes) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  Fail(&breaker, 4);
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);

  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.denied(), 2u);

  // Just short of the 1000 ms cooldown: still open.
  g_now_ns = 999 * 1000000ull;
  EXPECT_FALSE(breaker.Allow());

  // Cooldown elapsed: HALF-OPEN, admits exactly half_open_probes=2.
  g_now_ns = 1000 * 1000000ull;
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());  // probe quota exhausted
}

TEST(CircuitBreakerTest, AllProbesSucceedingRecloses) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  Fail(&breaker, 4);
  g_now_ns = 1000 * 1000000ull;
  ASSERT_TRUE(breaker.Allow());
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);  // 1 of 2 verdicts
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);

  // Re-close cleared the window: the old failures are forgotten and a
  // fresh single failure cannot re-trip.
  Fail(&breaker, 1);
  Succeed(&breaker, 3);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
}

TEST(CircuitBreakerTest, AnyProbeFailingReopens) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  Fail(&breaker, 4);
  g_now_ns = 1000 * 1000000ull;
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.opened(), 2u);

  // The new OPEN stint runs its own cooldown from the re-open.
  EXPECT_FALSE(breaker.Allow());
  g_now_ns = 2000 * 1000000ull;
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
}

TEST(CircuitBreakerTest, OutcomesArrivingWhileOpenAreDropped) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  Fail(&breaker, 4);
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);
  // Stragglers from tasks admitted pre-trip must not perturb the probe
  // accounting or re-close the breaker.
  Succeed(&breaker, 10);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
}

TEST(CircuitBreakerTest, SeedBelowMinSamplesStaysClosed) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  breaker.Seed(0, 3);  // 3 failures < min_samples=4
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
}

TEST(CircuitBreakerTest, SeedWithFailingHistoryStartsOpen) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  breaker.Seed(0, 32);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_FALSE(breaker.Allow());
  // Recovery path still works: cooldown → probes → close.
  g_now_ns = 1000 * 1000000ull;
  ASSERT_TRUE(breaker.Allow());
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
}

TEST(CircuitBreakerTest, SeedScalesDownPreservingTheRatio) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());  // window 8
  // 1000 outcomes at a 25% failure rate → scaled into 8 slots with ~25%
  // failures: below the 50% threshold, stays closed.
  breaker.Seed(750, 250);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);

  CircuitBreaker failing(TestOptions());
  // 75% failure rate preserved through scale-down → trips.
  failing.Seed(250, 750);
  EXPECT_EQ(failing.state(), CircuitState::kOpen);
}

TEST(CircuitBreakerTest, SeedNeverRoundsRealFailuresToZero) {
  CircuitBreakerOptions options = TestOptions();
  options.window = 4;
  CircuitBreaker breaker(options);
  // 1 failure in 10000: scale-down to 4 slots must keep >= 1 failure —
  // a failing history cannot round to a spotless window.
  breaker.Seed(9999, 1);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);  // 1/4 < 50%
  breaker.RecordFailure();  // 2/4 = 50% — the seeded failure counted
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
}

TEST(CircuitBreakerTest, SeedWithNoHistoryIsANoOp) {
  g_now_ns = 0;
  CircuitBreaker breaker(TestOptions());
  breaker.Seed(0, 0);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

// cooldown_ms × 10^6 passes UINT64_MAX for cooldowns over ~1.8 × 10^13 ms
// (~584 years): a wrapped product would reopen the breaker within a
// millisecond. The cooldown saturates instead and never elapses.
TEST(CircuitBreakerTest, CooldownPastTheClockRangeNeverElapses) {
  g_now_ns = 1000;
  CircuitBreakerOptions options = TestOptions();
  options.cooldown_ms = 18446744073710ull;
  CircuitBreaker breaker(options);
  breaker.Seed(0, 32);
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);
  g_now_ns += 1000000;  // 1 ms later
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  g_now_ns = UINT64_MAX - 1;
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
}

TEST(CircuitBreakerTest, PublishesMetrics) {
  g_now_ns = 0;
  MetricsRegistry registry;
  CircuitBreakerOptions options = TestOptions();
  options.metrics = &registry;
  CircuitBreaker breaker(options);

  Gauge* state = registry.GetGauge("xmlproj_circuit_state");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->Value(), 0);

  Fail(&breaker, 4);
  EXPECT_EQ(state->Value(), 2);
  EXPECT_EQ(registry.GetCounter("xmlproj_circuit_opened_total")->Value(), 1u);

  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(registry.GetCounter("xmlproj_circuit_fast_fail_total")->Value(),
            1u);

  g_now_ns = 1000 * 1000000ull;
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(state->Value(), 1);  // half-open
}

TEST(CircuitStateNameTest, NamesMatchHealthzVocabulary) {
  EXPECT_STREQ(CircuitStateName(CircuitState::kClosed), "closed");
  EXPECT_STREQ(CircuitStateName(CircuitState::kHalfOpen), "half-open");
  EXPECT_STREQ(CircuitStateName(CircuitState::kOpen), "open");
}

TEST(CircuitBreakerTest, DefaultOptionsClampDegenerateValues) {
  CircuitBreakerOptions options = TestOptions();
  options.window = 0;       // clamped to >= 1
  options.min_samples = 50; // clamped to window
  options.half_open_probes = 0;  // clamped to >= 1
  CircuitBreaker breaker(options);
  breaker.RecordFailure();  // window 1, min_samples 1, 100% failure
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
}

}  // namespace
}  // namespace xmlproj
