// Circuit breaker: the admission-control state machine behind /healthz.
//
// The classic three-state breaker:
//
//        failure ratio over a sliding window >= threshold
//   CLOSED ────────────────────────────────────────────────> OPEN
//     ^                                                        │
//     │ every probe succeeds                 cooldown elapses  │
//     │                                                        v
//     └──────────────────────────────────────────────── HALF-OPEN
//                         any probe fails ───> back to OPEN
//
// While OPEN the pipeline fast-fails admission (kIsolate only —
// kFailFast already stops at the first failure): tasks are
// quarantined immediately with stage "circuit" instead of burning a
// worker on a corpus that is currently failing. HALF-OPEN admits a
// bounded number of probe tasks; their outcomes decide between re-close
// and re-open. The window can be seeded from the run journal
// (obs/journal.h), so a corpus that was failing when the previous
// process died starts degraded instead of naively healthy. What counts
// as a failure is decided by the stage table in projection/pipeline.h
// (RecordBreakerOutcome, SeedBreakerFromJournal): only server faults.
//
// Outcomes are recorded at *task* granularity (never per SAX event), so
// a plain mutex is the right concurrency tool here. The injectable clock
// exists for deterministic state-machine tests; production uses the
// monotonic clock.

#ifndef XMLPROJ_COMMON_CIRCUIT_H_
#define XMLPROJ_COMMON_CIRCUIT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"

namespace xmlproj {

enum class CircuitState : int {
  kClosed = 0,
  kHalfOpen = 1,
  kOpen = 2,
};

// Human-readable state, as /healthz reports it.
const char* CircuitStateName(CircuitState state);

struct CircuitBreakerOptions {
  // Sliding window of most-recent task outcomes the failure ratio is
  // computed over.
  size_t window = 32;
  // Outcomes required in the window before the breaker may trip — a
  // single early failure must not open a cold breaker.
  size_t min_samples = 8;
  // Trip when failures/outcomes in the window reaches this ratio.
  double failure_threshold = 0.5;
  // OPEN holds for this long before the next Allow() moves to HALF-OPEN.
  // A cooldown past UINT64_MAX nanoseconds never elapses.
  uint64_t cooldown_ms = 5000;
  // Probe tasks admitted in HALF-OPEN; all must succeed to re-close.
  int half_open_probes = 3;
  // Injectable monotonic clock for tests; null uses MonotonicNowNs().
  uint64_t (*now_ns)() = nullptr;
  // Optional metrics: publishes xmlproj_circuit_state (gauge, the
  // CircuitState integer), xmlproj_circuit_opened_total and
  // xmlproj_circuit_fast_fail_total. Must outlive the breaker.
  MetricsRegistry* metrics = nullptr;
  // Optional structured log: every state transition emits a
  // "circuit.transition" line (warn entering open, info otherwise).
  // Must outlive the breaker.
  StructuredLogger* logger = nullptr;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(const CircuitBreakerOptions& options = {});
  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  // Admission check for one task. CLOSED: always true. OPEN: false until
  // the cooldown elapses, at which point the breaker moves to HALF-OPEN
  // and this call admits the first probe. HALF-OPEN: true for up to
  // half_open_probes calls, false beyond (those wait for the probes'
  // verdict). A false return is counted as a fast-fail.
  bool Allow();

  // Task outcome reports, one per admitted task (RecordBreakerOutcome
  // picks which). Outcomes arriving while OPEN (tasks admitted before
  // the trip) are dropped: they describe the pre-trip world and must not
  // perturb the probe accounting.
  void RecordSuccess();
  void RecordFailure();

  // Prepopulates the window from prior-run history (journal seeding),
  // preserving the success:failure ratio when the totals exceed the
  // window. A seeded window that already satisfies the trip condition
  // opens the breaker immediately (cooldown starts now). Call before
  // the breaker sees live traffic.
  void Seed(uint64_t successes, uint64_t failures);

  CircuitState state() const;
  // state() as its integer encoding — the shape the obs server's
  // circuit_state callback wants (obs/ cannot include this header).
  int state_int() const { return static_cast<int>(state()); }

  // Admissions denied (fast-fails) since construction.
  uint64_t denied() const;
  // CLOSED/HALF-OPEN → OPEN transitions since construction.
  uint64_t opened() const;

 private:
  uint64_t NowNs() const;
  // All Transition/record helpers assume mu_ is held.
  void TransitionTo(CircuitState next, uint64_t now);
  void PushOutcome(bool failure);
  bool ShouldTrip() const;

  CircuitBreakerOptions options_;
  mutable std::mutex mu_;
  CircuitState state_ = CircuitState::kClosed;
  // Ring buffer of the last `window` outcomes (true = failure).
  std::vector<bool> window_;
  size_t head_ = 0;
  size_t filled_ = 0;
  size_t failures_in_window_ = 0;
  uint64_t opened_at_ns_ = 0;
  int probes_issued_ = 0;
  int probe_successes_ = 0;
  uint64_t denied_ = 0;
  uint64_t opened_count_ = 0;
  // Resolved metric handles (null when options_.metrics is null).
  Gauge* state_gauge_ = nullptr;
  Counter* opened_counter_ = nullptr;
  Counter* fast_fail_counter_ = nullptr;
};

}  // namespace xmlproj

#endif  // XMLPROJ_COMMON_CIRCUIT_H_
