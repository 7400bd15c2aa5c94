// Per-workload SLO tracking with multi-window burn rates.
//
// Two objectives per workload, SRE-style:
//   availability — at most (1 - availability_objective) of requests may
//     fail server-side (HTTP 5xx);
//   latency — at most (1 - latency_objective) of requests may run
//     slower than latency_threshold_ms.
// For each objective the tracker reports the *burn rate* over a fast
// (5 min) and a slow (60 min) window: bad_fraction / error_budget,
// so 1.0 means "spending the budget exactly as fast as allowed",
// 14.4 on the fast window is the classic page-now threshold. The pair
// of windows is what makes the signal actionable — the fast window
// catches a new regression in minutes, the slow window holds the alarm
// until a real fraction of the monthly budget is gone.
//
// Mechanics: one ring of 60 one-minute buckets per workload
// ({requests, errors, slow} counters), folded to a bounded workload set
// ("other" past max_workloads — same cardinality discipline as the
// metric labels). Record() is a mutex + ring-slot update plus, when a
// MetricsRegistry is attached, a refresh of that workload's four
// xmlproj_slo_burn_milli gauges. AppendSloJson() renders the /statusz
// "slo" block.

#ifndef XMLPROJ_OBS_SLO_H_
#define XMLPROJ_OBS_SLO_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.h"

namespace xmlproj {

struct SloOptions {
  // A request slower than this burns latency budget.
  uint64_t latency_threshold_ms = 250;
  // Objectives as fractions of good requests (budget = 1 - objective).
  double availability_objective = 0.999;
  double latency_objective = 0.99;
  // Distinct workloads tracked before folding to "other".
  size_t max_workloads = 32;
  // Optional: burn-rate gauges (milli-units) land here.
  MetricsRegistry* metrics = nullptr;
  // Injectable clock for tests (unix ms); null uses the wall clock.
  uint64_t (*now_ms)() = nullptr;
};

class SloTracker {
 public:
  SloTracker() : SloTracker(SloOptions{}) {}
  explicit SloTracker(const SloOptions& options);
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  // Folds one finished request into its workload's current minute
  // bucket. `error` means a 5xx: a server fault in the pipeline's stage
  // table (the rows the circuit breaker counts as failures), a failed
  // projector compile, or the breaker's own 503. 4xx burn no budget.
  void Record(const std::string& workload, uint64_t duration_ns, bool error);

  // Burn rates for one workload over one window.
  struct WindowBurn {
    uint64_t requests = 0;
    uint64_t errors = 0;
    uint64_t slow = 0;
    double availability_burn = 0;  // error fraction / availability budget
    double latency_burn = 0;       // slow fraction / latency budget
  };
  // `window_minutes` is clamped to the 60-minute ring.
  WindowBurn Burn(const std::string& workload, uint64_t window_minutes) const;

  // The /statusz "slo" block: objectives plus per-workload 5m/60m
  // burn rates and counts.
  void AppendSloJson(std::string* out) const;

  const SloOptions& options() const { return options_; }

 private:
  static constexpr size_t kRingMinutes = 60;
  struct Bucket {
    uint64_t minute = 0;  // unix minute this slot currently holds
    uint64_t requests = 0;
    uint64_t errors = 0;
    uint64_t slow = 0;
  };
  struct Workload {
    Bucket ring[kRingMinutes];
  };

  uint64_t NowMs() const;
  // Sums the last `window_minutes` buckets ending at `now_minute`.
  WindowBurn BurnLocked(const Workload& workload, uint64_t now_minute,
                        uint64_t window_minutes) const;

  const SloOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Workload> workloads_;
};

}  // namespace xmlproj

#endif  // XMLPROJ_OBS_SLO_H_
