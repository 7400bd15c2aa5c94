// Observability primitives: counters, gauges, and latency histograms,
// collected in a MetricsRegistry and exported via obs/export.h.
//
// The paper's value proposition is quantitative — pruning ratios
// (Table 1), query time (Fig. 4), peak memory (Fig. 5) — so the pipeline
// publishes those quantities as first-class metrics instead of ad-hoc
// printf. Design constraints, in order:
//
//  - ~zero cost when disabled: every instrumentation site takes a nullable
//    pointer; a null registry/metric skips even the clock read.
//  - lock-cheap on the hot path: Counter is sharded across cache lines
//    (each thread owns a shard index), Gauge/Histogram use relaxed
//    atomics; only registration (name -> metric lookup) takes a mutex,
//    and callers are expected to resolve metrics once, outside loops.
//  - shared, never merged: concurrent pipeline runs and service requests
//    publish into one registry, so counters and histograms only add and
//    gauges move by deltas (progress) or only rise (peaks, via SetMax) —
//    no user resets a value another user is still moving.
//
// This library deliberately depends on nothing but the C++ standard
// library (not even common/status.h), so any lower layer can report into
// it without a dependency cycle.

#ifndef XMLPROJ_OBS_METRICS_H_
#define XMLPROJ_OBS_METRICS_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xmlproj {

// Monotonic nanoseconds (steady_clock). The single time base for all
// metrics and trace timestamps.
inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// `now_ns` plus `ms` milliseconds, saturating: an instant past
// UINT64_MAX ns means "never", not "soon".
inline uint64_t SaturatingDeadlineNs(uint64_t now_ns, uint64_t ms) {
  constexpr uint64_t kNsPerMs = 1000000;
  if (ms > (UINT64_MAX - now_ns) / kNsPerMs) return UINT64_MAX;
  return now_ns + ms * kNsPerMs;
}

// Wall-clock milliseconds since the Unix epoch (system_clock), for
// record timestamps and run ids — never for measuring durations.
inline uint64_t UnixNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// Monotonically increasing counter, sharded to keep concurrent Increment
// calls off each other's cache lines.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  // Threads round-robin onto shards once, at first use.
  static size_t ShardIndex() {
    static std::atomic<size_t> next{0};
    thread_local const size_t index =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return index;
  }

  Shard shards_[kShards];
};

// Point-in-time signed value (tasks in flight, thread count, peak bytes).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }

  // Raises the gauge to `v` if below it (peak tracking).
  void SetMax(int64_t v) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (current < v &&
           !value_.compare_exchange_weak(current, v,
                                         std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram over non-negative values (latencies in ns, byte
// sizes). Bucket i counts values whose bit width is i, i.e. bucket 0 is
// exactly {0} and bucket i>0 spans [2^(i-1), 2^i - 1] — boundaries are
// compile-time fixed, so every exporter sees the same layout.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit widths 0..64

  Histogram() {
    min_.store(UINT64_MAX, std::memory_order_relaxed);
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    AtomicMin(&min_, value);
    AtomicMax(&max_, value);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  // Min/Max are 0 while the histogram is empty.
  uint64_t Min() const {
    uint64_t v = min_.load(std::memory_order_relaxed);
    return v == UINT64_MAX ? 0 : v;
  }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const {
    uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }

  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Inclusive upper bound of bucket i (0, 1, 3, 7, ..., UINT64_MAX).
  static uint64_t BucketUpperBound(size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return UINT64_MAX;
    return (uint64_t{1} << i) - 1;
  }

  static size_t BucketIndex(uint64_t value) {
    size_t width = 0;
    while (value != 0) {
      ++width;
      value >>= 1;
    }
    return width;
  }

  // Upper bound of the bucket containing the p-quantile (p in [0,1]); the
  // usual fixed-bucket estimate, exact enough for p50/p90/p99 summaries.
  uint64_t ApproxPercentile(double p) const;

 private:
  static void AtomicMin(std::atomic<uint64_t>* slot, uint64_t v) {
    uint64_t current = slot->load(std::memory_order_relaxed);
    while (v < current &&
           !slot->compare_exchange_weak(current, v,
                                        std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<uint64_t>* slot, uint64_t v) {
    uint64_t current = slot->load(std::memory_order_relaxed);
    while (v > current &&
           !slot->compare_exchange_weak(current, v,
                                        std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_;
  std::atomic<uint64_t> max_{0};
};

// One label dimension on a metric series, e.g. {"query_id", "3"}. A
// family (one metric name) can hold many labeled series plus the plain
// unlabeled one; see MetricsRegistry below for the cardinality bound.
struct MetricLabel {
  std::string key;
  std::string value;
};
using MetricLabels = std::vector<MetricLabel>;

// Canonical encoded form of a label set: `k1="v1",k2="v2"`, sorted by
// key, values escaped per the Prometheus text exposition rules (`\\`,
// `\"`, `\n`). The encoding is both the registry's series identity and
// the exact byte sequence exporters splice between `{` and `}`.
std::string EncodeMetricLabels(const MetricLabels& labels);

// Inverse of EncodeMetricLabels: parses the canonical `k1="v1",k2="v2"`
// form back into decoded key/value pairs (unescaping `\\`, `\"`, `\n`).
// Malformed input yields the pairs decoded so far (best effort; the
// encoder is the only producer, so this is a safety net, not a parser).
MetricLabels DecodeMetricLabels(std::string_view encoded);

// Escapes one label value (`\` -> `\\`, `"` -> `\"`, newline -> `\n`).
void AppendEscapedLabelValue(std::string_view value, std::string* out);

// Named metrics, shared by every run and request that publishes into it.
// Get* registers on first use and returns a stable pointer; resolve once
// and hold the pointer across the hot loop. All methods are thread-safe.
//
// Labels: the Get* overloads taking MetricLabels return the series for
// that exact label set inside the family `name`. Labeled lookups cost a
// mutex + map probe, so they belong at task granularity, never inside a
// SAX loop; the unlabeled overloads are unchanged and unlabeled series
// pay nothing for the label machinery. Cardinality is bounded per
// family: past kMaxLabeledSeries distinct label sets, further lookups
// collapse onto one overflow series whose label values are all "other"
// — a scrape can never grow without bound no matter how many distinct
// query ids a long-lived deployment sees.
//
// A metric name belongs to exactly one kind: asking for `name` as a
// counter after it was registered as a gauge (or vice versa) is a bug in
// the caller — it asserts in debug builds and returns nullptr in release
// builds (every instrumentation site already treats a null handle as
// "disabled", so the mismatch disables the site instead of aliasing two
// unrelated metrics). Histogram bucket layout is compile-time fixed
// (Histogram::kBuckets), so there is no layout to mismatch.
class MetricsRegistry {
 public:
  // Distinct labeled series allowed per family before overflow folding.
  static constexpr size_t kMaxLabeledSeries = 64;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  Counter* GetCounter(std::string_view name, const MetricLabels& labels);
  Gauge* GetGauge(std::string_view name, const MetricLabels& labels);
  Histogram* GetHistogram(std::string_view name, const MetricLabels& labels);

  // Attaches `# HELP` text to a family (exported ahead of its `# TYPE`
  // line, with exposition-format escaping). Idempotent; last write wins.
  void SetHelp(std::string_view name, std::string_view help);

  // Kind-mismatch lookups observed (the nullptr returns documented
  // above); a regression test keeps this at zero for the library's own
  // instrumentation.
  uint64_t kind_conflicts() const {
    return kind_conflicts_.load(std::memory_order_relaxed);
  }

  // Iteration for exporters, in (name, labels) order — the unlabeled
  // series of a family (labels == "") sorts first. `labels` is the
  // EncodeMetricLabels form. The callback must not call back into the
  // registry.
  template <typename Fn>  // Fn(const std::string& name,
                          //    const std::string& labels, const Counter&)
  void ForEachCounter(Fn fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, family] : counters_) {
      for (const auto& [labels, metric] : family.series) {
        fn(name, labels, *metric);
      }
    }
  }
  template <typename Fn>  // Fn(name, labels, const Gauge&)
  void ForEachGauge(Fn fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, family] : gauges_) {
      for (const auto& [labels, metric] : family.series) {
        fn(name, labels, *metric);
      }
    }
  }
  template <typename Fn>  // Fn(name, labels, const Histogram&)
  void ForEachHistogram(Fn fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, family] : histograms_) {
      for (const auto& [labels, metric] : family.series) {
        fn(name, labels, *metric);
      }
    }
  }

  // Snapshot of the help texts (family name -> help), for exporters.
  std::map<std::string, std::string> HelpTexts() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  template <typename M>
  struct Family {
    // Keyed by EncodeMetricLabels; "" is the unlabeled series.
    std::map<std::string, std::unique_ptr<M>, std::less<>> series;
    size_t labeled_series = 0;
  };

  template <typename M>
  M* GetMetric(std::map<std::string, Family<M>, std::less<>>* families,
               std::string_view name, const MetricLabels& labels, Kind kind);
  // Find-or-create by pre-encoded labels (EncodeMetricLabels form). With
  // `exempt_from_bound` the series is created outside the per-family
  // cardinality budget — used only for the all-"other" overflow series.
  template <typename M>
  M* GetMetricEncoded(std::map<std::string, Family<M>, std::less<>>* families,
                      const std::string& name, const std::string& labels,
                      Kind kind, bool exempt_from_bound = false);

  mutable std::mutex mu_;
  std::map<std::string, Family<Counter>, std::less<>> counters_;
  std::map<std::string, Family<Gauge>, std::less<>> gauges_;
  std::map<std::string, Family<Histogram>, std::less<>> histograms_;
  std::map<std::string, Kind, std::less<>> kinds_;
  std::map<std::string, std::string, std::less<>> help_;
  std::atomic<uint64_t> kind_conflicts_{0};
};

// Build identity, for correlating scraped/pushed series to a binary.
// Version tracks the repo's PR sequence; compiler comes from the
// compiler's own version macros.
std::string_view XmlprojVersion();
std::string_view XmlprojCompiler();

// Registers the conventional `xmlproj_build_info` gauge (value 1,
// `version`/`compiler` labels) into `registry`. Explicit — never called
// by the registry itself — so registries that want a minimal series set
// (tests) stay untouched. Null registry is a no-op.
void RegisterBuildInfo(MetricsRegistry* registry);

}  // namespace xmlproj

#endif  // XMLPROJ_OBS_METRICS_H_
