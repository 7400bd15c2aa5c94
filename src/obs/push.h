// Push-mode telemetry sinks: the other half of the observability layer.
//
// The scrape surface (obs/server.h) only works while a process is alive
// and something polls it — a batch pruning run that finishes between two
// scrape intervals leaves no trace. This module inverts the direction:
// a PushFlusher thread snapshots the MetricsRegistry on an interval,
// turns counters into deltas since the previous flush, and hands the
// batch to any number of PushSinks:
//
//   StatsdSink     UDP statsd line protocol, one metric per line, with
//                  DogStatsD-style `|#key:value` tags mapped from
//                  MetricLabels — fire-and-forget datagrams, safe to
//                  point at a dead host.
//   JsonlFileSink  OTLP-shaped JSON lines appended to a file, one
//                  document per flush, for offline ingestion.
//
// Design constraints, matching the rest of obs/:
//  - zero cost when unused: no sink + no flusher means no thread, no
//    socket, no clock reads — the registry is untouched.
//  - the flusher only *reads* the registry (relaxed atomics under the
//    iteration lock, same as an exporter); instrumented code never
//    blocks on a push.
//  - a guaranteed final flush on Stop(), so a run shorter than the
//    interval still ships its telemetry.
//  - standard library + POSIX sockets only (obs/ sits below common/ in
//    the link order).

#ifndef XMLPROJ_OBS_PUSH_H_
#define XMLPROJ_OBS_PUSH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace xmlproj {

class TraceCollector;

// Inverse of EncodeMetricLabels: parses the canonical `k1="v1",k2="v2"`
// form back into decoded key/value pairs (unescaping `\\`, `\"`, `\n`).
// Malformed input yields the pairs decoded so far (best effort; the
// encoder is the only producer, so this is a safety net, not a parser).
MetricLabels DecodeMetricLabels(std::string_view encoded);

// One series sample in a flush batch. Counters (and histogram _count /
// _sum synthetics) carry the DELTA since the previous flush — the
// natural unit for statsd `|c` and for OTLP delta temporality — while
// gauges (and histogram quantile synthetics) carry the current level.
struct PushSample {
  std::string name;    // metric family name (synthetic suffixes applied)
  MetricLabels labels; // decoded label pairs, empty for unlabeled
  double value = 0;
  bool is_counter = false;  // true: delta; false: gauge level
};

// One flush: every changed counter and every gauge, stamped with the
// wall-clock time of the snapshot and the flush sequence number.
struct PushBatch {
  uint64_t unix_ms = 0;
  uint64_t sequence = 0;  // 0 for the first flush after Start
  std::vector<PushSample> samples;
};

// A push destination. Implementations must tolerate being called from
// the flusher thread (and once more from Stop()'s final flush); they are
// never called concurrently with themselves.
class PushSink {
 public:
  virtual ~PushSink() = default;
  // Ships one batch. False on a transport error (the flusher counts it
  // and keeps going — push telemetry is best-effort by design).
  virtual bool Push(const PushBatch& batch) = 0;
  // Sink identity for diagnostics, e.g. "statsd://127.0.0.1:8125".
  virtual std::string Describe() const = 0;
};

// statsd over UDP. Lines follow the classic protocol with DogStatsD
// tags: `<name>:<value>|c|#k:v,k2:v2` for counter deltas and `|g` for
// gauges. Lines are packed into datagrams up to max_datagram_bytes
// (1432 default — conservative for a 1500-MTU path), never splitting a
// line across datagrams. UDP is fire-and-forget: a dead or absent
// listener costs nothing and fails nothing.
class StatsdSink : public PushSink {
 public:
  StatsdSink() = default;
  ~StatsdSink() override;
  StatsdSink(const StatsdSink&) = delete;
  StatsdSink& operator=(const StatsdSink&) = delete;

  // Resolves `host_port` ("HOST:PORT", numeric or named host) and opens
  // the socket. False with a description in *error on a malformed spec
  // or resolution failure; Open may be retried.
  bool Open(const std::string& host_port, std::string* error);

  bool Push(const PushBatch& batch) override;
  std::string Describe() const override { return "statsd://" + target_; }

  // Datagrams sent since Open (tests assert framing against a loopback
  // receiver).
  uint64_t datagrams_sent() const { return datagrams_sent_; }

  // Formats one statsd line (without trailing newline); exposed for
  // tests of the label→tag mapping.
  static std::string FormatLine(const PushSample& sample);

  // Maximum datagram payload; tunable before Open for tests that want
  // to force multi-datagram flushes.
  size_t max_datagram_bytes = 1432;

 private:
  int fd_ = -1;
  std::string target_;
  uint64_t datagrams_sent_ = 0;
};

// OTLP-shaped JSON lines appended to a file: one self-contained JSON
// document per flush, carrying a resource block (service name, version,
// compiler) and a flat metrics array with delta sums and gauges —
// trivially ingestible by anything that speaks JSONL, and close enough
// to OTLP's metrics data model (sum with delta temporality / gauge) to
// convert mechanically.
class JsonlFileSink : public PushSink {
 public:
  JsonlFileSink() = default;
  ~JsonlFileSink() override;
  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  // Opens `path` for appending. False with a description in *error.
  bool Open(const std::string& path, std::string* error);

  bool Push(const PushBatch& batch) override;
  std::string Describe() const override { return "jsonl://" + path_; }

  // Appends one pre-serialized JSON document as its own line — the
  // trace-export path, whose OTLP spans the TraceCollector serializes
  // itself. False on a write error or before Open.
  bool WriteLine(const std::string& line);

  // Serializes one batch to its JSON line (without trailing newline);
  // exposed for tests.
  static std::string FormatBatch(const PushBatch& batch);

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

struct PushFlusherOptions {
  // Snapshot source; must outlive the flusher. Required when `sinks`
  // is non-empty.
  const MetricsRegistry* registry = nullptr;
  // Destinations; borrowed, must outlive the flusher.
  std::vector<PushSink*> sinks;
  // Flush cadence. The final flush on Stop() happens regardless, so a
  // run shorter than one interval still pushes exactly once.
  uint64_t interval_ms = 1000;
  // Optional trace export: each flush drains the collector's new
  // trace-stamped spans (see TraceCollector::AppendOtlpSpansJson) into
  // `trace_sink` as one OTLP resourceSpans JSON line. Both pointers are
  // borrowed; a flusher may run trace-only (empty `sinks`).
  const TraceCollector* trace = nullptr;
  JsonlFileSink* trace_sink = nullptr;
};

// Background flusher: snapshot → counter deltas → every sink, on an
// interval and once more at Stop(). Histograms are synthesized into
// `<name>_count` / `<name>_sum` counter deltas plus `<name>_p50` /
// `<name>_p99` gauges (statsd and JSONL have no native pre-aggregated
// histogram). Counters with a zero delta are skipped after their first
// appearance, so idle series cost no bandwidth.
class PushFlusher {
 public:
  PushFlusher() = default;
  ~PushFlusher() { Stop(); }
  PushFlusher(const PushFlusher&) = delete;
  PushFlusher& operator=(const PushFlusher&) = delete;

  // Validates options and launches the flusher thread. False with a
  // description in *error (metric sinks without a registry, nothing to
  // flush at all, zero interval).
  bool Start(const PushFlusherOptions& options, std::string* error);

  // Final flush, then joins the thread. Idempotent.
  void Stop();

  // One synchronous flush on the calling thread (also what the interval
  // loop and Stop() run). True when every sink accepted the batch.
  // Callable without Start for single-shot pushes.
  bool FlushNow();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint64_t flushes() const { return flushes_.load(std::memory_order_relaxed); }
  uint64_t sink_errors() const {
    return sink_errors_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  // Builds the batch under delta_mu_ (the only state the flusher
  // mutates between flushes).
  void BuildBatch(PushBatch* batch);

  PushFlusherOptions options_;
  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> sink_errors_{0};

  // Previous-flush values for delta computation, keyed by
  // "<name>\x1f<encoded labels>". Guarded by delta_mu_ so FlushNow is
  // safe from both the flusher thread and Stop().
  std::mutex delta_mu_;
  std::map<std::string, uint64_t> last_values_;
  uint64_t sequence_ = 0;
  size_t trace_cursor_ = 0;  // trace events appended at the last export
                             // (same guard)
};

}  // namespace xmlproj

#endif  // XMLPROJ_OBS_PUSH_H_
