// Span-style task tracing for the pruning pipeline.
//
// A TraceCollector accumulates complete ("X") events — one `prune` /
// `validate+prune` span per pipeline task and its `queue-wait` span, or a
// service request span and its `prune` child — and serializes them in the
// Chrome Trace Event JSON format, loadable in chrome://tracing and
// Perfetto. One event object per line, so the file doubles as JSON-lines
// for ad-hoc grep/jq.
//
// The collector is bounded: it keeps the most recent kMaxEvents events
// and evicts the oldest, so a long-lived daemon that traces every request
// holds at most that many (about 31 MB at ~0.47 KB per event). /tracez
// counts evicted events as dropped; an OTLP exporter that falls more than
// kMaxEvents behind loses the oldest.
//
// All timestamps are absolute MonotonicNowNs() values (obs/metrics.h);
// the collector rebases them onto its construction time so traces start
// near t=0. Appending an event takes a mutex — events are per *task*
// (at most two per task), not per SAX event, so this is off the hot
// path; a null TraceCollector* at the instrumentation site disables
// tracing with zero cost.

#ifndef XMLPROJ_OBS_TRACE_H_
#define XMLPROJ_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace xmlproj {

// One "key": integer argument attached to a trace event (e.g. task index).
struct TraceArg {
  std::string key;
  int64_t value = 0;
};

// The request-scoped identity a span belongs to (W3C Trace Context ids,
// common/http/http.h mints and parses them). While a thread has a
// SpanContext installed (ScopedSpanContext below), every event it
// records is stamped with the trace id and parented under `span_id`;
// AddSpanEvent records the request span itself.
struct SpanContext {
  std::string trace_id;   // 32 lowercase hex
  std::string span_id;    // this span's own id (16 hex)
  std::string parent_id;  // "" for a root span
  std::string workload;   // optional tenant attribution

  bool valid() const { return !trace_id.empty(); }
};

class TraceCollector {
 public:
  // Retained events; appending past this evicts the oldest.
  static constexpr size_t kMaxEvents = 65536;

  TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // Complete event ("ph":"X") on the calling thread's track.
  // `start_ns` is an absolute MonotonicNowNs() timestamp.
  void AddCompleteEvent(std::string name, std::string category,
                        uint64_t start_ns, uint64_t duration_ns,
                        std::vector<TraceArg> args = {});

  // Complete event recorded *as* `context` — the request span itself:
  // the event's span id is context.span_id, its parent
  // context.parent_id. Stage spans recorded by the same thread while
  // the context is installed become its children.
  void AddSpanEvent(std::string name, std::string category,
                    uint64_t start_ns, uint64_t duration_ns,
                    const SpanContext& context,
                    std::vector<TraceArg> args = {});

  // Installs/clears the calling thread's span context: while installed,
  // AddCompleteEvent stamps each event with the context's trace id and
  // workload, a freshly minted child span id, and parent_id =
  // context.span_id. Prefer ScopedSpanContext.
  void SetThreadSpanContext(const SpanContext& context);
  void ClearThreadSpanContext();

  // Retained events (at most kMaxEvents).
  size_t event_count() const;

  // Serializes the retained events as {"traceEvents":[...]}, one event
  // per line.
  void AppendChromeTraceJson(std::string* out) const;

  // Serializes the most recent `max_events` events (all, if fewer) as
  // {"spans":[...],"dropped":N} in the same per-event shape as the
  // Chrome trace — the /tracez payload. `dropped` counts the older
  // events not included, evicted ones among them. Non-empty `trace_id` /
  // `workload` restrict the listing to events stamped with that id /
  // workload (the /tracez?trace_id=&workload= filters).
  void AppendRecentSpansJson(size_t max_events, std::string* out) const;
  void AppendRecentSpansJson(size_t max_events, std::string_view trace_id,
                             std::string_view workload,
                             std::string* out) const;

  // OTLP-shaped trace export: appends one JSON object (a
  // `resourceSpans` batch, single line, no trailing newline) holding
  // every retained trace-stamped event appended since `*cursor`, and
  // advances the cursor past all current events. The cursor counts
  // events ever appended (start at 0), so eviction never re-sends a span
  // or reads out of range. Returns false — with `*out` untouched — when
  // no new qualifying span exists. Timestamps are unix nanos (the
  // collector pins a wall-clock epoch at construction). xmlprojd's main
  // loop appends each batch to its --trace-export file.
  bool AppendOtlpSpansJson(size_t* cursor, std::string* out) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    uint64_t ts_ns = 0;  // rebased to the collector epoch
    uint64_t dur_ns = 0;
    int tid = 0;
    std::vector<TraceArg> args;
    // Request attribution; empty for events recorded outside any span
    // context (the pre-PR-10 anonymous spans).
    std::string trace_id;
    std::string span_id;
    std::string parent_id;
    std::string workload;
  };

  uint64_t Rebase(uint64_t abs_ns) const {
    return abs_ns > epoch_ns_ ? abs_ns - epoch_ns_ : 0;
  }
  // Small stable per-collector thread numbering, so tracks read
  // "worker 0..N" rather than opaque platform ids. Caller holds mu_.
  int TidLocked();
  // One event as a JSON object (no trailing separator). Caller holds mu_.
  void AppendEventJsonLocked(const Event& event, std::string* out) const;
  // Stamps `event` from the calling thread's span context (if any),
  // minting a child span id. Caller holds mu_.
  void StampFromThreadContextLocked(Event* event);
  // Appends `event`, evicting the oldest past kMaxEvents. Caller holds
  // mu_.
  void AppendLocked(Event&& event);

  const uint64_t epoch_ns_;
  const uint64_t unix_epoch_ns_;  // wall clock at construction (OTLP)
  uint64_t next_child_span_ = 0;  // child span id sequence (under mu_)
  mutable std::mutex mu_;
  std::map<std::thread::id, int> tids_;
  std::map<std::thread::id, SpanContext> contexts_;
  std::deque<Event> events_;  // the most recent kMaxEvents
  size_t appended_ = 0;       // events ever appended (the OTLP cursor)
};

// RAII installation of a span context on the current thread. Null
// collector (tracing disabled) is a no-op, matching the null-pointer
// idiom of every other instrumentation site.
class ScopedSpanContext {
 public:
  ScopedSpanContext(TraceCollector* collector, const SpanContext& context)
      : collector_(collector) {
    if (collector_ != nullptr) collector_->SetThreadSpanContext(context);
  }
  ~ScopedSpanContext() {
    if (collector_ != nullptr) collector_->ClearThreadSpanContext();
  }
  ScopedSpanContext(const ScopedSpanContext&) = delete;
  ScopedSpanContext& operator=(const ScopedSpanContext&) = delete;

 private:
  TraceCollector* collector_;
};

}  // namespace xmlproj

#endif  // XMLPROJ_OBS_TRACE_H_
