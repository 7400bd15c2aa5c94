#include "obs/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/json.h"

namespace xmlproj {
namespace {

// Chrome trace timestamps are microseconds; keep ns precision as a
// decimal fraction.
void AppendMicros(uint64_t ns, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out->append(buf);
}

uint64_t UnixNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceCollector::TraceCollector()
    : epoch_ns_(MonotonicNowNs()), unix_epoch_ns_(UnixNowNs()) {}

int TraceCollector::TidLocked() {
  auto [it, inserted] = tids_.emplace(std::this_thread::get_id(),
                                      static_cast<int>(tids_.size()));
  (void)inserted;
  return it->second;
}

void TraceCollector::StampFromThreadContextLocked(Event* event) {
  auto it = contexts_.find(std::this_thread::get_id());
  if (it == contexts_.end() || !it->second.valid()) return;
  const SpanContext& context = it->second;
  event->trace_id = context.trace_id;
  event->parent_id = context.span_id;
  event->workload = context.workload;
  // Child span ids come from a per-collector sequence: 16 hex chars,
  // never zero, unique within the process — exactly what joining stage
  // spans to their request span needs.
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, ++next_child_span_);
  event->span_id = buf;
}

void TraceCollector::AddCompleteEvent(std::string name, std::string category,
                                      uint64_t start_ns, uint64_t duration_ns,
                                      std::vector<TraceArg> args) {
  Event event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.ts_ns = Rebase(start_ns);
  event.dur_ns = duration_ns;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  event.tid = TidLocked();
  StampFromThreadContextLocked(&event);
  AppendLocked(std::move(event));
}

void TraceCollector::AddSpanEvent(std::string name, std::string category,
                                  uint64_t start_ns, uint64_t duration_ns,
                                  const SpanContext& context,
                                  std::vector<TraceArg> args) {
  Event event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.ts_ns = Rebase(start_ns);
  event.dur_ns = duration_ns;
  event.args = std::move(args);
  event.trace_id = context.trace_id;
  event.span_id = context.span_id;
  event.parent_id = context.parent_id;
  event.workload = context.workload;
  std::lock_guard<std::mutex> lock(mu_);
  event.tid = TidLocked();
  AppendLocked(std::move(event));
}

void TraceCollector::AppendLocked(Event&& event) {
  if (events_.size() == kMaxEvents) events_.pop_front();
  events_.push_back(std::move(event));
  ++appended_;
}

void TraceCollector::SetThreadSpanContext(const SpanContext& context) {
  std::lock_guard<std::mutex> lock(mu_);
  contexts_[std::this_thread::get_id()] = context;
}

void TraceCollector::ClearThreadSpanContext() {
  std::lock_guard<std::mutex> lock(mu_);
  contexts_.erase(std::this_thread::get_id());
}

size_t TraceCollector::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceCollector::AppendEventJsonLocked(const Event& event,
                                           std::string* out) const {
  char buf[64];
  out->append("{\"name\":");
  AppendJsonString(event.name, out);
  if (!event.category.empty()) {
    out->append(",\"cat\":");
    AppendJsonString(event.category, out);
  }
  std::snprintf(buf, sizeof(buf), ",\"ph\":\"X\",\"pid\":1,\"tid\":%d",
                event.tid);
  out->append(buf);
  out->append(",\"ts\":");
  AppendMicros(event.ts_ns, out);
  out->append(",\"dur\":");
  AppendMicros(event.dur_ns, out);
  if (!event.args.empty()) {
    out->append(",\"args\":{");
    for (size_t a = 0; a < event.args.size(); ++a) {
      if (a != 0) out->push_back(',');
      AppendJsonString(event.args[a].key, out);
      out->push_back(':');
      AppendI64(event.args[a].value, out);
    }
    out->push_back('}');
  }
  if (!event.trace_id.empty()) {
    out->append(",\"trace_id\":");
    AppendJsonString(event.trace_id, out);
    out->append(",\"span_id\":");
    AppendJsonString(event.span_id, out);
    if (!event.parent_id.empty()) {
      out->append(",\"parent_id\":");
      AppendJsonString(event.parent_id, out);
    }
    if (!event.workload.empty()) {
      out->append(",\"workload\":");
      AppendJsonString(event.workload, out);
    }
  }
  out->push_back('}');
}

void TraceCollector::AppendChromeTraceJson(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->append("{\"traceEvents\":[\n");
  for (size_t i = 0; i < events_.size(); ++i) {
    AppendEventJsonLocked(events_[i], out);
    if (i + 1 < events_.size()) out->push_back(',');
    out->push_back('\n');
  }
  out->append("]}\n");
}

void TraceCollector::AppendRecentSpansJson(size_t max_events,
                                           std::string* out) const {
  AppendRecentSpansJson(max_events, {}, {}, out);
}

void TraceCollector::AppendRecentSpansJson(size_t max_events,
                                           std::string_view trace_id,
                                           std::string_view workload,
                                           std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Matching indices, then the most recent `max_events` of them: the
  // filters narrow the listing, the cap still bounds the payload.
  std::vector<size_t> matches;
  matches.reserve(events_.size());
  for (size_t i = 0; i < events_.size(); ++i) {
    if (!trace_id.empty() && events_[i].trace_id != trace_id) continue;
    if (!workload.empty() && events_[i].workload != workload) continue;
    matches.push_back(i);
  }
  size_t start = matches.size() > max_events ? matches.size() - max_events : 0;
  const size_t evicted = appended_ - events_.size();
  out->append("{\"dropped\":");
  AppendU64(evicted + start, out);
  out->append(",\"spans\":[\n");
  for (size_t m = start; m < matches.size(); ++m) {
    AppendEventJsonLocked(events_[matches[m]], out);
    if (m + 1 < matches.size()) out->push_back(',');
    out->push_back('\n');
  }
  out->append("]}\n");
}

bool TraceCollector::AppendOtlpSpansJson(size_t* cursor,
                                         std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The cursor and `oldest` are append counts; events evicted before
  // this export are gone.
  const size_t oldest = appended_ - events_.size();
  const size_t from = *cursor > oldest ? *cursor - oldest : 0;
  *cursor = appended_;
  std::string spans;
  bool first = true;
  // Sized for the longest fragment: 30 chars of key syntax plus a
  // 20-digit uint64 nanos string plus quote and NUL.
  char buf[64];
  for (size_t i = from; i < events_.size(); ++i) {
    const Event& event = events_[i];
    // Only trace-stamped events are OTLP spans; anonymous stage spans
    // stay local to /tracez.
    if (event.trace_id.empty()) continue;
    if (!first) spans.push_back(',');
    first = false;
    spans.append("{\"traceId\":");
    AppendJsonString(event.trace_id, &spans);
    spans.append(",\"spanId\":");
    AppendJsonString(event.span_id, &spans);
    if (!event.parent_id.empty()) {
      spans.append(",\"parentSpanId\":");
      AppendJsonString(event.parent_id, &spans);
    }
    spans.append(",\"name\":");
    AppendJsonString(event.name, &spans);
    // OTLP JSON carries 64-bit nanos as strings.
    uint64_t start_unix = unix_epoch_ns_ + event.ts_ns;
    std::snprintf(buf, sizeof(buf),
                  ",\"kind\":1,\"startTimeUnixNano\":\"%" PRIu64 "\"",
                  start_unix);
    spans.append(buf);
    std::snprintf(buf, sizeof(buf), ",\"endTimeUnixNano\":\"%" PRIu64 "\"",
                  start_unix + event.dur_ns);
    spans.append(buf);
    spans.append(",\"attributes\":[");
    bool first_attr = true;
    if (!event.workload.empty()) {
      spans.append("{\"key\":\"workload\",\"value\":{\"stringValue\":");
      AppendJsonString(event.workload, &spans);
      spans.append("}}");
      first_attr = false;
    }
    if (!event.category.empty()) {
      if (!first_attr) spans.push_back(',');
      spans.append("{\"key\":\"category\",\"value\":{\"stringValue\":");
      AppendJsonString(event.category, &spans);
      spans.append("}}");
      first_attr = false;
    }
    for (const TraceArg& arg : event.args) {
      if (!first_attr) spans.push_back(',');
      first_attr = false;
      spans.append("{\"key\":");
      AppendJsonString(arg.key, &spans);
      std::snprintf(buf, sizeof(buf),
                    ",\"value\":{\"intValue\":\"%" PRId64 "\"}}", arg.value);
      spans.append(buf);
    }
    spans.append("]}");
  }
  if (first) return false;  // nothing new to export
  out->append(
      "{\"resourceSpans\":[{\"resource\":{\"attributes\":[{\"key\":"
      "\"service.name\",\"value\":{\"stringValue\":\"xmlproj\"}}]},"
      "\"scopeSpans\":[{\"scope\":{\"name\":\"xmlproj.obs\"},\"spans\":[");
  out->append(spans);
  out->append("]}]}]}");
  return true;
}

}  // namespace xmlproj
