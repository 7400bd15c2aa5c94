// xmlprojd: the projection-as-a-service daemon.
//
// Serves the type-based pruning pipeline as a resident HTTP service on
// 127.0.0.1 (service/service.h): clients register query workloads
// against a named DTD, then stream documents through POST /prune and
// get the projected bytes back — byte-identical to what the batch
// parallel_prune_tool writes for the same document and workload. The
// XMark DTD is registered at startup under the name "xmark"; further
// DTDs arrive over POST /dtds.
//
//   xmlprojd [--port=N] [--journal=DIR] [--cache-capacity=N]
//            [--workers=N] [--max-document-bytes=N]
//            [--default-max-bytes=N] [--default-deadline-ms=N]
//            [--breaker] [--breaker-window=N] [--breaker-threshold=R]
//            [--breaker-cooldown-ms=N]
//            [--log=FILE|stderr] [--log-level=L] [--trace-export=FILE]
//            [--slo-latency-ms=N]
//
//   --port=N          listen port (default 0 = ephemeral; the chosen
//                     port is printed on stdout either way)
//   --journal=DIR     append one RunRecord per prune batch to
//                     DIR/journal.jsonl (obs/journal.h); the breaker,
//                     when enabled, seeds its window from the most
//                     recent record (server faults seed failures)
//   --breaker         enable the admission circuit breaker: /prune
//                     fast-fails 503 (+Retry-After) while open and
//                     /healthz reports open/503 in agreement; only
//                     server faults (504, 500) count against it
//   --log=DEST        structured one-line-JSON logs (obs/log.h) to a
//                     file path or the literal "stderr": access lines,
//                     prune errors, breaker transitions
//   --log-level=L     debug | info (default) | warn | error
//   --trace-export=F  append OTLP-shaped trace JSON lines to F: one
//                     resourceSpans line each second that has new
//                     spans, and one more at shutdown
//   --slo-latency-ms=N  per-workload SLO latency threshold (default
//                     250 ms); burn-rate gauges + the /statusz "slo"
//                     block follow from it
//
// Numeric flags are strict: a malformed, negative or out-of-range value
// (a port above 65535; a zero --workers, --cache-capacity,
// --breaker-window or --max-document-bytes; a --breaker-threshold
// outside (0, 1]) exits 1 naming the flag, before anything listens. So
// does an empty --journal=, --log= or --trace-export=.
//
// Lifecycle: runs until SIGINT/SIGTERM, then drains in-flight requests,
// flushes pending journal batches and the trace export, and exits 0.
// Exit codes: 0 clean shutdown, 1 bad usage, 2 startup failure (port in
// use, journal or trace export unopenable, DTD registration failure).

#include <unistd.h>

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "common/circuit.h"
#include "common/http/http.h"
#include "common/strings.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "projection/pipeline.h"
#include "service/service.h"
#include "xmark/xmark_dtd.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

// The breaker's window is one bit per outcome, allocated at startup.
constexpr uint64_t kMaxBreakerWindow = uint64_t{1} << 20;

void HandleSignal(int) { g_stop = 1; }

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

// An empty path would turn its feature off without a word.
int EmptyPath(const char* flag) {
  std::fprintf(stderr, "xmlprojd: empty value for %s (expected a path)\n",
               flag);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xmlproj;

  uint16_t port = 0;
  std::string journal_dir;
  std::string log_dest;
  std::string trace_export;
  bool breaker_enabled = false;
  CircuitBreakerOptions breaker_options;
  StructuredLoggerOptions log_options;
  SloOptions slo_options;
  ServiceLimits limits;

  // Integer flags: ParseDecimalU64 (digits only: no sign, no overflow) and
  // then the flag's range; anything else exits 1 naming the flag.
  struct UintFlag {
    const char* name;
    uint64_t min, max;
    std::function<void(uint64_t)> set;
  };
  const UintFlag uint_flags[] = {
      {"--port", 0, 65535,
       [&](uint64_t v) { port = static_cast<uint16_t>(v); }},
      {"--cache-capacity", 1, SIZE_MAX,
       [&](uint64_t v) { limits.projector_cache_capacity = v; }},
      {"--workers", 1, INT_MAX,
       [&](uint64_t v) { limits.worker_threads = static_cast<int>(v); }},
      {"--max-document-bytes", 1, SIZE_MAX,
       [&](uint64_t v) { limits.max_document_bytes = v; }},
      {"--default-max-bytes", 0, SIZE_MAX,
       [&](uint64_t v) { limits.default_max_bytes = v; }},
      {"--default-deadline-ms", 0, UINT64_MAX,
       [&](uint64_t v) { limits.default_deadline_ms = v; }},
      {"--breaker-window", 1, kMaxBreakerWindow,
       [&](uint64_t v) { breaker_options.window = v; }},
      {"--breaker-cooldown-ms", 0, UINT64_MAX,
       [&](uint64_t v) { breaker_options.cooldown_ms = v; }},
      {"--slo-latency-ms", 0, UINT64_MAX,
       [&](uint64_t v) { slo_options.latency_threshold_ms = v; }},
  };

  for (int i = 1; i < argc; ++i) {
    std::string value;
    const UintFlag* uint_flag = nullptr;
    for (const UintFlag& flag : uint_flags) {
      if (ParseFlag(argv[i], flag.name, &value)) uint_flag = &flag;
    }
    if (uint_flag != nullptr) {
      uint64_t parsed = 0;
      if (!ParseDecimalU64(value, &parsed) || parsed < uint_flag->min ||
          parsed > uint_flag->max) {
        std::fprintf(stderr,
                     "xmlprojd: bad value '%s' for %s (expected an integer "
                     "from %llu to %llu)\n",
                     value.c_str(), uint_flag->name,
                     static_cast<unsigned long long>(uint_flag->min),
                     static_cast<unsigned long long>(uint_flag->max));
        return 1;
      }
      uint_flag->set(parsed);
    } else if (ParseFlag(argv[i], "--journal", &value)) {
      if (value.empty()) return EmptyPath("--journal");
      journal_dir = value;
    } else if (std::strcmp(argv[i], "--breaker") == 0) {
      breaker_enabled = true;
    } else if (ParseFlag(argv[i], "--breaker-threshold", &value)) {
      double threshold = 0;
      if (!ParseDouble(value, &threshold) || threshold <= 0 ||
          threshold > 1) {
        std::fprintf(stderr,
                     "xmlprojd: bad value '%s' for --breaker-threshold "
                     "(expected a ratio in (0, 1])\n",
                     value.c_str());
        return 1;
      }
      breaker_options.failure_threshold = threshold;
    } else if (ParseFlag(argv[i], "--log", &value)) {
      if (value.empty()) return EmptyPath("--log");
      log_dest = value;
    } else if (ParseFlag(argv[i], "--log-level", &value)) {
      if (!ParseLogLevel(value, &log_options.min_level)) {
        std::fprintf(stderr,
                     "--log-level=%s: want debug, info, warn or error\n",
                     value.c_str());
        return 1;
      }
    } else if (ParseFlag(argv[i], "--trace-export", &value)) {
      if (value.empty()) return EmptyPath("--trace-export");
      trace_export = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  MetricsRegistry metrics;
  TraceCollector trace;
  std::string error;

  StructuredLogger logger;
  if (!log_dest.empty() && !logger.Open(log_dest, log_options, &error)) {
    std::fprintf(stderr, "log open failed: %s\n", error.c_str());
    return 2;
  }

  slo_options.metrics = &metrics;
  SloTracker slo(slo_options);

  breaker_options.metrics = &metrics;
  if (!log_dest.empty()) breaker_options.logger = &logger;
  CircuitBreaker breaker(breaker_options);
  if (!journal_dir.empty()) {
    std::vector<RunRecord> records;
    size_t skipped = 0;
    if (RunJournal::Load(journal_dir, &records, &skipped, &error)) {
      // Corrupt/truncated lines survive into the scrape so an operator
      // sees journal damage without reading the file.
      metrics.SetHelp("xmlproj_journal_corrupt_lines_total",
                      "Journal lines skipped as corrupt or truncated at "
                      "startup load.");
      metrics.GetCounter("xmlproj_journal_corrupt_lines_total")
          ->Increment(skipped);
      // A service whose server faults were failing it when the last
      // process died starts degraded.
      if (breaker_enabled) SeedBreakerFromJournal(records, "", &breaker);
    }
  }

  // OTLP trace export: the main loop below appends the spans recorded
  // since its last pass, as one resourceSpans line, once a second and
  // once more after the drain. The cursor lives on the main thread only.
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> trace_file(nullptr,
                                                             &std::fclose);
  if (!trace_export.empty()) {
    trace_file.reset(std::fopen(trace_export.c_str(), "ae"));
    if (trace_file == nullptr) {
      std::fprintf(stderr, "cannot open trace export file \"%s\": %s\n",
                   trace_export.c_str(), std::strerror(errno));
      return 2;
    }
  }
  size_t trace_cursor = 0;
  bool trace_write_failed = false;  // reported once, not every second
  auto export_spans = [&] {
    std::string line;
    if (trace_file == nullptr ||
        !trace.AppendOtlpSpansJson(&trace_cursor, &line)) {
      return;
    }
    if (!AppendJsonlLine(trace_file.get(), std::move(line),
                         /*durable=*/false) &&
        !trace_write_failed) {
      trace_write_failed = true;
      std::fprintf(stderr, "xmlprojd: trace export write failed: %s\n",
                   std::strerror(errno));
    }
  };

  ProjectionService service;
  if (!service.RegisterDtd("xmark", XMarkDtdText(), "site", &error)) {
    std::fprintf(stderr, "xmark DTD registration failed: %s\n", error.c_str());
    return 2;
  }

  ProjectionServiceOptions options;
  options.port = port;
  options.metrics = &metrics;
  options.trace = &trace;
  options.breaker = breaker_enabled ? &breaker : nullptr;
  options.logger = log_dest.empty() ? nullptr : &logger;
  options.slo = &slo;
  options.journal_dir = journal_dir;
  options.limits = limits;
  if (!service.Start(options, &error)) {
    std::fprintf(stderr, "start failed: %s\n", error.c_str());
    return 2;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("xmlprojd listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(service.port()));
  std::printf("dtds: xmark (root 'site'); POST /workloads to register\n");
  std::fflush(stdout);
  if (logger.enabled(LogLevel::kInfo)) {
    logger.Log(LogLevel::kInfo, "daemon.start",
               {{"port", static_cast<uint64_t>(service.port())},
                {"breaker", breaker_enabled ? 1 : 0}});
  }

  // sleep() returns early on a signal, and a signal that lands between
  // the check and the sleep is seen a second later at most.
  while (g_stop == 0) {
    sleep(1);
    export_spans();
  }

  std::printf("xmlprojd draining (%llu requests served)\n",
              static_cast<unsigned long long>(service.requests_served()));
  std::fflush(stdout);
  service.Stop();
  export_spans();  // the spans of the requests the drain finished
  if (logger.enabled(LogLevel::kInfo)) {
    logger.Log(LogLevel::kInfo, "daemon.stop",
               {{"requests", service.requests_served()}});
  }
  return 0;
}
