// parallel_prune_tool: fan a multi-document pruning workload across
// worker threads that claim its tasks in order (projection/pipeline.h).
//
// Usage:
//   parallel_prune_tool [--docs=N] [--scale=S] [--threads=T] [--validate]
//                       [--per-query] [--sweep] [--input=PATH ...]
//                       [--policy=failfast|isolate]
//                       [--max-bytes=N] [--deadline-ms=N] [--degrade]
//                       [--failpoints=SPEC] [--failures-out=PATH]
//                       [--metrics-out=PATH] [--trace-out=PATH]
//                       [--prometheus-out=PATH] [--serve-metrics=PORT]
//                       [--serve-linger-ms=N] [--corpus-label=NAME]
//                       [--journal=DIR] [--auto-budget]
//                       [--checkpoint=DIR] [--resume=DIR]
//                       [--resume-retry-quarantined]
//
// Generates a corpus of N XMark documents (xmlgen scale S each) — or, with
// one or more --input flags, reads the corpus from XML files instead —
// infers the dashboard workload's projectors (merged by default, one task
// per document; --per-query fans documents × queries with per-query
// projectors), prunes the corpus on T workers (default: all cores) and
// prints aggregate throughput, size reduction, and the corpus pruning
// summary. --sweep instead times thread counts 1..T and prints the
// speedup curve. --validate fuses DTD validation of the input into the
// pruning pass.
//
// Numeric flags are strict: --threads 0 or negative, and any malformed
// number, are usage errors (exit 1), never silently clamped. So is an
// empty path (--input=, --metrics-out=, --journal=, ...).
//
// Fault tolerance (README "Fault tolerance"): --policy selects the error
// policy (failfast is the default; isolate quarantines failing documents
// and prints a TaskFailure report). --max-bytes and
// --deadline-ms set the per-task resource budget, --degrade enables the
// identity-pass fallback for off-grammar documents, and --failpoints arms
// the deterministic fault injector (same spec syntax as the
// XMLPROJ_FAILPOINTS environment variable, which is honored when the flag
// is absent). --failures-out writes the TaskFailure report as JSON.
//
// Observability (README "Observability"): --metrics-out writes the
// MetricsRegistry JSON dump, --prometheus-out the same registry in
// Prometheus text format, and --trace-out a Chrome-trace/Perfetto JSON
// of the last TraceCollector::kMaxEvents spans (two per task, so the
// last ~32k tasks).
// --serve-metrics=PORT starts the embedded scrape server (obs/server.h)
// on 127.0.0.1:PORT for the duration of the run — /metrics, /healthz,
// /statusz, /tracez against the *live* registry; PORT 0 picks an
// ephemeral port, printed on startup. --serve-linger-ms keeps the server
// (and process) up that long after the run so short corpora can still be
// scraped externally; shutdown drains the listener either way.
// --corpus-label=NAME labels this run's metric series with corpus="NAME";
// with --per-query and a metrics sink attached, per-task counters are
// additionally published into query_id-labeled series.
//
// Persistence (README "Observability"): --journal=DIR appends one JSONL run
// record (summary, peak memory, quarantine digest) to DIR/journal.jsonl
// at run end, loads prior records at startup, and seeds the circuit
// breaker from the server faults of the most recent matching record;
// --auto-budget (requires --journal) sets the per-task byte budget from
// the p99 of prior runs' peak memory unless --max-bytes was given
// explicitly. Journal runs meter per-task memory even without a budget,
// so history accumulates.
// Under the isolate policy an open breaker fast-fails admission and
// is reported truthfully (incl. HTTP 503) by /healthz.
//
// Checkpoint & resume (README "Checkpoint & resume"): --checkpoint=DIR
// makes the run durable — every task's terminal outcome is fsync'd to
// DIR/checkpoint.jsonl and every pruned output atomically committed to
// DIR/out/task-<i>.xml. --resume=DIR picks up an interrupted checkpoint:
// settled tasks are skipped (committed outputs re-verified by size +
// content hash first) and the interrupted run's summary is folded into
// the final one, so the resumed totals match an uninterrupted run.
// Resume refuses (exit 9) if the corpus, workload, projectors, or
// output-shaping options changed. Quarantined tasks stay quarantined on
// resume unless --resume-retry-quarantined re-admits them. SIGINT or
// SIGTERM triggers a graceful drain: no new tasks start, in-flight tasks
// finish (bounded only by --deadline-ms), telemetry and the journal
// still flush, and the process exits 8 (a second signal hard-kills).
//
// Exit codes: 0 success; 1 bad flag or usage; 2 pipeline failure;
// 3 missing/unreadable input file; 4 empty corpus; 5 setup (DTD or
// projector inference) failure; 6 telemetry/report write failure;
// 7 scrape server failed to start (e.g. port in use); 8 run drained
// after SIGINT/SIGTERM (partial run; resume with --resume);
// 9 --resume binding mismatch (checkpoint does not match this run).

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/circuit.h"
#include "common/fault.h"
#include "common/strings.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/server.h"
#include "obs/trace.h"
#include "projection/checkpoint.h"
#include "projection/pipeline.h"
#include "xmark/corpus.h"
#include "xmark/xmark_dtd.h"

namespace {

using namespace xmlproj;

constexpr int kExitUsage = 1;
constexpr int kExitPipelineFailure = 2;
constexpr int kExitInputFile = 3;
constexpr int kExitEmptyCorpus = 4;
constexpr int kExitSetupFailure = 5;
constexpr int kExitTelemetryWrite = 6;
constexpr int kExitServeFailure = 7;
constexpr int kExitDrained = 8;
constexpr int kExitResumeMismatch = 9;

// Graceful-drain signal plumbing. The first SIGINT/SIGTERM requests a
// drain (the pipeline polls g_stop); a second signal hard-exits — the
// operator asked twice, the drain is not working.
std::atomic<bool> g_stop{false};
volatile std::sig_atomic_t g_signals = 0;

void HandleStopSignal(int /*signum*/) {
  if (g_signals != 0) std::_Exit(130);
  g_signals = 1;
  g_stop.store(true, std::memory_order_relaxed);
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: parallel_prune_tool [--docs=N] [--scale=S] [--threads=T]\n"
      "                           [--validate] [--per-query] [--sweep]\n"
      "                           [--input=PATH ...]\n"
      "                           [--policy=failfast|isolate] [--max-bytes=N]\n"
      "                           [--deadline-ms=N] [--degrade]\n"
      "                           [--failpoints=SPEC] [--failures-out=PATH]\n"
      "                           [--metrics-out=PATH] [--trace-out=PATH]\n"
      "                           [--prometheus-out=PATH]\n"
      "                           [--serve-metrics=PORT]\n"
      "                           [--serve-linger-ms=N]\n"
      "                           [--corpus-label=NAME]\n"
      "                           [--journal=DIR] [--auto-budget]\n"
      "                           [--checkpoint=DIR] [--resume=DIR]\n"
      "                           [--resume-retry-quarantined]\n");
}

// Strict numeric flag parsing: the whole value must consume, no silent
// atoi-style truncation of "4x" to 4. Fractions go through ParseDouble
// (common/strings.h), which xmlprojd shares.
bool ParseLong(const char* text, long* out) {
  if (*text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = value;
  return true;
}

int BadFlag(const char* flag, const char* value, const char* expected) {
  std::fprintf(stderr, "parallel_prune_tool: bad value '%s' for %s (%s)\n",
               value, flag, expected);
  return kExitUsage;
}

bool ReadInputFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return false;
  *out = std::move(buffer).str();
  return true;
}

// TaskFailure report as JSON, the artifact the CI chaos job uploads.
std::string FailureReportJson(const PipelineRun& run) {
  std::string json = "{\n";
  json += "  \"failed\": " + std::to_string(run.summary.failed) + ",\n";
  json += "  \"degraded\": " + std::to_string(run.summary.degraded) + ",\n";
  json += "  \"failures\": [";
  for (size_t i = 0; i < run.failures.size(); ++i) {
    const TaskFailure& f = run.failures[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\"task\": " + std::to_string(f.task) + ", \"stage\": ";
    AppendJsonString(f.stage, &json);
    json += ", \"code\": \"" + std::string(StatusCodeName(f.status.code())) +
            "\", \"peak_bytes\": " + std::to_string(f.peak_bytes) +
            ", \"message\": ";
    AppendJsonString(f.status.message(), &json);
    json += "}";
  }
  json += run.failures.empty() ? "]\n" : "\n  ]\n";
  json += "}\n";
  return json;
}

void PrintFailureReport(const PipelineRun& run) {
  if (run.failures.empty()) return;
  std::printf("\nquarantined tasks (%zu):\n", run.failures.size());
  for (const TaskFailure& f : run.failures) {
    std::printf("  task %-4zu stage=%-9s%s%s  %s\n", f.task,
                f.stage.c_str(), f.peak_bytes != 0 ? " peak_bytes=" : "",
                f.peak_bytes != 0 ? std::to_string(f.peak_bytes).c_str() : "",
                f.status.ToString().c_str());
  }
}

double RunOnce(const std::vector<std::string>& corpus, const Dtd& dtd,
               const NameSet& merged, const std::vector<NameSet>& per_query,
               bool use_per_query, const PipelineOptions& options,
               PipelineRun* out) {
  auto results =
      use_per_query
          ? PruneCorpusPerQuery(corpus, dtd, per_query, options)
          : PruneCorpus(corpus, dtd, merged, options);
  if (!results.ok()) {
    std::fprintf(stderr, "pipeline: %s\n", results.status().ToString().c_str());
    std::exit(kExitPipelineFailure);
  }
  *out = std::move(results).value();
  return out->summary.wall_seconds;
}

void PrintSummary(const PipelineSummary& s) {
  std::printf("\ncorpus pruning summary (Table 1 quantities):\n");
  std::printf("  tasks completed      %zu\n", s.tasks);
  if (s.failed != 0 || s.degraded != 0) {
    std::printf("  quarantined          %zu\n", s.failed);
    std::printf("  degraded (identity)  %zu\n", s.degraded);
  }
  std::printf("  input bytes          %zu (%.2f MB)\n", s.input_bytes,
              s.input_bytes / (1024.0 * 1024.0));
  std::printf("  output bytes         %zu (%.1f%% kept)\n", s.output_bytes,
              100.0 * s.ByteRatio());
  std::printf("  nodes                %zu -> %zu (%.1f%% kept)\n",
              s.input_nodes, s.kept_nodes, 100.0 * s.NodeRatio());
  std::printf("  text bytes           %zu -> %zu\n", s.input_text_bytes,
              s.kept_text_bytes);
  if (s.resumed_skipped != 0) {
    std::printf("  resumed (skipped)    %zu\n", s.resumed_skipped);
  }
  if (s.drained != 0) {
    std::printf("  drained (not run)    %zu\n", s.drained);
  }
  std::printf("  wall seconds         %.4f\n", s.wall_seconds);
}

void PrintStageTable(MetricsRegistry& registry) {
  struct Row {
    const char* label;
    const char* metric;
  };
  const Row rows[] = {
      {"queue-wait", "xmlproj_stage_queue_wait_ns"},
      {"task total", "xmlproj_stage_task_ns"},
  };
  std::printf("\nper-task stage latency (ms):\n");
  std::printf("  %-12s %8s %9s %9s %9s\n", "stage", "count", "mean", "p50",
              "p90");
  for (const Row& row : rows) {
    const Histogram* h = registry.GetHistogram(row.metric);
    if (h->Count() == 0) continue;
    std::printf("  %-12s %8llu %9.3f %9.3f %9.3f\n", row.label,
                static_cast<unsigned long long>(h->Count()), h->Mean() / 1e6,
                h->ApproxPercentile(0.5) / 1e6, h->ApproxPercentile(0.9) / 1e6);
  }
}

// Atomic (write-temp-then-rename): a crash or drain mid-write never
// leaves a torn report behind for CI to parse.
bool DumpToFile(const char* what, const std::string& path,
                const std::string& content) {
  std::string error;
  if (!AtomicWriteTextFile(path, content, /*fsync_file=*/false, &error)) {
    std::fprintf(stderr, "cannot write %s file: %s\n", what, error.c_str());
    return false;
  }
  std::printf("wrote %s (%s)\n", path.c_str(), what);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  long docs = 8;
  double scale = 0.002;
  long threads = 0;  // hardware (explicit --threads must be >= 1)
  bool validate = false;
  bool per_query = false;
  bool sweep = false;
  std::vector<std::string> input_paths;
  ErrorPolicy policy = ErrorPolicy::kFailFast;
  long max_bytes = 0;
  long deadline_ms = 0;
  bool degrade = false;
  std::string failpoints;
  std::string failures_out;
  std::string metrics_out;
  std::string prometheus_out;
  std::string trace_out;
  bool serve = false;
  long serve_port = 0;
  long serve_linger_ms = 0;
  std::string corpus_label;
  std::string journal_dir;
  bool auto_budget = false;
  bool max_bytes_explicit = false;
  std::string checkpoint_dir;
  std::string resume_dir;
  bool resume_retry_quarantined = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--docs=", 7) == 0) {
      if (!ParseLong(arg + 7, &docs) || docs < 0) {
        return BadFlag("--docs", arg + 7, "expected an integer >= 0");
      }
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      if (!ParseDouble(arg + 8, &scale) || scale <= 0) {
        return BadFlag("--scale", arg + 8, "expected a number > 0");
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      // Strict: 0 or negative is a usage error, not "use all cores".
      if (!ParseLong(arg + 10, &threads) || threads < 1) {
        return BadFlag("--threads", arg + 10, "expected an integer >= 1");
      }
    } else if (std::strcmp(arg, "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(arg, "--per-query") == 0) {
      per_query = true;
    } else if (std::strcmp(arg, "--sweep") == 0) {
      sweep = true;
    } else if (std::strncmp(arg, "--input=", 8) == 0) {
      if (arg[8] == '\0') {
        return BadFlag("--input", "", "expected a file path");
      }
      input_paths.emplace_back(arg + 8);
    } else if (std::strncmp(arg, "--policy=", 9) == 0) {
      const char* value = arg + 9;
      if (std::strcmp(value, "failfast") == 0) {
        policy = ErrorPolicy::kFailFast;
      } else if (std::strcmp(value, "isolate") == 0) {
        policy = ErrorPolicy::kIsolate;
      } else {
        return BadFlag("--policy", value, "expected failfast or isolate");
      }
    } else if (std::strncmp(arg, "--max-bytes=", 12) == 0) {
      if (!ParseLong(arg + 12, &max_bytes) || max_bytes < 0) {
        return BadFlag("--max-bytes", arg + 12, "expected an integer >= 0");
      }
      max_bytes_explicit = true;
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      if (!ParseLong(arg + 14, &deadline_ms) || deadline_ms < 0) {
        return BadFlag("--deadline-ms", arg + 14, "expected an integer >= 0");
      }
    } else if (std::strcmp(arg, "--degrade") == 0) {
      degrade = true;
    } else if (std::strncmp(arg, "--failpoints=", 13) == 0) {
      failpoints = arg + 13;
    } else if (std::strncmp(arg, "--failures-out=", 15) == 0) {
      if (arg[15] == '\0') {
        return BadFlag("--failures-out", "", "expected a file path");
      }
      failures_out = arg + 15;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      if (arg[14] == '\0') {
        return BadFlag("--metrics-out", "", "expected a file path");
      }
      metrics_out = arg + 14;
    } else if (std::strncmp(arg, "--prometheus-out=", 17) == 0) {
      if (arg[17] == '\0') {
        return BadFlag("--prometheus-out", "", "expected a file path");
      }
      prometheus_out = arg + 17;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      if (arg[12] == '\0') {
        return BadFlag("--trace-out", "", "expected a file path");
      }
      trace_out = arg + 12;
    } else if (std::strncmp(arg, "--serve-metrics=", 16) == 0) {
      // 0 = ephemeral port (printed on startup).
      if (!ParseLong(arg + 16, &serve_port) || serve_port < 0 ||
          serve_port > 65535) {
        return BadFlag("--serve-metrics", arg + 16,
                       "expected a port number 0..65535");
      }
      serve = true;
    } else if (std::strncmp(arg, "--serve-linger-ms=", 18) == 0) {
      if (!ParseLong(arg + 18, &serve_linger_ms) || serve_linger_ms < 0) {
        return BadFlag("--serve-linger-ms", arg + 18,
                       "expected an integer >= 0");
      }
    } else if (std::strncmp(arg, "--corpus-label=", 15) == 0) {
      if (arg[15] == '\0') {
        return BadFlag("--corpus-label", "", "expected a label value");
      }
      corpus_label = arg + 15;
    } else if (std::strncmp(arg, "--journal=", 10) == 0) {
      if (arg[10] == '\0') {
        return BadFlag("--journal", "", "expected a directory path");
      }
      journal_dir = arg + 10;
    } else if (std::strcmp(arg, "--auto-budget") == 0) {
      auto_budget = true;
    } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      if (arg[13] == '\0') {
        return BadFlag("--checkpoint", "", "expected a directory path");
      }
      checkpoint_dir = arg + 13;
    } else if (std::strncmp(arg, "--resume=", 9) == 0) {
      if (arg[9] == '\0') {
        return BadFlag("--resume", "", "expected a directory path");
      }
      resume_dir = arg + 9;
    } else if (std::strcmp(arg, "--resume-retry-quarantined") == 0) {
      resume_retry_quarantined = true;
    } else {
      std::fprintf(stderr, "parallel_prune_tool: unknown flag '%s'\n", arg);
      PrintUsage();
      return kExitUsage;
    }
  }
  if (auto_budget && journal_dir.empty()) {
    std::fprintf(stderr, "parallel_prune_tool: --auto-budget requires "
                         "--journal=DIR (it tunes from journal history)\n");
    return kExitUsage;
  }
  if (!checkpoint_dir.empty() && !resume_dir.empty()) {
    std::fprintf(stderr, "parallel_prune_tool: --checkpoint and --resume "
                         "are mutually exclusive (resume appends to the "
                         "existing checkpoint)\n");
    return kExitUsage;
  }
  if ((!checkpoint_dir.empty() || !resume_dir.empty()) && sweep) {
    std::fprintf(stderr, "parallel_prune_tool: --sweep re-runs the corpus "
                         "per thread count and cannot be checkpointed\n");
    return kExitUsage;
  }
  if (resume_retry_quarantined && resume_dir.empty()) {
    std::fprintf(stderr, "parallel_prune_tool: --resume-retry-quarantined "
                         "requires --resume=DIR\n");
    return kExitUsage;
  }
  if (threads <= 0) {
    threads = static_cast<long>(
        std::max(1u, std::thread::hardware_concurrency()));
  }

  // Fault injector: --failpoints wins; otherwise honor XMLPROJ_FAILPOINTS.
  FaultInjector flag_injector;
  FaultInjector* fault = nullptr;
  if (!failpoints.empty()) {
    Status armed = flag_injector.ArmFromSpec(failpoints);
    if (!armed.ok()) {
      std::fprintf(stderr, "parallel_prune_tool: bad --failpoints spec: %s\n",
                   armed.ToString().c_str());
      return kExitUsage;
    }
    fault = &flag_injector;
  } else {
    fault = FaultInjector::FromEnv();
  }

  auto dtd = LoadXMarkDtd();
  if (!dtd.ok()) {
    std::fprintf(stderr, "DTD: %s\n", dtd.status().ToString().c_str());
    return kExitSetupFailure;
  }

  std::vector<std::string> corpus;
  size_t in_bytes = 0;
  if (!input_paths.empty()) {
    for (const std::string& path : input_paths) {
      std::string text;
      if (!ReadInputFile(path, &text)) {
        std::fprintf(stderr,
                     "parallel_prune_tool: cannot read input file '%s'\n",
                     path.c_str());
        return kExitInputFile;
      }
      corpus.push_back(std::move(text));
    }
    in_bytes = CorpusBytes(corpus);
    std::printf("corpus: %zu input files, %.2f MB total\n", corpus.size(),
                in_bytes / (1024.0 * 1024.0));
  } else {
    XMarkCorpusOptions corpus_options;
    corpus_options.documents = static_cast<int>(docs);
    corpus_options.scale = scale;
    corpus = GenerateXMarkCorpus(corpus_options);
    in_bytes = CorpusBytes(corpus);
    std::printf("corpus: %ld XMark documents, %.2f MB total\n", docs,
                in_bytes / (1024.0 * 1024.0));
  }
  if (corpus.empty()) {
    std::fprintf(stderr, "parallel_prune_tool: the corpus is empty "
                         "(use --docs=N or --input=PATH)\n");
    return kExitEmptyCorpus;
  }

  auto merged = WorkloadProjector(*dtd, XMarkDashboardWorkload());
  auto per_query_projectors =
      WorkloadProjectors(*dtd, XMarkDashboardWorkload());
  if (!merged.ok() || !per_query_projectors.ok()) {
    std::fprintf(stderr, "projector inference failed\n");
    return kExitSetupFailure;
  }
  std::printf("workload: %zu queries, merged projector keeps %zu/%zu names"
              "%s%s\n",
              XMarkDashboardWorkload().size(), merged->Count(),
              dtd->name_count(), per_query ? ", per-query fan-out" : "",
              validate ? ", validating" : "");
  size_t tasks =
      per_query ? corpus.size() * per_query_projectors->size() : corpus.size();

  const bool instrument = !metrics_out.empty() || !prometheus_out.empty() ||
                          !trace_out.empty() || serve ||
                          !corpus_label.empty() || !journal_dir.empty();
  MetricsRegistry registry;
  TraceCollector trace;
  PipelineOptions options;
  options.validate = validate;
  options.policy = policy;
  options.budget.max_bytes = static_cast<size_t>(max_bytes);
  options.budget.deadline_ms = static_cast<uint64_t>(deadline_ms);
  options.degrade_on_invalid = degrade;
  options.fault = fault;
  if (instrument) {
    options.metrics = &registry;
    if (!trace_out.empty() || serve) options.trace = &trace;
    options.corpus_label = corpus_label;
    RegisterBuildInfo(&registry);
  }

  // Journal history: loaded before the run so the breaker can be seeded
  // from the last run's outcome and --auto-budget can tune the byte cap
  // from the p99 of prior peaks.
  std::vector<RunRecord> history;
  if (!journal_dir.empty()) {
    size_t skipped = 0;
    std::string error;
    if (!RunJournal::Load(journal_dir, &history, &skipped, &error)) {
      std::fprintf(stderr, "parallel_prune_tool: --journal load failed: %s\n",
                   error.c_str());
      return kExitTelemetryWrite;
    }
    std::printf("journal: loaded %zu prior run(s) from %s",
                history.size(), RunJournal::PathFor(journal_dir).c_str());
    if (skipped > 0) std::printf(" (%zu corrupt line(s) skipped)", skipped);
    std::printf("\n");
  }
  if (auto_budget) {
    BudgetSuggestion suggestion = SuggestBudgets(history, corpus_label);
    if (max_bytes_explicit) {
      std::printf("auto-budget: --max-bytes=%ld set explicitly, keeping it"
                  " (journal suggestion: %llu bytes over %zu run(s))\n",
                  max_bytes,
                  static_cast<unsigned long long>(
                      suggestion.suggested_max_bytes),
                  suggestion.runs);
    } else if (suggestion.runs == 0) {
      std::printf("auto-budget: no prior peak history for this corpus,"
                  " running without a byte budget\n");
    } else {
      options.budget.max_bytes = suggestion.suggested_max_bytes;
      std::printf("auto-budget: p99 peak %llu bytes over %zu run(s)"
                  " -> max-bytes=%llu\n",
                  static_cast<unsigned long long>(suggestion.p99_peak_bytes),
                  suggestion.runs,
                  static_cast<unsigned long long>(
                      suggestion.suggested_max_bytes));
    }
  }

  // Circuit breaker: admission control for kIsolate runs, seeded from
  // the most recent journal record for this corpus so a deployment whose
  // server faults were melting it restarts open instead of re-melting.
  CircuitBreakerOptions breaker_options;
  if (instrument) breaker_options.metrics = &registry;
  CircuitBreaker breaker(breaker_options);
  const BreakerSeed seed =
      SeedBreakerFromJournal(history, corpus_label, &breaker);
  if (breaker.state() != CircuitState::kClosed) {
    std::printf("circuit: seeded open from run %s (%llu server faults)\n",
                seed.record->run_id.c_str(),
                static_cast<unsigned long long>(seed.failures));
  }
  options.breaker = &breaker;

  // Checkpoint / resume: bind the checkpoint to the corpus, workload,
  // projectors, and the output-shaping options *after* auto-budget has
  // settled the byte cap (the budget is part of the fingerprint).
  const bool durable = !checkpoint_dir.empty() || !resume_dir.empty();
  const std::string workload_name =
      per_query ? "xmark-dashboard-per-query" : "xmark-dashboard-merged";
  RunCheckpoint checkpoint;
  ResumePlan resume_plan;
  if (durable) {
    std::span<const NameSet> bound_projectors =
        per_query ? std::span<const NameSet>(*per_query_projectors)
                  : std::span<const NameSet>(&*merged, 1);
    CheckpointBinding binding = ComputeCorpusBinding(
        corpus, bound_projectors, options, workload_name);
    if (!resume_dir.empty()) {
      resume_plan = PlanResume(resume_dir, binding, resume_retry_quarantined);
      if (!resume_plan.resumable) {
        std::fprintf(stderr, "parallel_prune_tool: cannot resume %s: %s\n",
                     resume_dir.c_str(), resume_plan.mismatch.c_str());
        return kExitResumeMismatch;
      }
      Status opened = checkpoint.OpenForAppend(resume_dir);
      if (!opened.ok()) {
        std::fprintf(stderr, "parallel_prune_tool: --resume failed: %s\n",
                     opened.ToString().c_str());
        return kExitTelemetryWrite;
      }
      std::printf("resume: run %s settled %zu task(s) (%zu completed, %zu "
                  "quarantined carried%s)",
                  resume_plan.run_id.c_str(),
                  resume_plan.skipped_completed +
                      resume_plan.skipped_quarantined,
                  resume_plan.skipped_completed,
                  resume_plan.skipped_quarantined,
                  resume_retry_quarantined ? "" : "; --resume-retry-"
                                                  "quarantined re-admits");
      if (resume_plan.retry_quarantined > 0) {
        std::printf(", %zu quarantined re-admitted",
                    resume_plan.retry_quarantined);
      }
      if (resume_plan.invalidated > 0) {
        std::printf(", %zu invalidated output(s) re-run",
                    resume_plan.invalidated);
      }
      if (resume_plan.torn_lines > 0) {
        std::printf(", %zu torn line(s) skipped", resume_plan.torn_lines);
      }
      std::printf("\n");
      options.resume = &resume_plan;
    } else {
      CheckpointHeader header;
      header.run_id = GenerateRunId();
      header.started_unix_ms = UnixNowMs();
      header.binding = binding;
      Status created = checkpoint.Create(checkpoint_dir, header);
      if (!created.ok()) {
        std::fprintf(stderr, "parallel_prune_tool: --checkpoint failed: %s\n",
                     created.ToString().c_str());
        return kExitTelemetryWrite;
      }
      std::printf("checkpoint: run %s -> %s\n", header.run_id.c_str(),
                  RunCheckpoint::PathFor(checkpoint_dir).c_str());
    }
    options.checkpoint = &checkpoint;
  }

  // Graceful drain: SIGINT/SIGTERM stop task admission; in-flight tasks
  // finish, then telemetry and the journal still flush.
  options.stop = &g_stop;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  // Scrape server: started before the run so /metrics, /statusz and
  // /healthz observe the pipeline live, not post-hoc.
  ObsServer server;
  if (serve) {
    ObsServerOptions serve_options;
    serve_options.port = static_cast<uint16_t>(serve_port);
    serve_options.registry = &registry;
    serve_options.trace = &trace;
    serve_options.circuit_state = [&breaker] { return breaker.state_int(); };
    std::string error;
    if (!server.Start(serve_options, &error)) {
      std::fprintf(stderr, "parallel_prune_tool: --serve-metrics failed: %s\n",
                   error.c_str());
      return kExitServeFailure;
    }
    std::printf("serving metrics on http://127.0.0.1:%u/metrics "
                "(also /metrics.json /healthz /statusz /tracez)\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
  }

  const uint64_t run_start_unix_ms = UnixNowMs();
  PipelineRun run;
  if (sweep) {
    double base = 0;
    for (long t = 1; t <= threads; t = t < threads ? std::min(t * 2, threads)
                                                   : threads + 1) {
      options.num_threads = static_cast<int>(t);
      double seconds = RunOnce(corpus, *dtd, *merged, *per_query_projectors,
                               per_query, options, &run);
      if (t == 1) base = seconds;
      std::printf("  threads=%-2ld  %8.1f ms  %7.1f MB/s  speedup %.2fx\n", t,
                  seconds * 1e3, in_bytes / seconds / (1024.0 * 1024.0),
                  base / seconds);
    }
  } else {
    options.num_threads = static_cast<int>(threads);
    double seconds = RunOnce(corpus, *dtd, *merged, *per_query_projectors,
                             per_query, options, &run);
    std::printf("%zu tasks on %ld threads: %.1f ms, %.1f MB/s\n", tasks,
                threads, seconds * 1e3,
                in_bytes / seconds / (1024.0 * 1024.0));
  }
  PrintSummary(run.summary);
  PrintFailureReport(run);
  if (instrument) PrintStageTable(registry);

  bool io_ok = true;
  if (!failures_out.empty()) {
    io_ok = DumpToFile("failure report", failures_out, FailureReportJson(run))
            && io_ok;
  }
  if (!metrics_out.empty()) {
    std::string json;
    AppendMetricsJson(registry, &json);
    io_ok = DumpToFile("metrics JSON", metrics_out, json) && io_ok;
  }
  if (!prometheus_out.empty()) {
    std::string text;
    AppendPrometheusText(registry, &text);
    io_ok = DumpToFile("Prometheus metrics", prometheus_out, text) && io_ok;
  }
  if (!trace_out.empty()) {
    std::string json;
    trace.AppendChromeTraceJson(&json);
    io_ok = DumpToFile("Chrome trace", trace_out, json) && io_ok;
  }

  // Journal append: one record per process run (a sweep journals its
  // final configuration) so the next invocation can seed the breaker and
  // --auto-budget from it.
  if (!journal_dir.empty()) {
    RunRecord record;
    record.run_id = GenerateRunId();
    record.corpus = corpus_label;
    record.start_unix_ms = run_start_unix_ms;
    record.end_unix_ms = UnixNowMs();
    record.wall_seconds = run.summary.wall_seconds;
    record.tasks = run.summary.tasks;
    record.failed = run.summary.failed;
    record.degraded = run.summary.degraded;
    record.input_bytes = run.summary.input_bytes;
    record.output_bytes = run.summary.output_bytes;
    record.peak_memory_bytes = run.summary.max_task_peak_bytes;
    if (!resume_dir.empty()) {
      record.resume_skipped = run.summary.resumed_skipped;
      record.resume_rerun = static_cast<uint64_t>(
          tasks - run.summary.resumed_skipped - run.summary.drained);
    }
    std::map<std::string, uint64_t> stage_counts;
    for (const TaskFailure& failure : run.failures) {
      ++stage_counts[failure.stage];
    }
    SetQuarantineDigest(stage_counts, &record);
    RunJournal journal;
    // A checkpoint-bearing run's journal line must be as durable as the
    // checkpoint it describes.
    journal.set_fsync(durable);
    std::string error;
    if (!journal.Open(journal_dir, &error) ||
        !journal.Append(record, &error)) {
      std::fprintf(stderr, "parallel_prune_tool: journal append failed: %s\n",
                   error.c_str());
      io_ok = false;
    } else {
      std::printf("journal: appended run %s to %s\n", record.run_id.c_str(),
                  journal.path().c_str());
    }
  }

  if (serve) {
    // Keep the final registry scrapeable for a bounded window (CI smoke
    // curls after the run), then drain the listener and stop.
    if (serve_linger_ms > 0) {
      std::printf("serving final metrics for %ld ms before shutdown\n",
                  serve_linger_ms);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(serve_linger_ms));
    }
    server.Stop();
    std::printf("metrics server stopped after %llu request(s)\n",
                static_cast<unsigned long long>(server.requests_served()));
  }
  if (!io_ok) return kExitTelemetryWrite;
  if (g_stop.load(std::memory_order_relaxed) || run.summary.drained != 0) {
    std::printf("drained: %zu task(s) not run; resume with --resume=%s\n",
                run.summary.drained,
                checkpoint_dir.empty()
                    ? (resume_dir.empty() ? "DIR" : resume_dir.c_str())
                    : checkpoint_dir.c_str());
    return kExitDrained;
  }
  return 0;
}
