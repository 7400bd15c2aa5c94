#include "projection/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/circuit.h"
#include "projection/checkpoint.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/splice.h"

namespace xmlproj {
namespace {

// Null-safe metric updates. A handle is null when metrics are off, and
// in release builds also when the caller's registry already holds the
// name under another kind (MetricsRegistry::kind_conflicts()), so every
// use checks its own handle.
void CounterAdd(Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) counter->Increment(n);
}
void GaugeAdd(Gauge* gauge, int64_t n) {
  if (gauge != nullptr) gauge->Add(n);
}
void GaugeSet(Gauge* gauge, int64_t value) {
  if (gauge != nullptr) gauge->Set(value);
}

// Resolved metric handles for one pipeline run; null handles (the
// default) short-circuit every instrumentation site. Metric names are
// Prometheus-safe and documented in README "Observability".
struct PipelineMetrics {
  Counter* tasks_total = nullptr;
  Counter* errors_total = nullptr;
  Counter* input_bytes_total = nullptr;
  Counter* output_bytes_total = nullptr;
  Counter* input_nodes_total = nullptr;
  Counter* kept_nodes_total = nullptr;
  Counter* input_text_bytes_total = nullptr;
  Counter* kept_text_bytes_total = nullptr;
  // Fault-tolerance counters (README "Fault tolerance").
  Counter* retries_total = nullptr;
  Counter* isolated_total = nullptr;
  Counter* degraded_total = nullptr;
  Counter* deadline_exceeded_total = nullptr;
  Counter* resource_exhausted_total = nullptr;
  Histogram* task_ns = nullptr;
  Histogram* queue_wait_ns = nullptr;
  Gauge* threads = nullptr;
  // Live progress gauges, updated at task granularity so a /statusz
  // scrape mid-run sees how far the corpus has gotten. At the end of a
  // non-cancelled run completed + failed == tasks and inflight == 0.
  Gauge* progress_tasks = nullptr;
  Gauge* progress_completed = nullptr;
  Gauge* progress_failed = nullptr;
  Gauge* progress_inflight = nullptr;
  // Largest task memory peak (output + open-element charge, every task);
  // SetMax fold, so the gauge survives MergeFrom across shards.
  Gauge* memory_peak_bytes = nullptr;
  // Checkpoint/resume and watchdog counters (README "Checkpoint &
  // resume"): appends made durable, tasks skipped by a resume plan, runs
  // started from a resume plan, watchdog firings, and tasks abandoned
  // un-run by a graceful drain.
  Counter* checkpoint_appends = nullptr;
  Counter* checkpoint_tasks_skipped = nullptr;
  Counter* checkpoint_resume_total = nullptr;
  Counter* watchdog_total = nullptr;
  Counter* drained_total = nullptr;

  static PipelineMetrics Resolve(MetricsRegistry* registry) {
    PipelineMetrics m;
    if (registry == nullptr) return m;
    m.tasks_total = registry->GetCounter("xmlproj_pipeline_tasks_total");
    m.errors_total = registry->GetCounter("xmlproj_pipeline_errors_total");
    m.input_bytes_total =
        registry->GetCounter("xmlproj_pipeline_input_bytes_total");
    m.output_bytes_total =
        registry->GetCounter("xmlproj_pipeline_output_bytes_total");
    m.input_nodes_total =
        registry->GetCounter("xmlproj_pipeline_input_nodes_total");
    m.kept_nodes_total =
        registry->GetCounter("xmlproj_pipeline_kept_nodes_total");
    m.input_text_bytes_total =
        registry->GetCounter("xmlproj_pipeline_input_text_bytes_total");
    m.kept_text_bytes_total =
        registry->GetCounter("xmlproj_pipeline_kept_text_bytes_total");
    m.retries_total = registry->GetCounter("xmlproj_pipeline_retries_total");
    m.isolated_total =
        registry->GetCounter("xmlproj_pipeline_isolated_total");
    m.degraded_total =
        registry->GetCounter("xmlproj_pipeline_degraded_total");
    m.deadline_exceeded_total =
        registry->GetCounter("xmlproj_pipeline_deadline_exceeded_total");
    m.resource_exhausted_total =
        registry->GetCounter("xmlproj_pipeline_resource_exhausted_total");
    m.task_ns = registry->GetHistogram("xmlproj_stage_task_ns");
    m.queue_wait_ns = registry->GetHistogram("xmlproj_stage_queue_wait_ns");
    m.threads = registry->GetGauge("xmlproj_pipeline_threads");
    m.progress_tasks = registry->GetGauge("xmlproj_progress_tasks");
    m.progress_completed = registry->GetGauge("xmlproj_progress_completed");
    m.progress_failed = registry->GetGauge("xmlproj_progress_failed");
    m.progress_inflight = registry->GetGauge("xmlproj_progress_inflight");
    m.memory_peak_bytes = registry->GetGauge("xmlproj_memory_peak_bytes");
    m.checkpoint_appends =
        registry->GetCounter("xmlproj_checkpoint_appends");
    m.checkpoint_tasks_skipped =
        registry->GetCounter("xmlproj_checkpoint_tasks_skipped");
    m.checkpoint_resume_total =
        registry->GetCounter("xmlproj_checkpoint_resume_total");
    m.watchdog_total =
        registry->GetCounter("xmlproj_pipeline_watchdog_total");
    m.drained_total = registry->GetCounter("xmlproj_pipeline_drained_total");
    // HELP text for the families an operator meets first on a scrape
    // (`# HELP` lines in /metrics; see obs/export.h).
    registry->SetHelp("xmlproj_pipeline_tasks_total",
                      "Pipeline tasks executed (one per document x query)");
    registry->SetHelp("xmlproj_pipeline_input_bytes_total",
                      "Input XML bytes consumed by the pruning pipeline");
    registry->SetHelp("xmlproj_pipeline_output_bytes_total",
                      "Projected output bytes produced by the pipeline");
    registry->SetHelp("xmlproj_pipeline_kept_nodes_total",
                      "Nodes kept by projection (paper Table 1 numerator)");
    registry->SetHelp("xmlproj_progress_tasks",
                      "Tasks submitted to the current pipeline run");
    registry->SetHelp("xmlproj_progress_completed",
                      "Tasks finished successfully in the current run");
    registry->SetHelp("xmlproj_progress_failed",
                      "Tasks that exhausted their error policy this run");
    registry->SetHelp("xmlproj_progress_inflight",
                      "Tasks currently executing");
    registry->SetHelp("xmlproj_stage_task_ns",
                      "Whole fused-pass latency per task, nanoseconds");
    registry->SetHelp("xmlproj_memory_peak_bytes",
                      "Largest per-task memory peak: bytes the fused pass "
                      "materializes (output + open-element charge), "
                      "excluding the input document");
    registry->SetHelp("xmlproj_checkpoint_appends",
                      "Durable (fsync'd) checkpoint records appended");
    registry->SetHelp("xmlproj_checkpoint_tasks_skipped",
                      "Tasks skipped because a resume plan settled them");
    registry->SetHelp("xmlproj_checkpoint_resume_total",
                      "Pipeline runs started from a resume plan");
    registry->SetHelp("xmlproj_pipeline_watchdog_total",
                      "Tasks flagged by the hung-task watchdog");
    registry->SetHelp("xmlproj_pipeline_drained_total",
                      "Tasks abandoned un-run by a graceful drain");
    return m;
  }
};

ThreadPoolMetrics ResolvePoolMetrics(MetricsRegistry* registry,
                                     TraceCollector* trace) {
  ThreadPoolMetrics m;
  if (registry != nullptr) {
    m.tasks_total = registry->GetCounter("xmlproj_pool_tasks_total");
    m.busy_ns_total = registry->GetCounter("xmlproj_pool_busy_ns_total");
    m.queue_depth = registry->GetGauge("xmlproj_pool_queue_depth");
    m.queue_depth_peak = registry->GetGauge("xmlproj_pool_queue_depth_peak");
    m.active_workers = registry->GetGauge("xmlproj_pool_active_workers");
  }
  m.trace = trace;
  return m;
}

// Monotonic deadline `ms` milliseconds after `now_ns`, saturating: a
// deadline too large to represent means "none", never "already past".
uint64_t SaturatingDeadlineNs(uint64_t now_ns, uint64_t ms) {
  constexpr uint64_t kNsPerMs = 1000000;
  if (ms > (UINT64_MAX - now_ns) / kNsPerMs) return UINT64_MAX;
  return now_ns + ms * kNsPerMs;
}

// SAX filter enforcing an active TaskBudget over the fused pass. Placed
// outermost (right below the parser) so it sees every event, pruned or
// kept:
//
//  - wall-clock deadline: one steady-clock read before each event (only
//    when a deadline is configured), converting a stalled pass into
//    kDeadlineExceeded at event granularity;
//  - byte cap: after each event, the sink's produced bytes plus the
//    guard's own open-element charge are compared with the cap; crossing
//    it aborts with kResourceExhausted within one event of the cap (the
//    overshoot is bounded by a single event's output).
//
// The guard only enforces. The task's memory peak is read after the pass
// from the sink and the parser (RunAttempt), budget or not.
class BudgetGuard : public SaxHandler {
 public:
  // `cancel` (nullable) is the watchdog's kill switch: once it flips, the
  // next SAX event aborts the pass — the only way to interrupt a task
  // that is wedged *between* deadline checks (e.g. an injected stall).
  BudgetGuard(SaxHandler* downstream, const SplicingSerializingHandler* sink,
              const TaskBudget& budget, const std::atomic<bool>* cancel)
      : downstream_(downstream),
        sink_(sink),
        cancel_(cancel),
        max_bytes_(budget.max_bytes),
        deadline_ms_(budget.deadline_ms) {
    if (budget.deadline_ms > 0) {
      deadline_ns_ = SaturatingDeadlineNs(MonotonicNowNs(), budget.deadline_ms);
    }
  }

  void SetLocator(const SaxLocator* locator) override {
    downstream_->SetLocator(locator);
  }

  Status StartDocument() override {
    XMLPROJ_RETURN_IF_ERROR(CheckDeadline());
    XMLPROJ_RETURN_IF_ERROR(downstream_->StartDocument());
    return CheckBytes();
  }
  Status EndDocument() override {
    XMLPROJ_RETURN_IF_ERROR(CheckDeadline());
    XMLPROJ_RETURN_IF_ERROR(downstream_->EndDocument());
    return CheckBytes();
  }
  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override {
    XMLPROJ_RETURN_IF_ERROR(CheckDeadline());
    XMLPROJ_RETURN_IF_ERROR(downstream_->StartElement(tag, attributes));
    open_bytes_ += tag.size() + kOpenElementBytes;
    return CheckBytes();
  }
  Status EndElement(std::string_view tag) override {
    XMLPROJ_RETURN_IF_ERROR(CheckDeadline());
    XMLPROJ_RETURN_IF_ERROR(downstream_->EndElement(tag));
    open_bytes_ -= tag.size() + kOpenElementBytes;
    return CheckBytes();
  }
  Status Characters(std::string_view text) override {
    XMLPROJ_RETURN_IF_ERROR(CheckDeadline());
    XMLPROJ_RETURN_IF_ERROR(downstream_->Characters(text));
    return CheckBytes();
  }
  Status Doctype(std::string_view name,
                 std::string_view internal_subset) override {
    XMLPROJ_RETURN_IF_ERROR(CheckDeadline());
    XMLPROJ_RETURN_IF_ERROR(downstream_->Doctype(name, internal_subset));
    return CheckBytes();
  }

 private:
  Status CheckDeadline() {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return DeadlineExceededError(StringPrintf(
          "task cancelled by the watchdog past its %llu ms deadline",
          static_cast<unsigned long long>(deadline_ms_)));
    }
    if (deadline_ns_ != 0 && MonotonicNowNs() > deadline_ns_) {
      return DeadlineExceededError(
          StringPrintf("task exceeded its %llu ms deadline",
                       static_cast<unsigned long long>(deadline_ms_)));
    }
    return Status::Ok();
  }

  Status CheckBytes() const {
    if (max_bytes_ == 0) return Status::Ok();
    // produced_bytes() includes the sink's deferred splice span, so a
    // long kept run cannot hide output growth from the cap until flush.
    const size_t metered = sink_->produced_bytes() + open_bytes_;
    if (metered > max_bytes_) {
      return ResourceExhaustedError(StringPrintf(
          "task memory budget exhausted: %zu bytes metered, cap %zu",
          metered, max_bytes_));
    }
    return Status::Ok();
  }

  SaxHandler* downstream_;
  const SplicingSerializingHandler* sink_;
  const std::atomic<bool>* cancel_;
  const size_t max_bytes_;
  const uint64_t deadline_ms_;
  uint64_t deadline_ns_ = 0;
  size_t open_bytes_ = 0;
};

// Stat-counting passthrough for the degraded identity pass: every node is
// "kept", so the result's PruneStats stay meaningful in the summary.
class CountingPassthrough : public SaxHandler {
 public:
  explicit CountingPassthrough(SaxHandler* downstream)
      : downstream_(downstream) {}

  const PruneStats& stats() const { return stats_; }

  void SetLocator(const SaxLocator* locator) override {
    downstream_->SetLocator(locator);
  }

  Status StartDocument() override { return downstream_->StartDocument(); }
  Status EndDocument() override { return downstream_->EndDocument(); }
  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override {
    ++stats_.input_nodes;
    ++stats_.kept_nodes;
    return downstream_->StartElement(tag, attributes);
  }
  Status EndElement(std::string_view tag) override {
    return downstream_->EndElement(tag);
  }
  Status Characters(std::string_view text) override {
    ++stats_.input_nodes;
    ++stats_.kept_nodes;
    stats_.input_text_bytes += text.size();
    stats_.kept_text_bytes += text.size();
    return downstream_->Characters(text);
  }
  Status Doctype(std::string_view name,
                 std::string_view internal_subset) override {
    return downstream_->Doctype(name, internal_subset);
  }

 private:
  SaxHandler* downstream_;
  PruneStats stats_;
};

// Hung-task watchdog (PipelineOptions::watchdog_factor): one monitor
// thread polls the in-flight registry and, for any task running past its
// grace limit, (1) flips the task's cancel flag so BudgetGuard aborts it
// at the next SAX event, and (2) — when a checkpoint is attached —
// appends a stage-"watchdog" quarantine record *while the task is still
// wedged*, so even a subsequent crash leaves the poisonous document on
// record for resume to skip. A task that later completes anyway
// supersedes that record (the resume planner takes the last record per
// task). The watchdog cannot preempt a thread: a pass stalled inside a
// single SAX callback stays stalled until that callback returns — the
// record-before-unwedge ordering is exactly what makes that survivable.
class TaskWatchdog {
 public:
  TaskWatchdog(uint64_t limit_ns, RunCheckpoint* checkpoint,
               Counter* fired_total, StructuredLogger* logger)
      : limit_ns_(limit_ns),
        checkpoint_(checkpoint),
        fired_total_(fired_total),
        logger_(logger),
        thread_([this] { Loop(); }) {}

  ~TaskWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  // `cancel` must stay alive until the matching Unwatch.
  void Watch(size_t task, std::atomic<bool>* cancel) {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t now = MonotonicNowNs();
    const uint64_t deadline =
        limit_ns_ > UINT64_MAX - now ? UINT64_MAX : now + limit_ns_;
    slots_[task] = Slot{deadline, cancel, false};
  }

  // Ends the watch; true when the watchdog fired for this task.
  bool Unwatch(size_t task) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(task);
    if (it == slots_.end()) return false;
    bool fired = it->second.fired;
    slots_.erase(it);
    return fired;
  }

 private:
  struct Slot {
    uint64_t deadline_ns = 0;
    std::atomic<bool>* cancel = nullptr;
    bool fired = false;
  };

  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(5));
      if (stop_) break;
      uint64_t now = MonotonicNowNs();
      std::vector<size_t> fired_now;
      for (auto& [task, slot] : slots_) {
        if (slot.fired || now < slot.deadline_ns) continue;
        slot.fired = true;
        slot.cancel->store(true, std::memory_order_relaxed);
        fired_now.push_back(task);
      }
      if (fired_now.empty()) continue;
      // Checkpoint I/O outside the lock: an fsync must not block
      // Watch/Unwatch on the worker threads.
      lock.unlock();
      for (size_t task : fired_now) {
        CounterAdd(fired_total_);
        if (logger_ != nullptr) {
          logger_->Log(LogLevel::kWarn, "pipeline.watchdog",
                       {{"task", static_cast<uint64_t>(task)},
                        {"limit_ms", limit_ns_ / 1000000}});
        }
        if (checkpoint_ != nullptr) {
          CheckpointTaskRecord record;
          record.task = task;
          record.completed = false;
          record.stage = "watchdog";
          record.code = StatusCodeName(StatusCode::kDeadlineExceeded);
          record.attempts = 1;
          // Best effort: the task itself still reports its outcome.
          (void)checkpoint_->AppendTask(record);
        }
      }
      lock.lock();
    }
  }

  const uint64_t limit_ns_;
  RunCheckpoint* const checkpoint_;
  Counter* const fired_total_;
  StructuredLogger* const logger_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<size_t, Slot> slots_;
  bool stop_ = false;
  std::thread thread_;
};

// Everything one task execution needs, resolved once per run.
struct TaskEnv {
  // Kept alongside the resolved handles for the labeled-series path:
  // per-task label sets resolve against the registry at task granularity
  // (PipelineTask::labels). Null when metrics are off.
  MetricsRegistry* registry = nullptr;
  const Dtd* dtd = nullptr;
  bool validate = false;
  ErrorPolicy policy = ErrorPolicy::kFailFast;
  RetryOptions retry;
  TaskBudget budget;
  bool degrade = false;
  FaultInjector* fault = nullptr;
  // Admission-control breaker (only set when policy != kFailFast); see
  // PipelineOptions.
  CircuitBreaker* breaker = nullptr;
  PipelineMetrics metrics;
  TraceCollector* trace = nullptr;
  bool instrumented = false;
  // Durability and hang protection (null = off): the open checkpoint
  // outcomes commit to, and the watchdog in-flight registry.
  RunCheckpoint* checkpoint = nullptr;
  TaskWatchdog* watchdog = nullptr;
};

struct TaskOutcome {
  Status status;
  int attempts = 1;
  bool degraded = false;
  size_t peak_bytes = 0;
  // Denied at admission by an open circuit breaker — the task never
  // executed, and its quarantine stage is "circuit" rather than the
  // status-derived one (kUnavailable would otherwise map to "io").
  bool fast_failed = false;
  // The watchdog fired and the task failed: quarantine stage "watchdog".
  bool watchdog = false;
  // Durability failure after a successful pass: "commit" (atomic output
  // rename failed) or "checkpoint" (record append failed). Overrides the
  // status-derived stage.
  const char* stage_override = nullptr;
};

// Quarantine stage attribution for one task outcome. `code` is the
// authoritative final status code (the pool future's, which can differ
// from the outcome's when the worker never ran the task body).
const char* FailureStage(const TaskOutcome& outcome, StatusCode code,
                         bool validate) {
  if (outcome.fast_failed) return "circuit";
  if (outcome.watchdog) return "watchdog";
  if (outcome.stage_override != nullptr) return outcome.stage_override;
  return StageForStatus(code, validate);
}

// One attempt of the fused per-document pass: SAX events from the parser
// flow through the budget guard (only when a budget is active) and the
// pruner straight into the serializer — no DOM, O(depth) state, exactly
// the paper's one-pass deployment. `identity` replaces the pruner with a
// counting passthrough (the degraded no-prune fallback). The chain is the
// same whether or not telemetry is attached: ExecuteTask times the task
// from outside. `*peak_bytes` receives the pass's memory peak, failed or
// not: the sink's produced bytes plus the parser's open-element
// high-water mark.
Status RunAttempt(const TaskEnv& env, const PipelineTask& task, bool identity,
                  const std::atomic<bool>* cancel, PipelineResult* out,
                  size_t* peak_bytes) {
  *peak_bytes = 0;
  XMLPROJ_RETURN_IF_ERROR(XMLPROJ_FAULT_HIT(env.fault, "pipeline.task"));

  out->output.clear();
  out->stats = PruneStats{};
  out->degraded = false;

  XmlParseOptions parse_options;
  parse_options.fault = env.fault;

  // Zero-copy sink: kept events splice their raw byte spans out of the
  // input; EndDocument (through the chain) flushes the final span.
  SplicingSerializingHandler sink(*task.xml_text, &out->output);

  auto run_pass = [&](SaxHandler* pass_root) -> Status {
    SaxHandler* top = pass_root;
    std::optional<BudgetGuard> guard;
    if (env.budget.active()) {
      guard.emplace(pass_root, &sink, env.budget, cancel);
      top = &*guard;
    }
    size_t open_bytes_peak = 0;
    Status status =
        ParseXmlStream(*task.xml_text, top, parse_options, &open_bytes_peak);
    sink.Finish();
    // Output only grows, so the pass's peak is its final output plus the
    // deepest open-element charge.
    *peak_bytes = sink.produced_bytes() + open_bytes_peak;
    return status;
  };

  Status status;
  if (identity) {
    CountingPassthrough pass(&sink);
    status = run_pass(&pass);
    out->stats = pass.stats();
  } else if (env.validate) {
    ValidatingPruner pruner(*env.dtd, *task.projector, &sink);
    pruner.set_fault_injector(env.fault);
    status = run_pass(&pruner);
    out->stats = pruner.stats();
  } else {
    StreamingPruner pruner(*env.dtd, *task.projector, &sink);
    pruner.set_fault_injector(env.fault);
    status = run_pass(&pruner);
    out->stats = pruner.stats();
  }
  return status;
}

// Runs one task to its final outcome: the retry loop (kRetry only), the
// degraded identity fallback, and the per-task metric publication. On a
// non-OK outcome `out` is left cleared.
TaskOutcome ExecuteTask(const TaskEnv& env, const PipelineTask& task,
                        size_t index, uint64_t submit_ns,
                        PipelineResult* out) {
  TaskOutcome outcome;
  // Admission control: while the breaker is open the task is quarantined
  // without running — no parse, no worker time, no execution metrics. It
  // still counts into progress_failed so completed + failed == tasks
  // holds at run end.
  if (env.breaker != nullptr && !env.breaker->Allow()) {
    outcome.fast_failed = true;
    outcome.status = UnavailableError(
        "circuit breaker open: task fast-failed at admission");
    out->output.clear();
    out->stats = PruneStats{};
    out->degraded = false;
    GaugeAdd(env.metrics.progress_failed, 1);
    return outcome;
  }
  GaugeAdd(env.metrics.progress_inflight, 1);
  // Watchdog coverage spans the whole outcome (all attempts plus the
  // degrade fallback): the grace limit bounds the *task*, not one pass.
  std::atomic<bool> watchdog_cancel{false};
  if (env.watchdog != nullptr) env.watchdog->Watch(index, &watchdog_cancel);
  const std::atomic<bool>* cancel =
      env.watchdog != nullptr ? &watchdog_cancel : nullptr;
  // One clock pair per task, around every attempt and the degraded
  // fallback; the durable commit below is not part of the fused pass.
  const uint64_t start_ns = env.instrumented ? MonotonicNowNs() : 0;
  const int max_attempts = env.policy == ErrorPolicy::kRetry
                               ? std::max(1, env.retry.max_attempts)
                               : 1;
  double backoff_ms = static_cast<double>(env.retry.backoff_ms);
  // The task's peak is the largest over all of its passes: every retry
  // and the degraded fallback.
  size_t pass_peak = 0;
  for (int attempt = 1;; ++attempt) {
    outcome.status =
        RunAttempt(env, task, /*identity=*/false, cancel, out, &pass_peak);
    outcome.peak_bytes = std::max(outcome.peak_bytes, pass_peak);
    outcome.attempts = attempt;
    // Only kUnavailable is transient: a parse error or budget blowout
    // will fail identically on every attempt.
    if (outcome.status.ok() || attempt >= max_attempts ||
        outcome.status.code() != StatusCode::kUnavailable) {
      break;
    }
    CounterAdd(env.metrics.retries_total);
    if (backoff_ms >= 1.0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int64_t>(backoff_ms)));
    }
    backoff_ms *= env.retry.multiplier;
  }

  if (!outcome.status.ok() && env.degrade &&
      (outcome.status.code() == StatusCode::kInvalid ||
       outcome.status.code() == StatusCode::kNotFound)) {
    // The document does not fit the DTD, so type-based projection is
    // inapplicable — but the document itself may be fine. Identity pass:
    // the query still answers, just without the memory savings.
    PipelineResult fallback;
    Status fallback_status = RunAttempt(env, task, /*identity=*/true, cancel,
                                        &fallback, &pass_peak);
    outcome.peak_bytes = std::max(outcome.peak_bytes, pass_peak);
    if (fallback_status.ok()) {
      *out = std::move(fallback);
      out->degraded = true;
      outcome.degraded = true;
      outcome.status = Status::Ok();
      CounterAdd(env.metrics.degraded_total);
    }
  }

  const uint64_t task_ns = env.instrumented ? MonotonicNowNs() - start_ns : 0;
  const uint64_t wait_ns =
      submit_ns != 0 && start_ns > submit_ns ? start_ns - submit_ns : 0;
  if (env.metrics.task_ns != nullptr) env.metrics.task_ns->Record(task_ns);
  if (wait_ns != 0 && env.metrics.queue_wait_ns != nullptr) {
    env.metrics.queue_wait_ns->Record(wait_ns);
  }
  if (env.trace != nullptr) {
    const std::vector<TraceArg> args = {{"task", static_cast<int64_t>(index)}};
    if (wait_ns != 0) {
      env.trace->AddCompleteEvent("queue-wait", "pool", submit_ns, wait_ns,
                                  args);
    }
    env.trace->AddCompleteEvent(env.validate ? "validate+prune" : "prune",
                                "stage", start_ns, task_ns, args);
  }

  if (env.watchdog != nullptr) {
    bool fired = env.watchdog->Unwatch(index);
    // A fired watchdog on a task that completed anyway is a non-event:
    // the completed checkpoint record supersedes the watchdog's.
    outcome.watchdog = fired && !outcome.status.ok();
  }

  // Durability: commit the output atomically (write *.tmp, fsync,
  // rename), then append the completed record (fflush + fsync). Either
  // step failing fails the task — a checkpointed run must not report
  // work it cannot prove is on disk. Both steps carry failpoints for the
  // chaos suite.
  if (env.checkpoint != nullptr && outcome.status.ok()) {
    Status durable = XMLPROJ_FAULT_HIT(env.fault, "pipeline.commit");
    if (durable.ok()) {
      durable = env.checkpoint->CommitOutput(index, out->output);
    }
    if (!durable.ok()) {
      outcome.stage_override = "commit";
      outcome.status = std::move(durable);
    } else {
      durable = XMLPROJ_FAULT_HIT(env.fault, "checkpoint.append");
      if (durable.ok()) {
        CheckpointTaskRecord record;
        record.task = index;
        record.completed = true;
        record.degraded = out->degraded;
        record.output_path = RunCheckpoint::TaskOutputRelPath(index);
        record.output_bytes = out->output.size();
        record.output_hash = ContentHash64(out->output);
        record.input_bytes = task.xml_text->size();
        record.input_nodes = out->stats.input_nodes;
        record.kept_nodes = out->stats.kept_nodes;
        record.input_text_bytes = out->stats.input_text_bytes;
        record.kept_text_bytes = out->stats.kept_text_bytes;
        durable = env.checkpoint->AppendTask(record);
      }
      if (!durable.ok()) {
        outcome.stage_override = "checkpoint";
        outcome.status = std::move(durable);
      } else {
        CounterAdd(env.metrics.checkpoint_appends);
      }
    }
  }

  if (!outcome.status.ok()) {
    out->output.clear();
    out->stats = PruneStats{};
    out->degraded = false;
  }

  CounterAdd(env.metrics.tasks_total);
  CounterAdd(env.metrics.input_bytes_total, task.xml_text->size());
  CounterAdd(env.metrics.output_bytes_total, out->output.size());
  CounterAdd(env.metrics.input_nodes_total, out->stats.input_nodes);
  CounterAdd(env.metrics.kept_nodes_total, out->stats.kept_nodes);
  CounterAdd(env.metrics.input_text_bytes_total, out->stats.input_text_bytes);
  CounterAdd(env.metrics.kept_text_bytes_total, out->stats.kept_text_bytes);
  if (!outcome.status.ok()) {
    CounterAdd(env.metrics.errors_total);
    if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      CounterAdd(env.metrics.deadline_exceeded_total);
    }
    if (outcome.status.code() == StatusCode::kResourceExhausted) {
      CounterAdd(env.metrics.resource_exhausted_total);
    }
  }

  if (env.registry != nullptr && task.labels != nullptr &&
      !task.labels->empty()) {
    // Per-label slices of the Table-1 counters (plus a labeled task
    // latency histogram): the unlabeled totals above are the sum over
    // slices. One registry lookup per metric per task; GetCounter can
    // return null only on a kind conflict, which disables the slice.
    const MetricLabels& labels = *task.labels;
    auto add = [&](const char* name, uint64_t n) {
      CounterAdd(env.registry->GetCounter(name, labels), n);
    };
    add("xmlproj_pipeline_tasks_total", 1);
    add("xmlproj_pipeline_input_bytes_total", task.xml_text->size());
    add("xmlproj_pipeline_output_bytes_total", out->output.size());
    add("xmlproj_pipeline_input_nodes_total", out->stats.input_nodes);
    add("xmlproj_pipeline_kept_nodes_total", out->stats.kept_nodes);
    if (!outcome.status.ok()) add("xmlproj_pipeline_errors_total", 1);
    if (out->degraded) add("xmlproj_pipeline_degraded_total", 1);
    Histogram* h = env.registry->GetHistogram("xmlproj_stage_task_ns", labels);
    if (h != nullptr) h->Record(task_ns);
  }

  if (outcome.peak_bytes > 0 && env.metrics.memory_peak_bytes != nullptr) {
    env.metrics.memory_peak_bytes->SetMax(
        static_cast<int64_t>(outcome.peak_bytes));
  }

  // Executed outcomes feed the breaker's sliding window; a degraded
  // completion served the document, so it counts as a success.
  if (env.breaker != nullptr) {
    if (outcome.status.ok()) {
      env.breaker->RecordSuccess();
    } else {
      env.breaker->RecordFailure();
    }
  }

  // Quarantine-to-be tasks get their terminal outcome on disk *here*, in
  // the worker, not at run end: crash-safety is the point. Fast-failed
  // (circuit) tasks never executed and are deliberately not recorded —
  // a resume should re-admit them. Under kFailFast the run aborts and
  // nothing is settled, so failures are likewise not recorded.
  if (env.checkpoint != nullptr && !outcome.status.ok() &&
      !outcome.fast_failed && env.policy != ErrorPolicy::kFailFast) {
    CheckpointTaskRecord record;
    record.task = index;
    record.completed = false;
    record.stage = FailureStage(outcome, outcome.status.code(), env.validate);
    record.code = StatusCodeName(outcome.status.code());
    record.attempts = outcome.attempts;
    if (env.checkpoint->AppendTask(record).ok()) {
      CounterAdd(env.metrics.checkpoint_appends);
    }
  }

  GaugeAdd(env.metrics.progress_inflight, -1);
  GaugeAdd(outcome.status.ok() ? env.metrics.progress_completed
                               : env.metrics.progress_failed,
           1);
  return outcome;
}

Status AnnotateTaskError(size_t index, const Status& status) {
  return Status(status.code(), "pipeline task " + std::to_string(index) +
                                   ": " + status.message());
}

Status CheckTasks(std::span<const PipelineTask> tasks) {
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].xml_text == nullptr || tasks[i].projector == nullptr) {
      return InvalidError("pipeline task " + std::to_string(i) +
                          " has a null document or projector");
    }
  }
  return Status::Ok();
}

}  // namespace

const char* StageForStatus(StatusCode code, bool validate) {
  switch (code) {
    case StatusCode::kParseError:
      return "parse";
    case StatusCode::kInvalid:
      return validate ? "validate" : "prune";
    case StatusCode::kNotFound:
      return "prune";
    case StatusCode::kResourceExhausted:
      return "budget";
    case StatusCode::kDeadlineExceeded:
      return "deadline";
    case StatusCode::kUnavailable:
      return "io";
    case StatusCode::kCancelled:
      return "pool";
    default:
      return "task";
  }
}

void PipelineSummary::AddTask(size_t task_input_bytes,
                              const PipelineResult& result) {
  ++tasks;
  input_bytes += task_input_bytes;
  output_bytes += result.output.size();
  input_nodes += result.stats.input_nodes;
  kept_nodes += result.stats.kept_nodes;
  input_text_bytes += result.stats.input_text_bytes;
  kept_text_bytes += result.stats.kept_text_bytes;
}

Result<PipelineRun> RunPruningPipeline(std::span<const PipelineTask> tasks,
                                       const Dtd& dtd,
                                       const PipelineOptions& options) {
  XMLPROJ_RETURN_IF_ERROR(CheckTasks(tasks));
  PipelineRun run;
  run.results.resize(tasks.size());
  if (tasks.empty()) return run;

  const bool instrumented =
      options.metrics != nullptr || options.trace != nullptr;
  TaskEnv env;
  env.dtd = &dtd;
  env.validate = options.validate;
  env.policy = options.policy;
  env.retry = options.retry;
  env.budget = options.budget;
  env.degrade = options.degrade_on_invalid;
  env.fault = options.fault;
  // Under kFailFast the breaker is ignored (see PipelineOptions): the
  // policy already stops at the first failure.
  env.breaker =
      options.policy != ErrorPolicy::kFailFast ? options.breaker : nullptr;
  env.registry = options.metrics;
  env.metrics = PipelineMetrics::Resolve(options.metrics);
  env.trace = options.trace;
  env.instrumented = instrumented;
  env.checkpoint =
      options.checkpoint != nullptr && options.checkpoint->open()
          ? options.checkpoint
          : nullptr;

  const ResumePlan* resume = options.resume;
  if (resume != nullptr) {
    if (!resume->resumable) {
      return InvalidError("pipeline was handed a non-resumable plan: " +
                          resume->mismatch);
    }
    if (resume->done.size() != tasks.size()) {
      return InvalidError(
          "resume plan covers " + std::to_string(resume->done.size()) +
          " task(s) but the run has " + std::to_string(tasks.size()));
    }
  }

  // Hung-task watchdog: only meaningful relative to a deadline budget
  // (the grace limit is watchdog_factor × deadline). Declared before the
  // execution scopes so it outlives every Watch/Unwatch.
  std::optional<TaskWatchdog> watchdog;
  if (options.watchdog_factor > 0 && options.budget.deadline_ms > 0) {
    // Saturating: a grace limit past UINT64_MAX ns means "never fire"
    // (the double-to-integer cast would otherwise be undefined).
    const double limit = static_cast<double>(options.budget.deadline_ms) *
                         1e6 * options.watchdog_factor;
    const uint64_t limit_ns =
        limit >= static_cast<double>(UINT64_MAX)
            ? UINT64_MAX
            : static_cast<uint64_t>(limit);
    watchdog.emplace(limit_ns, env.checkpoint, env.metrics.watchdog_total,
                     options.logger);
    env.watchdog = &*watchdog;
  }

  const std::atomic<bool>* stop = options.stop;
  auto stop_requested = [stop] {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  };

  auto wall_start = std::chrono::steady_clock::now();

  int threads = options.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  GaugeSet(env.metrics.threads, threads);
  // Progress gauges describe the current run: reset so a scrape during
  // run N is not contaminated by run N-1 (the *_total counters keep
  // cross-run accounting).
  GaugeSet(env.metrics.progress_tasks, static_cast<int64_t>(tasks.size()));
  GaugeSet(env.metrics.progress_completed, 0);
  GaugeSet(env.metrics.progress_failed, 0);
  GaugeSet(env.metrics.progress_inflight, 0);

  // Per-task final status and outcome detail, index-aligned with `tasks`
  // (workers write disjoint slots).
  std::vector<Status> finals(tasks.size());
  std::vector<TaskOutcome> outcomes(tasks.size());
  // skipped[i] — settled by the resume plan, never submitted;
  // drained[i] — abandoned un-run after a stop request (no terminal
  // outcome: not checkpointed, not a failure, re-run on resume).
  std::vector<char> skipped(tasks.size(), 0);
  std::vector<char> drained(tasks.size(), 0);

  if (resume != nullptr) {
    CounterAdd(env.metrics.checkpoint_resume_total);
    std::vector<char> prior_failed(tasks.size(), 0);
    for (const TaskFailure& f : resume->prior_failures) {
      if (f.task < prior_failed.size()) prior_failed[f.task] = 1;
    }
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!resume->done[i]) continue;
      skipped[i] = 1;
      CounterAdd(env.metrics.checkpoint_tasks_skipped);
      // Settled tasks count into progress immediately: a /statusz scrape
      // of a resumed run shows the corpus position, not just this
      // process's share.
      GaugeAdd(prior_failed[i] ? env.metrics.progress_failed
                               : env.metrics.progress_completed,
               1);
    }
  }

  if (threads == 1) {
    // Reference sequential path: same pass, same order, documents run one
    // at a time on the calling thread, no pool.
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (skipped[i]) continue;
      if (stop_requested()) {
        for (size_t j = i; j < tasks.size(); ++j) {
          if (!skipped[j]) drained[j] = 1;
        }
        break;
      }
      outcomes[i] = ExecuteTask(env, tasks[i], i, /*submit_ns=*/0,
                                &run.results[i]);
      finals[i] = outcomes[i].status;
      if (!finals[i].ok() && options.policy == ErrorPolicy::kFailFast) {
        return AnnotateTaskError(i, finals[i]);
      }
    }
  } else {
    std::atomic<bool> cancelled{false};
    // Index-aligned; slots for skipped/never-submitted tasks hold an
    // invalid (default) future.
    std::vector<std::future<Status>> done(tasks.size());
    {
      ThreadPool pool(threads, options.queue_capacity,
                      instrumented ? ResolvePoolMetrics(options.metrics,
                                                        options.trace)
                                   : ThreadPoolMetrics{},
                      options.fault);
      for (size_t i = 0; i < tasks.size(); ++i) {
        if (skipped[i]) continue;
        if (stop_requested()) {
          // Graceful drain, admission side: everything not yet submitted
          // is abandoned without a terminal outcome.
          for (size_t j = i; j < tasks.size(); ++j) {
            if (!skipped[j]) drained[j] = 1;
          }
          break;
        }
        uint64_t submit_ns = instrumented ? MonotonicNowNs() : 0;
        done[i] = pool.Submit([&, i, submit_ns]() -> Status {
          if (cancelled.load(std::memory_order_relaxed)) {
            return CancelledError("skipped after an earlier task failed");
          }
          if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
            // Graceful drain, worker side: a queued task claimed after
            // the stop request never starts. Workers own disjoint slots,
            // so the flag write is race-free.
            drained[i] = 1;
            return CancelledError("drained: stop requested before start");
          }
          outcomes[i] =
              ExecuteTask(env, tasks[i], i, submit_ns, &run.results[i]);
          if (!outcomes[i].status.ok() &&
              env.policy == ErrorPolicy::kFailFast) {
            cancelled.store(true, std::memory_order_relaxed);
          }
          return outcomes[i].status;
        });
      }
      if (stop_requested() && options.drain_ms > 0) {
        // Bounded drain: in-flight tasks get drain_ms to finish; work
        // still queued past the deadline resolves kCancelled (and is
        // marked drained below). Without a stop request the destructor
        // drains everything, as before.
        pool.Shutdown(std::chrono::milliseconds(options.drain_ms));
      }
      // Pool destructor drains and joins; every future below is ready.
    }
    // The future is authoritative: it carries pool-level outcomes
    // (cancellation, injected worker faults) the task body never saw.
    for (size_t i = 0; i < done.size(); ++i) {
      if (done[i].valid()) finals[i] = done[i].get();
    }
    if (stop_requested()) {
      // Queued tasks the deadline shutdown cancelled have kCancelled
      // futures and never ran: they drained, same as never-submitted.
      for (size_t i = 0; i < finals.size(); ++i) {
        if (!skipped[i] && !drained[i] &&
            finals[i].code() == StatusCode::kCancelled) {
          drained[i] = 1;
        }
      }
    }

    if (options.policy == ErrorPolicy::kFailFast) {
      // Report the lowest-indexed real failure (cancelled tasks only lose
      // to the error that triggered the cancellation).
      Status first_error;
      Status first_cancelled;
      for (size_t i = 0; i < finals.size(); ++i) {
        if (skipped[i] || drained[i]) continue;
        const Status& status = finals[i];
        if (status.ok()) continue;
        if (status.code() == StatusCode::kCancelled) {
          if (first_cancelled.ok()) {
            first_cancelled = AnnotateTaskError(i, status);
          }
          continue;
        }
        if (first_error.ok()) first_error = AnnotateTaskError(i, status);
      }
      if (!first_error.ok()) return first_error;
      // All non-OK statuses were cancellations with no originating error:
      // cannot happen in this pipeline (drained tasks were filtered
      // above), but fail loudly rather than return partially-empty
      // results.
      if (!first_cancelled.ok()) return first_cancelled;
    }
  }

  // kIsolate / kRetry: quarantine failures into structured reports; the
  // run itself succeeds with the surviving results.
  if (options.policy != ErrorPolicy::kFailFast) {
    for (size_t i = 0; i < finals.size(); ++i) {
      if (skipped[i] || drained[i]) continue;
      if (finals[i].ok()) continue;
      TaskFailure failure;
      failure.task = i;
      failure.stage =
          FailureStage(outcomes[i], finals[i].code(), options.validate);
      failure.status = finals[i];
      failure.attempts = outcomes[i].attempts;
      failure.peak_bytes = outcomes[i].peak_bytes;
      run.failures.push_back(std::move(failure));
      run.results[i] = PipelineResult{};
      CounterAdd(env.metrics.isolated_total);
    }
  }

  for (size_t i = 0; i < tasks.size(); ++i) {
    // Peaks from failed tasks count too: a budget blowout is exactly the
    // observation auto-tuning must not lose.
    run.summary.max_task_peak_bytes =
        std::max(run.summary.max_task_peak_bytes, outcomes[i].peak_bytes);
    if (skipped[i] || drained[i]) continue;
    if (!finals[i].ok()) continue;
    run.summary.AddTask(tasks[i].xml_text->size(), run.results[i]);
    if (run.results[i].degraded) ++run.summary.degraded;
    run.summary.retries += static_cast<size_t>(outcomes[i].attempts - 1);
  }

  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!drained[i]) continue;
    ++run.summary.drained;
    run.results[i] = PipelineResult{};
    CounterAdd(env.metrics.drained_total);
  }
  if (run.summary.drained > 0 && options.logger != nullptr) {
    options.logger->Log(LogLevel::kInfo, "pipeline.drain",
                        {{"drained", static_cast<uint64_t>(run.summary.drained)},
                         {"tasks", static_cast<uint64_t>(tasks.size())}});
  }

  if (resume != nullptr) {
    // Fold the interrupted run's settled work into this run's totals so
    // the final summary describes the whole corpus, not this process's
    // share. Prior failures re-enter the report verbatim.
    run.summary.resumed_skipped = resume->skipped_completed +
                                  resume->skipped_quarantined;
    const PipelineSummary& prior = resume->prior;
    run.summary.tasks += prior.tasks;
    run.summary.input_bytes += prior.input_bytes;
    run.summary.output_bytes += prior.output_bytes;
    run.summary.input_nodes += prior.input_nodes;
    run.summary.kept_nodes += prior.kept_nodes;
    run.summary.input_text_bytes += prior.input_text_bytes;
    run.summary.kept_text_bytes += prior.kept_text_bytes;
    run.summary.degraded += prior.degraded;
    for (const TaskFailure& f : resume->prior_failures) {
      run.failures.push_back(f);
    }
    std::sort(run.failures.begin(), run.failures.end(),
              [](const TaskFailure& a, const TaskFailure& b) {
                return a.task < b.task;
              });
  }
  run.summary.failed = run.failures.size();
  run.summary.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return run;
}

Result<PipelineRun> PruneCorpus(std::span<const std::string> corpus,
                                const Dtd& dtd, const NameSet& projector,
                                const PipelineOptions& options) {
  std::vector<PipelineTask> tasks(corpus.size());
  MetricLabels corpus_labels;
  if (options.metrics != nullptr && !options.corpus_label.empty()) {
    corpus_labels.push_back({"corpus", options.corpus_label});
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    tasks[i].xml_text = &corpus[i];
    tasks[i].projector = &projector;
    if (!corpus_labels.empty()) tasks[i].labels = &corpus_labels;
  }
  return RunPruningPipeline(tasks, dtd, options);
}

Result<PipelineRun> PruneDocument(const std::string& xml_text, const Dtd& dtd,
                                  const NameSet& projector,
                                  const PipelineOptions& options) {
  PipelineOptions doc_options = options;
  doc_options.num_threads = 1;  // inline: one task, no pool
  doc_options.policy = ErrorPolicy::kFailFast;
  return PruneCorpus({&xml_text, 1}, dtd, projector, doc_options);
}

Result<PipelineRun> PruneCorpusPerQuery(std::span<const std::string> corpus,
                                        const Dtd& dtd,
                                        std::span<const NameSet> projectors,
                                        const PipelineOptions& options) {
  std::vector<PipelineTask> tasks(corpus.size() * projectors.size());
  // One label set per query, shared by that query's tasks across the
  // corpus; built up front so the borrowed pointers outlive the run.
  std::vector<MetricLabels> query_labels;
  if (options.metrics != nullptr && options.label_queries) {
    query_labels.resize(projectors.size());
    for (size_t q = 0; q < projectors.size(); ++q) {
      query_labels[q].push_back({"query_id", std::to_string(q)});
      if (!options.corpus_label.empty()) {
        query_labels[q].push_back({"corpus", options.corpus_label});
      }
    }
  }
  for (size_t d = 0; d < corpus.size(); ++d) {
    for (size_t q = 0; q < projectors.size(); ++q) {
      PipelineTask& task = tasks[d * projectors.size() + q];
      task.xml_text = &corpus[d];
      task.projector = &projectors[q];
      if (!query_labels.empty()) task.labels = &query_labels[q];
    }
  }
  return RunPruningPipeline(tasks, dtd, options);
}

size_t TotalOutputBytes(std::span<const PipelineResult> results) {
  size_t total = 0;
  for (const PipelineResult& r : results) total += r.output.size();
  return total;
}

}  // namespace xmlproj
