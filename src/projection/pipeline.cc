#include "projection/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "common/circuit.h"
#include "common/strings.h"
#include "obs/journal.h"
#include "projection/checkpoint.h"
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
  Counter* skipped_bytes_total = nullptr;
  // Fault-tolerance counters (README "Fault tolerance").
  Counter* isolated_total = nullptr;
  Counter* degraded_total = nullptr;
  Counter* deadline_exceeded_total = nullptr;
  Counter* resource_exhausted_total = nullptr;
  Histogram* task_ns = nullptr;
  Histogram* queue_wait_ns = nullptr;
  Gauge* threads = nullptr;
  // Live progress gauges, updated at task granularity so a /statusz
  // scrape mid-run sees how far the corpus has gotten. They only add, so
  // runs sharing a registry never zero each other's counts: `tasks` sums
  // every run's task count, and once no run is in flight (and none was
  // cancelled) completed + failed == tasks and inflight == 0.
  Gauge* progress_tasks = nullptr;
  Gauge* progress_completed = nullptr;
  Gauge* progress_failed = nullptr;
  Gauge* progress_inflight = nullptr;
  // Largest task memory peak (output + open-element charge, every task),
  // raised with SetMax so it only ever holds the largest peak seen.
  Gauge* memory_peak_bytes = nullptr;
  // Checkpoint/resume counters (README "Checkpoint & resume"): appends
  // made durable, tasks skipped by a resume plan, runs started from a
  // resume plan, and tasks abandoned un-run by a graceful drain.
  Counter* checkpoint_appends = nullptr;
  Counter* checkpoint_tasks_skipped = nullptr;
  Counter* checkpoint_resume_total = nullptr;
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
    m.skipped_bytes_total =
        registry->GetCounter("xmlproj_pipeline_skipped_bytes_total");
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
    registry->SetHelp("xmlproj_pipeline_skipped_bytes_total",
                      "Input bytes the parser crossed untokenized inside "
                      "elements the pruner rejected or emptied");
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
    registry->SetHelp("xmlproj_pipeline_drained_total",
                      "Tasks abandoned un-run by a graceful drain");
    return m;
  }
};

// SAX filter enforcing an active TaskBudget over the fused pass. Placed
// outermost (right below the parser) so it sees every event the parser
// delivers, pruned or kept, and the parser's polls inside skips:
//
//  - wall-clock deadline: one steady-clock read before each event and
//    on each Poll (only when a deadline is configured), converting a
//    stalled pass into kDeadlineExceeded at event granularity, or every
//    kSkipPollBytes inside a skipped element. That bounds a pass only
//    while every callback is linear in its event's bytes (DESIGN.md
//    "Skip-scanning");
//  - byte cap: after each event (a skip verdict included) and on each
//    Poll, the sink's produced bytes plus the parser's open-element
//    charge (SaxLocator::open_bytes) are compared with the cap; crossing
//    it aborts with kResourceExhausted. At an event the overshoot is
//    bounded by that event's output; inside a skip, which has none, the
//    parser polls at each kSkipPollBytes line the charge crosses, so the
//    charge passes the cap by less than kSkipPollBytes.
//
// The guard only enforces. The task's memory peak is read after the pass
// from the sink and the parser (RunPass), budget or not.
class BudgetGuard : public SaxHandler {
 public:
  BudgetGuard(SaxHandler* downstream, const SplicingSerializingHandler* sink,
              const TaskBudget& budget)
      : downstream_(downstream),
        sink_(sink),
        max_bytes_(budget.max_bytes),
        deadline_ms_(budget.deadline_ms) {
    if (budget.deadline_ms > 0) {
      deadline_ns_ = SaturatingDeadlineNs(MonotonicNowNs(), budget.deadline_ms);
    }
  }

  void SetLocator(const SaxLocator* locator) override {
    locator_ = locator;
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
    Status verdict = downstream_->StartElement(tag, attributes);
    if (!verdict.ok() && verdict.code() != StatusCode::kSkipSubtree) {
      return verdict;
    }
    XMLPROJ_RETURN_IF_ERROR(CheckBytes());
    return verdict;
  }
  Status EndElement(std::string_view tag) override {
    XMLPROJ_RETURN_IF_ERROR(CheckDeadline());
    XMLPROJ_RETURN_IF_ERROR(downstream_->EndElement(tag));
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
  Status Poll() override {
    XMLPROJ_RETURN_IF_ERROR(CheckDeadline());
    return CheckBytes();
  }

 private:
  Status CheckDeadline() const {
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
    const size_t metered = sink_->produced_bytes() + locator_->open_bytes();
    if (metered > max_bytes_) {
      return ResourceExhaustedError(StringPrintf(
          "task memory budget exhausted: %zu bytes metered, cap %zu",
          metered, max_bytes_));
    }
    return Status::Ok();
  }

  SaxHandler* downstream_;
  const SplicingSerializingHandler* sink_;
  // The parser's, installed before the first event.
  const SaxLocator* locator_ = nullptr;
  const size_t max_bytes_;
  const uint64_t deadline_ms_;
  uint64_t deadline_ns_ = 0;
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

// Everything one task execution needs, resolved once per run.
struct TaskEnv {
  // Kept alongside the resolved handles for the labeled-series path:
  // per-task label sets resolve against the registry at task granularity
  // (PipelineTask::labels). Null when metrics are off.
  MetricsRegistry* registry = nullptr;
  const Dtd* dtd = nullptr;
  bool validate = false;
  ErrorPolicy policy = ErrorPolicy::kFailFast;
  TaskBudget budget;
  bool degrade = false;
  FaultInjector* fault = nullptr;
  // Admission-control breaker (only set when policy != kFailFast); see
  // PipelineOptions.
  CircuitBreaker* breaker = nullptr;
  PipelineMetrics metrics;
  TraceCollector* trace = nullptr;
  bool instrumented = false;
  // Durability (null = off): the open checkpoint outcomes commit to.
  RunCheckpoint* checkpoint = nullptr;
};

// How a task left the run.
enum class TaskExit : uint8_t {
  kFinished,  // has a terminal status: executed, or failed at its claim
  kSettled,   // settled by the resume plan; not re-run
  kDrained,   // claimed after a stop request; no terminal outcome
};

// What one claim leaves behind, index-aligned with the tasks: the only
// record the run-end fold reads.
struct TaskOutcome {
  TaskExit exit = TaskExit::kFinished;
  Status status;
  size_t peak_bytes = 0;
  // Quarantine stage when the status code alone would misattribute the
  // failure: "circuit" (denied at admission by an open breaker; never
  // executed), "commit" (atomic output rename failed) or "checkpoint"
  // (record append failed). Null: the stage derives from the status (StageForStatus).
  const char* stage = nullptr;
};

// Quarantine stage attribution for one task outcome.
const char* FailureStage(const TaskOutcome& outcome, bool validate) {
  return outcome.stage != nullptr
             ? outcome.stage
             : StageForStatus(outcome.status.code(), validate);
}

// The SAX chain of one task's pass: the budget guard (only when a budget
// is active), the pruner (a counting passthrough for the degraded
// identity fallback), and the zero-copy sink, whose kept events splice
// their raw byte spans out of the input. The chain is the same whether
// or not telemetry is attached: the pipeline times the task from outside.
class TaskChain {
 public:
  TaskChain(const TaskEnv& env, const PipelineTask& task, bool identity,
            std::string* output)
      : sink_(*task.xml_text, output) {
    if (identity) {
      head_ = &identity_.emplace(&sink_);
      stats_ = &identity_->stats();
    } else if (env.validate) {
      ValidatingPruner& pruner =
          validating_.emplace(*env.dtd, *task.projector, &sink_);
      pruner.set_fault_injector(env.fault);
      head_ = &pruner;
      stats_ = &pruner.stats();
    } else {
      StreamingPruner& pruner =
          streaming_.emplace(*env.dtd, *task.projector, &sink_);
      pruner.set_fault_injector(env.fault);
      head_ = &pruner;
      stats_ = &pruner.stats();
    }
    if (env.budget.active()) {
      head_ = &guard_.emplace(head_, &sink_, env.budget);
    }
  }
  // The handlers hold the sink's address.
  TaskChain(const TaskChain&) = delete;
  TaskChain& operator=(const TaskChain&) = delete;

  SaxHandler* head() const { return head_; }
  const PruneStats& stats() const { return *stats_; }

  // Flushes the sink once the parse has returned, and gives the pass's
  // memory peak: output only grows, so the peak is the final output plus
  // the parse's open-element high-water mark.
  size_t Finish(size_t open_bytes_peak) {
    sink_.Finish();
    return sink_.produced_bytes() + open_bytes_peak;
  }

 private:
  SplicingSerializingHandler sink_;
  std::optional<CountingPassthrough> identity_;
  std::optional<ValidatingPruner> validating_;
  std::optional<StreamingPruner> streaming_;
  std::optional<BudgetGuard> guard_;
  SaxHandler* head_ = nullptr;
  const PruneStats* stats_ = nullptr;
};

// The head of a shared pass: one parse feeds the chains of several tasks
// over one document, one branch each. A branch sees exactly the events
// its own one-task pass would see, with the same spans: an element the
// branch rejects is withheld from it whole, as FullStream
// (tests/full_stream.h) withholds it, and the parser is told to skip an
// element only when every live branch (one not inside an element it
// rejected) rejects it. A branch whose chain fails is detached and the
// others go on; once every branch has failed the parse stops.
//
// Each branch reads a locator of its own, so its pruner counts its own
// skips rather than the parser's:
//  - skipped elements: the parser's, since every element inside a skip
//    of the parser lies inside an element each branch rejected, plus the
//    start tags the tee withheld from the branch;
//  - skipped bytes: for each element the branch rejected, its content and
//    end tag, measured from the spans where the parser tokenized it and
//    read off the parser where it was a skip of the parser.
// The open-element charge is the parser's; it does not depend on skip
// verdicts, so each branch's memory peak is its own pass's.
//
// The branches carry no budget guard: a run with a budget gives each
// task a pass of its own (see SharesPasses), so the tee has no polls to
// forward.
class ProjectorTee : public SaxHandler {
 public:
  explicit ProjectorTee(std::span<SaxHandler* const> heads)
      : branches_(heads.size()), attached_(heads.size()) {
    for (size_t i = 0; i < heads.size(); ++i) branches_[i].head = heads[i];
  }
  // The branches hold their locators' addresses.
  ProjectorTee(const ProjectorTee&) = delete;
  ProjectorTee& operator=(const ProjectorTee&) = delete;

  // OK when branch i took every event of the parse.
  const Status& status(size_t i) const { return branches_[i].status; }

  void SetLocator(const SaxLocator* locator) override {
    parser_ = locator;
    for (Branch& b : branches_) {
      b.locator.parser = locator;
      b.head->SetLocator(&b.locator);
    }
  }

  Status StartDocument() override {
    return Deliver([](SaxHandler* h) { return h->StartDocument(); });
  }
  Status EndDocument() override {
    return Deliver([](SaxHandler* h) { return h->EndDocument(); });
  }
  Status Characters(std::string_view text) override {
    return Deliver([text](SaxHandler* h) { return h->Characters(text); });
  }
  Status Doctype(std::string_view name,
                 std::string_view internal_subset) override {
    return Deliver([name, internal_subset](SaxHandler* h) {
      return h->Doctype(name, internal_subset);
    });
  }

  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override {
    if (skip_pending_) SettleSkip();
    bool kept = false;  // a live branch keeps the element
    for (Branch& b : branches_) {
      if (!b.status.ok()) continue;
      if (b.drop_depth != 0) {
        ++b.drop_depth;
        ++b.locator.withheld_elements;
        continue;
      }
      b.locator.SetSpan(parser_->event_begin(), parser_->event_end());
      Status verdict = b.head->StartElement(tag, attributes);
      if (verdict.ok()) {
        kept = true;
      } else if (verdict.code() == StatusCode::kSkipSubtree) {
        b.drop_depth = 1;
        b.drop_begin = parser_->event_end();
      } else {
        Detach(&b, std::move(verdict));
      }
    }
    if (kept || attached_ == 0) return Attached();
    // No live branch keeps the element, so the parser crosses it. The
    // branches that rejected it own the skip's bytes (SettleSkip); the
    // rest are inside an element whose span covers it.
    for (Branch& b : branches_) {
      if (b.status.ok()) --b.drop_depth;
    }
    skip_pending_ = true;
    skip_mark_ = parser_->skipped_bytes();
    return SkipSubtree();
  }

  Status EndElement(std::string_view tag) override {
    if (skip_pending_) SettleSkip();
    for (Branch& b : branches_) {
      if (!b.status.ok()) continue;
      if (b.drop_depth != 0) {
        if (--b.drop_depth == 0) {
          b.locator.dropped_bytes += parser_->event_end() - b.drop_begin;
        }
        continue;
      }
      b.locator.SetSpan(parser_->event_begin(), parser_->event_end());
      Status status = b.head->EndElement(tag);
      if (!status.ok()) Detach(&b, std::move(status));
    }
    return Attached();
  }

 private:
  // A branch's view of the pass (see the class comment).
  class BranchLocator : public SaxLocator {
   public:
    size_t skipped_elements() const override {
      return parser->skipped_elements() + withheld_elements;
    }
    size_t skipped_bytes() const override { return dropped_bytes; }
    size_t open_bytes() const override { return parser->open_bytes(); }

    const SaxLocator* parser = nullptr;
    size_t withheld_elements = 0;
    size_t dropped_bytes = 0;
  };

  struct Branch {
    SaxHandler* head = nullptr;
    // 0 while the branch is live; inside an element it rejected, 1 + how
    // far the parser is nested below that element.
    size_t drop_depth = 0;
    // Where the content of that element begins.
    size_t drop_begin = 0;
    // Not OK once the branch has failed and been detached.
    Status status;
    BranchLocator locator;
  };

  // Hands the current event to every live branch.
  template <typename Event>
  Status Deliver(const Event& event) {
    if (skip_pending_) SettleSkip();
    for (Branch& b : branches_) {
      if (!b.status.ok() || b.drop_depth != 0) continue;
      b.locator.SetSpan(parser_->event_begin(), parser_->event_end());
      Status status = event(b.head);
      if (!status.ok()) Detach(&b, std::move(status));
    }
    return Attached();
  }

  // Credits the bytes of the parser's last skip to the branches that
  // rejected its element: the live ones.
  void SettleSkip() {
    skip_pending_ = false;
    const size_t crossed = parser_->skipped_bytes() - skip_mark_;
    for (Branch& b : branches_) {
      if (b.status.ok() && b.drop_depth == 0) {
        b.locator.dropped_bytes += crossed;
      }
    }
  }

  void Detach(Branch* b, Status status) {
    b->status = std::move(status);
    --attached_;
  }

  // What the parser is told: go on while a branch is attached.
  Status Attached() const {
    return attached_ != 0
               ? Status::Ok()
               : CancelledError("every branch of the shared pass failed");
  }

  std::vector<Branch> branches_;
  size_t attached_;
  const SaxLocator* parser_ = nullptr;
  // A skip the parser is crossing: its bytes are credited at the next
  // event, from the parser's count at its start.
  bool skip_pending_ = false;
  size_t skip_mark_ = 0;
};

XmlParseOptions ParseOptions(const TaskEnv& env) {
  XmlParseOptions options;
  options.fault = env.fault;
  return options;
}

// One task's own pass: SAX events from the parser flow through the
// task's chain straight into its sink — no DOM, O(depth) state, exactly
// the paper's one-pass deployment. `identity` runs the degraded no-prune
// fallback. `*peak_bytes` receives the pass's memory peak, failed or not.
Status RunPass(const TaskEnv& env, const PipelineTask& task, bool identity,
               PipelineResult* out, size_t* peak_bytes) {
  *peak_bytes = 0;
  XMLPROJ_RETURN_IF_ERROR(XMLPROJ_FAULT_HIT(env.fault, "pipeline.task"));
  out->output.clear();
  out->stats = PruneStats{};
  out->degraded = false;
  TaskChain chain(env, task, identity, &out->output);
  size_t open_bytes_peak = 0;
  Status status = ParseXmlStream(*task.xml_text, chain.head(),
                                 ParseOptions(env), &open_bytes_peak);
  *peak_bytes = chain.Finish(open_bytes_peak);
  out->stats = chain.stats();
  return status;
}

// A task of a claimed unit that passed admission.
struct AdmittedTask {
  size_t index = 0;
  // The task's outcome is final before its own pass: its branch took the
  // whole shared pass, or "pipeline.task" failed it there. It runs no
  // pass of its own.
  bool done = false;
};

// One parse for the admitted tasks of a unit, which share one document:
// each task's chain is a branch of a ProjectorTee. A task whose branch
// took the whole pass is done, with that branch's output, stats and peak,
// which are its own pass's. "pipeline.task" fires once per task at the
// start of the pass, as at the start of a task's own pass, and a fire is
// the task's verdict: the task joins no branch and is done. The other
// tasks run a pass of their own (RunUnit). Shared passes run only without
// a budget (SharesPasses), so no chain has a guard.
void RunSharedPass(const TaskEnv& env, std::span<const PipelineTask> tasks,
                   std::span<AdmittedTask> admitted,
                   std::span<TaskOutcome> outcomes,
                   std::span<PipelineResult> results) {
  std::deque<TaskChain> chains;
  std::vector<SaxHandler*> heads;
  std::vector<AdmittedTask*> branch_tasks;
  for (AdmittedTask& a : admitted) {
    Status fault = XMLPROJ_FAULT_HIT(env.fault, "pipeline.task");
    if (!fault.ok()) {
      outcomes[a.index].status = std::move(fault);
      a.done = true;
      continue;
    }
    chains.emplace_back(env, tasks[a.index], /*identity=*/false,
                        &results[a.index].output);
    heads.push_back(chains.back().head());
    branch_tasks.push_back(&a);
  }
  if (heads.empty()) return;
  ProjectorTee tee(heads);
  size_t open_bytes_peak = 0;
  const Status parse =
      ParseXmlStream(*tasks[admitted.front().index].xml_text, &tee,
                     ParseOptions(env), &open_bytes_peak);
  for (size_t j = 0; j < chains.size(); ++j) {
    const size_t peak = chains[j].Finish(open_bytes_peak);
    if (!parse.ok() || !tee.status(j).ok()) continue;
    AdmittedTask& a = *branch_tasks[j];
    a.done = true;
    outcomes[a.index].peak_bytes = peak;
    results[a.index].stats = chains[j].stats();
  }
}

// A task's own pass, then the degraded identity fallback when pruning
// failed because the document does not fit the DTD.
void RunOwnPass(const TaskEnv& env, const PipelineTask& task,
                TaskOutcome* outcome, PipelineResult* out) {
  outcome->status =
      RunPass(env, task, /*identity=*/false, out, &outcome->peak_bytes);
  if (outcome->status.ok() || !env.degrade ||
      (outcome->status.code() != StatusCode::kInvalid &&
       outcome->status.code() != StatusCode::kNotFound)) {
    return;
  }
  // The document does not fit the DTD, so type-based projection is
  // inapplicable — but the document itself may be fine. Identity pass:
  // the query still answers, just without the memory savings.
  PipelineResult fallback;
  size_t fallback_peak = 0;
  Status fallback_status =
      RunPass(env, task, /*identity=*/true, &fallback, &fallback_peak);
  outcome->peak_bytes = std::max(outcome->peak_bytes, fallback_peak);
  if (fallback_status.ok()) {
    *out = std::move(fallback);
    out->degraded = true;
    outcome->status = Status::Ok();
    CounterAdd(env.metrics.degraded_total);
  }
}

// Admission control: while the breaker is open the task is quarantined
// without running — no parse, no worker time, no execution metrics. It
// still counts into progress_failed so completed + failed == tasks holds
// at run end.
bool AdmitTask(const TaskEnv& env, TaskOutcome* outcome) {
  if (env.breaker != nullptr && !env.breaker->Allow()) {
    outcome->stage = "circuit";
    outcome->status = UnavailableError(
        "circuit breaker open: task fast-failed at admission");
    GaugeAdd(env.metrics.progress_failed, 1);
    return false;
  }
  GaugeAdd(env.metrics.progress_inflight, 1);
  return true;
}

// Everything after a task's passes: metrics and spans, the durable
// commit, its breaker outcome and progress. `start_ns` is when its unit's
// pass began and `task_ns` how long its passes took; `ready_ns` (0: not
// measured) is when it became ready to run, so its queue wait ends at
// `start_ns`. On a non-OK outcome `out` is left cleared.
void FinishTask(const TaskEnv& env, const PipelineTask& task, size_t index,
                uint64_t start_ns, uint64_t task_ns, uint64_t ready_ns,
                TaskOutcome* outcome, PipelineResult* out) {
  const uint64_t wait_ns = start_ns > ready_ns ? start_ns - ready_ns : 0;
  if (env.metrics.task_ns != nullptr) env.metrics.task_ns->Record(task_ns);
  if (ready_ns != 0 && env.metrics.queue_wait_ns != nullptr) {
    env.metrics.queue_wait_ns->Record(wait_ns);
  }
  if (env.trace != nullptr) {
    const std::vector<TraceArg> args = {{"task", static_cast<int64_t>(index)}};
    if (ready_ns != 0) {
      env.trace->AddCompleteEvent("queue-wait", "pool", ready_ns, wait_ns,
                                  args);
    }
    env.trace->AddCompleteEvent(env.validate ? "validate+prune" : "prune",
                                "stage", start_ns, task_ns, args);
  }

  // Durability: commit the output atomically (write *.tmp, fsync,
  // rename), then append the completed record (fflush + fsync). Either
  // step failing fails the task — a checkpointed run must not report
  // work it cannot prove is on disk. Both steps carry failpoints for the
  // chaos suite.
  if (env.checkpoint != nullptr && outcome->status.ok()) {
    Status durable = XMLPROJ_FAULT_HIT(env.fault, "pipeline.commit");
    if (durable.ok()) {
      durable = env.checkpoint->CommitOutput(index, out->output);
    }
    if (!durable.ok()) {
      outcome->stage = "commit";
      outcome->status = std::move(durable);
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
        outcome->stage = "checkpoint";
        outcome->status = std::move(durable);
      } else {
        CounterAdd(env.metrics.checkpoint_appends);
      }
    }
  }

  if (outcome->status.ok()) {
    out->peak_bytes = outcome->peak_bytes;
  } else {
    *out = PipelineResult{};
  }

  CounterAdd(env.metrics.tasks_total);
  CounterAdd(env.metrics.input_bytes_total, task.xml_text->size());
  CounterAdd(env.metrics.output_bytes_total, out->output.size());
  CounterAdd(env.metrics.input_nodes_total, out->stats.input_nodes);
  CounterAdd(env.metrics.kept_nodes_total, out->stats.kept_nodes);
  CounterAdd(env.metrics.input_text_bytes_total, out->stats.input_text_bytes);
  CounterAdd(env.metrics.kept_text_bytes_total, out->stats.kept_text_bytes);
  CounterAdd(env.metrics.skipped_bytes_total, out->stats.skipped_bytes);
  if (!outcome->status.ok()) {
    CounterAdd(env.metrics.errors_total);
    if (outcome->status.code() == StatusCode::kDeadlineExceeded) {
      CounterAdd(env.metrics.deadline_exceeded_total);
    }
    if (outcome->status.code() == StatusCode::kResourceExhausted) {
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
    if (!outcome->status.ok()) add("xmlproj_pipeline_errors_total", 1);
    if (out->degraded) add("xmlproj_pipeline_degraded_total", 1);
    Histogram* h = env.registry->GetHistogram("xmlproj_stage_task_ns", labels);
    if (h != nullptr) h->Record(task_ns);
  }

  if (outcome->peak_bytes > 0 && env.metrics.memory_peak_bytes != nullptr) {
    env.metrics.memory_peak_bytes->SetMax(
        static_cast<int64_t>(outcome->peak_bytes));
  }

  const char* failure_stage =
      outcome->status.ok() ? nullptr : FailureStage(*outcome, env.validate);
  RecordBreakerOutcome(env.breaker, failure_stage);

  // Quarantine-to-be tasks get their terminal outcome on disk *here*, in
  // the worker, not at run end: crash-safety is the point. Fast-failed
  // (circuit) tasks never get here, so they have no record — a resume
  // should re-admit them. Under kFailFast the run aborts and nothing is
  // settled, so failures are likewise not recorded.
  if (env.checkpoint != nullptr && failure_stage != nullptr &&
      env.policy != ErrorPolicy::kFailFast) {
    CheckpointTaskRecord record;
    record.task = index;
    record.completed = false;
    record.stage = failure_stage;
    record.code = StatusCodeName(outcome->status.code());
    if (env.checkpoint->AppendTask(record).ok()) {
      CounterAdd(env.metrics.checkpoint_appends);
    }
  }

  GaugeAdd(env.metrics.progress_inflight, -1);
  GaugeAdd(outcome->status.ok() ? env.metrics.progress_completed
                               : env.metrics.progress_failed,
           1);
}

// Runs the admitted tasks of one claimed unit: one shared pass when there
// are several, then, in index order, each task's own pass unless the
// shared pass left it done, and its bookkeeping. A task's clock covers its
// unit's pass plus its own.
void RunUnit(const TaskEnv& env, std::span<const PipelineTask> tasks,
             std::span<AdmittedTask> admitted, uint64_t ready_ns,
             std::span<TaskOutcome> outcomes,
             std::span<PipelineResult> results) {
  const uint64_t start_ns = env.instrumented ? MonotonicNowNs() : 0;
  if (admitted.size() > 1) {
    RunSharedPass(env, tasks, admitted, outcomes, results);
  }
  const uint64_t shared_ns =
      env.instrumented ? MonotonicNowNs() - start_ns : 0;
  for (AdmittedTask& a : admitted) {
    TaskOutcome& outcome = outcomes[a.index];
    PipelineResult& out = results[a.index];
    const uint64_t own_start_ns = env.instrumented ? MonotonicNowNs() : 0;
    if (!a.done) RunOwnPass(env, tasks[a.index], &outcome, &out);
    const uint64_t task_ns =
        env.instrumented ? shared_ns + (MonotonicNowNs() - own_start_ns) : 0;
    FinishTask(env, tasks[a.index], a.index, start_ns, task_ns, ready_ns,
               &outcome, &out);
  }
}

// Whether a run's tasks over one document share one pass. Both inputs
// are the run's own, and per-task passes measured faster outside them
// (DESIGN.md "Shared passes: one parse per document"):
//  - no budget: under a byte cap a shared pass may skip only where no
//    task is inside an element it rejected, and under a deadline every
//    task's guard reads the clock on every event of the shared parse;
//  - the largest document's shared pass fits in one worker's share of
//    the per-task work. A shared pass cannot be split across workers;
//    it cost at most 3/4 of the per-task passes it replaces on the
//    corpora measured, so it fits while 3/4 × largest document ×
//    workers <= corpus bytes. With fewer documents than 3/4 of the
//    workers it never fits, and per-task claims keep the idle workers
//    busy.
bool SharesPasses(const TaskBudget& budget, size_t largest_document,
                  size_t corpus_bytes, size_t workers) {
  return !budget.active() &&
         3.0 * static_cast<double>(largest_document) *
                 static_cast<double>(workers) <=
             4.0 * static_cast<double>(corpus_bytes);
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
    case StatusCode::kUnsupported:
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

const StagePolicy& PolicyForStage(std::string_view stage) {
  // "task", the stage of every status code StageForStatus does not name,
  // is also the row of every stage this table lacks.
  static constexpr StagePolicy kTask = {"task", 500, StageFault::kServer};
  static constexpr StagePolicy kPolicies[] = {
      {"parse", 400, StageFault::kInput},
      {"validate", 400, StageFault::kInput},
      {"prune", 400, StageFault::kInput},
      {"budget", 413, StageFault::kInput},
      {"deadline", 504, StageFault::kServer},
      {"io", 500, StageFault::kServer},
      {"pool", 500, StageFault::kServer},
      {"commit", 500, StageFault::kServer},
      {"checkpoint", 500, StageFault::kServer},
      {"circuit", 503, StageFault::kNone},
  };
  for (const StagePolicy& policy : kPolicies) {
    if (stage == policy.stage) return policy;
  }
  return kTask;
}

void RecordBreakerOutcome(CircuitBreaker* breaker, const char* failure_stage) {
  if (breaker == nullptr) return;
  if (failure_stage != nullptr &&
      PolicyForStage(failure_stage).fault == StageFault::kServer) {
    breaker->RecordFailure();
  } else {
    breaker->RecordSuccess();
  }
}

BreakerSeed SeedBreakerFromJournal(std::span<const RunRecord> history,
                                   std::string_view corpus,
                                   CircuitBreaker* breaker) {
  BreakerSeed seed;
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    if (corpus.empty() || it->corpus == corpus) {
      seed.record = &*it;
      break;
    }
  }
  if (seed.record == nullptr) return seed;
  seed.successes = seed.record->tasks;
  for (const auto& [stage, count] : seed.record->quarantine) {
    const StageFault fault = PolicyForStage(stage).fault;
    if (fault == StageFault::kInput) seed.successes += count;
    if (fault == StageFault::kServer) seed.failures += count;
  }
  breaker->Seed(seed.successes, seed.failures);
  return seed;
}

void SetQuarantineDigest(const std::map<std::string, uint64_t>& stage_counts,
                         RunRecord* record) {
  record->quarantine.assign(stage_counts.begin(), stage_counts.end());
  record->budget_trips = 0;
  for (const char* stage : {"budget", "deadline"}) {
    auto it = stage_counts.find(stage);
    if (it != stage_counts.end()) record->budget_trips += it->second;
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

  auto wall_start = std::chrono::steady_clock::now();

  int threads = options.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  // Units: runs of consecutive tasks over one document, claimed together
  // so that their tasks share one pass (RunUnit) where that pays
  // (SharesPasses); elsewhere every task is a unit of its own.
  // PruneCorpusPerQuery lays a document's tasks out side by side;
  // PruneCorpus's tasks are units of one.
  std::vector<size_t> unit_begin;
  size_t largest_document = 0;
  size_t corpus_bytes = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (i == 0 || tasks[i].xml_text != tasks[i - 1].xml_text) {
      unit_begin.push_back(i);
      largest_document = std::max(largest_document, tasks[i].xml_text->size());
      corpus_bytes += tasks[i].xml_text->size();
    }
  }
  if (unit_begin.size() < tasks.size() &&
      !SharesPasses(options.budget, largest_document, corpus_bytes,
                    static_cast<size_t>(threads))) {
    unit_begin.resize(tasks.size());
    std::iota(unit_begin.begin(), unit_begin.end(), size_t{0});
  }
  const size_t units = unit_begin.size();
  unit_begin.push_back(tasks.size());
  const size_t workers = std::min(static_cast<size_t>(threads), units);
  GaugeSet(env.metrics.threads, static_cast<int64_t>(workers));
  // Progress gauges only add (see PipelineMetrics): the service runs
  // several one-document pipelines on one registry at a time.
  GaugeAdd(env.metrics.progress_tasks, static_cast<int64_t>(tasks.size()));

  if (resume != nullptr) {
    CounterAdd(env.metrics.checkpoint_resume_total);
    std::vector<char> prior_failed(tasks.size(), 0);
    for (const TaskFailure& f : resume->prior_failures) {
      if (f.task < prior_failed.size()) prior_failed[f.task] = 1;
    }
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!resume->done[i]) continue;
      CounterAdd(env.metrics.checkpoint_tasks_skipped);
      // Settled tasks count into progress immediately: a /statusz scrape
      // of a resumed run shows the corpus position, not just this
      // process's share.
      GaugeAdd(prior_failed[i] ? env.metrics.progress_failed
                               : env.metrics.progress_completed,
               1);
    }
  }

  // The parallel-for. Workers claim units in ascending order, so one
  // worker runs the tasks in index order. A claim goes through the unit's
  // tasks in index order — resume, "pool.task", the kFailFast cancel, the
  // stop flag, admission — and runs the admitted ones. Each claim writes
  // only its own slots of `outcomes` and `run.results`, so the writes are
  // race-free, and the join publishes them to the fold below.
  std::vector<TaskOutcome> outcomes(tasks.size());
  std::atomic<size_t> next_unit{0};
  // kFailFast: set by the first executed task that fails; tasks claimed
  // after it are cancelled without running.
  std::atomic<bool> cancelled{false};
  // Every task is ready when the workers start claiming; one worker has
  // no queue to wait in.
  const uint64_t ready_ns = instrumented && workers > 1 ? MonotonicNowNs() : 0;
  auto claim_units = [&] {
    std::vector<AdmittedTask> admitted;
    for (size_t u = next_unit.fetch_add(1, std::memory_order_relaxed);
         u < units; u = next_unit.fetch_add(1, std::memory_order_relaxed)) {
      admitted.clear();
      for (size_t i = unit_begin[u]; i < unit_begin[u + 1]; ++i) {
        TaskOutcome& outcome = outcomes[i];
        if (resume != nullptr && resume->done[i]) {
          outcome.exit = TaskExit::kSettled;
          continue;
        }
        // A worker-level fault: delay-only fires run the task late (a
        // slow worker); failing fires settle it with the injected status.
        outcome.status = XMLPROJ_FAULT_HIT(options.fault, "pool.task");
        if (!outcome.status.ok()) {
          GaugeAdd(env.metrics.progress_failed, 1);
          continue;
        }
        if (cancelled.load(std::memory_order_relaxed)) {
          outcome.status =
              CancelledError("skipped after an earlier task failed");
          continue;
        }
        if (options.stop != nullptr &&
            options.stop->load(std::memory_order_relaxed)) {
          outcome.exit = TaskExit::kDrained;
          continue;
        }
        if (!AdmitTask(env, &outcome)) continue;
        admitted.push_back({.index = i});
      }
      if (admitted.empty()) continue;
      RunUnit(env, tasks, admitted, ready_ns, outcomes, run.results);
      for (const AdmittedTask& task : admitted) {
        if (!outcomes[task.index].status.ok() &&
            env.policy == ErrorPolicy::kFailFast) {
          cancelled.store(true, std::memory_order_relaxed);
        }
      }
    }
  };
  {
    // Joined at the end of this scope, however it is left.
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) helpers.emplace_back(claim_units);
    claim_units();
  }

  // One fold over the outcomes. kFailFast reports the lowest-indexed real
  // failure: cancellations lose to the error that triggered them, but an
  // injected pool-level cancellation with no other failure still fails
  // the run. Peaks from failed tasks count too: a budget blowout is
  // exactly the observation auto-tuning must not lose.
  const bool fail_fast = options.policy == ErrorPolicy::kFailFast;
  Status first_error;
  Status first_cancelled;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskOutcome& outcome = outcomes[i];
    run.summary.max_task_peak_bytes =
        std::max(run.summary.max_task_peak_bytes, outcome.peak_bytes);
    if (outcome.exit == TaskExit::kSettled) continue;
    if (outcome.exit == TaskExit::kDrained) {
      ++run.summary.drained;
      continue;
    }
    if (outcome.status.ok()) {
      run.summary.AddTask(tasks[i].xml_text->size(), run.results[i]);
      if (run.results[i].degraded) ++run.summary.degraded;
    } else if (fail_fast) {
      Status& first = outcome.status.code() == StatusCode::kCancelled
                          ? first_cancelled
                          : first_error;
      if (first.ok()) first = AnnotateTaskError(i, outcome.status);
    } else {
      // kIsolate: quarantine into a structured report; the run itself
      // succeeds with the surviving results.
      TaskFailure failure;
      failure.task = i;
      failure.stage = FailureStage(outcome, options.validate);
      failure.status = outcome.status;
      failure.peak_bytes = outcome.peak_bytes;
      run.failures.push_back(std::move(failure));
    }
  }
  if (!first_error.ok()) return first_error;
  if (!first_cancelled.ok()) return first_cancelled;
  CounterAdd(env.metrics.isolated_total, run.failures.size());
  CounterAdd(env.metrics.drained_total, run.summary.drained);

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
  if (options.metrics != nullptr) {
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
