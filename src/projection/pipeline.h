// Parallel pruning pipeline: parse → [validate+]prune → serialize as one
// fused SAX pass per document, run as a parallel-for over the tasks.
//
// The paper's pruner is a single bufferless one-pass traversal whose cost
// disappears into parsing (§6) — a per-document property this pipeline
// preserves verbatim: every task runs exactly the sequential
// StreamingPruner / ValidatingPruner pass with O(depth) state. What is
// parallel is the *corpus* dimension of the journal version's workloads —
// many documents pruned for one merged workload projector, or one corpus
// pruned per query with per-query projectors (projectors are closed under
// union, §1.2, so both deployments are sound; Theorem 4.5 applies to each
// document independently). Consequently the parallel output is
// byte-for-byte the sequential output, in the same order
// (tests/pipeline_test.cc diffs the two), and soundness is untouched.
//
// Every task exists before the run starts, so there is no queue: the
// workers, the calling thread among them, claim *units* in ascending
// order from one atomic counter. A unit is a run of consecutive tasks
// over one document (the same xml_text pointer) or a single task:
// PruneCorpusPerQuery's tasks for one document are one unit when the run
// shares passes (below), PruneCorpus's tasks are units of one. A claim
// writes one index-aligned outcome per task, and after the join one pass
// over the outcomes builds the verdict, the quarantine list and the
// summary. A run starts min(num_threads, units) - 1 helper threads; with
// one worker every task runs inline on the calling thread, the reference
// sequential path.
//
// Shared passes. A unit of several tasks runs as one parse. Its head, a
// projector tee, feeds every task's chain, and the parser skips an
// element only when every task's projector rejects it: the parser skips
// by their union, the paper's workload projector (§1.2). Each chain sees
// exactly the events of its task's own one-task pass, with the same byte
// spans, so its output bytes, PruneStats and memory peak are that
// pass's. A run shares passes only where that measured faster than
// per-task passes (DESIGN.md "Shared passes: one parse per document"):
// with no budget, and while the largest document's shared pass fits in
// one worker's share of the work (3 × its bytes × workers <= 4 × the
// corpus bytes, so never with fewer documents than 3/4 of the workers).
// Otherwise every task is a unit of its own. A claim goes through the
// unit's tasks in index order — resume, "pool.task", the kFailFast
// cancel, the stop flag, then admission (the breaker) — runs the shared
// pass for the admitted ones, and finishes each in index order: a pass
// of its own if needed, with the degrade fallback, then metrics and
// spans, the checkpoint, the breaker outcome. A task whose chain failed
// in the shared pass, or whose shared parse failed (say, on a defect
// inside a subtree only another projector keeps), runs that pass of its
// own, and its outcome is final. So a task's stage, code, message and
// peak are the ones its own pass gives. "pipeline.task" fires at the
// start of each pass a task runs, and a fire is the task's verdict: in a
// shared pass the task joins no branch and runs no pass of its own.
//
// Error handling is policy-driven (PipelineOptions::policy):
//   kFailFast (default) — the first failing document cancels the tasks
//     not yet claimed (running passes finish their document); the
//     pipeline returns the lowest-indexed task error that is not a
//     cancellation, annotated with the index.
//   kIsolate — a failing document is quarantined: its result slot stays
//     empty, a structured TaskFailure{task, stage, status} lands in
//     PipelineRun::failures, and the rest of the corpus proceeds
//     untouched (surviving outputs are byte-identical to a fault-free
//     sequential run over the survivors; see tests/chaos_test.cc).
// A task gets one verdict, its own pass's: the same bytes and projector
// give the same verdict, so a failed task is not run again. The pass of
// its own after a shared pass is not a retry. The shared pass is not the
// task's pass: it tokenizes what other projectors keep, so a parse
// failure there is not the task's verdict. The task's own pass runs once
// and decides. A "pipeline.task" fire is the one exception: it is the
// task's verdict wherever it fires, the shared pass included, and the
// task it fails runs no further pass.
//
// Memory peak: every task reports one number, the bytes its fused pass
// materializes — the serialized output plus the open-element charge
// (tag bytes + kOpenElementBytes per open element, xml/parser.h). It
// does not include the input document, nor the service's request body
// and response copy. Output only grows, so a pass's peak is read after
// the pass: the sink's produced bytes plus the parser's open-element
// high-water mark. A task's peak is the larger of its pass and the
// degraded fallback, budgeted or not, failed or not.
//
// Resource budgets (PipelineOptions::budget) bound each task: a byte cap
// on that same quantity and a wall-clock deadline, both checked at
// SAX-event granularity by a guard filter inside the fused pass, so an
// oversized or slow document surfaces as a clean kResourceExhausted /
// kDeadlineExceeded Status instead of an OOM kill or a hang (DESIGN.md
// "Skip-scanning" says why the deadline bounds a pass). A task's own
// pass and its degrade fallback each get a deadline of their own. The
// guard is in the chain only when a budget is active.
//
// Graceful degradation (PipelineOptions::degrade_on_invalid): when
// pruning fails because the document does not fit the DTD (validation
// failure or an undeclared element — the Marian & Siméon situation where
// type-based projection is inapplicable but the document is fine), the
// task falls back to an identity no-prune pass so the query can still be
// answered on the unprojected document; degraded tasks are flagged on the
// result and counted in the summary and the obs metrics.
//
// Observability: every run folds per-task PruneStats into a
// PipelineSummary (the paper's Table 1 quantities at corpus scale), and
// PipelineOptions can attach a MetricsRegistry (per-task latency and
// queue-wait histograms, pruning counters, progress gauges) and a
// TraceCollector (per-task queue-wait and prune spans for Perfetto). A
// task is timed once, from outside the fused pass: parse, prune and
// splice interleave per SAX event, so no per-stage split is published.
// A task's time and span cover its unit's pass, plus any pass of its own
// and the degraded fallback. Queue wait exists only with more than one
// worker: every task is ready when the workers start claiming, so a
// task's wait runs from that instant to the start of its unit's pass.
// Both are opt-in; with neither attached the pipeline reads no clocks.

#ifndef XMLPROJ_PROJECTION_PIPELINE_H_
#define XMLPROJ_PROJECTION_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "dtd/dtd.h"
#include "dtd/name_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "projection/pruner.h"

namespace xmlproj {

class CircuitBreaker;  // common/circuit.h
class RunCheckpoint;   // projection/checkpoint.h
struct ResumePlan;     // projection/checkpoint.h
struct RunRecord;      // obs/journal.h

// How the pipeline reacts to a failing task (see file comment). Checkpoint
// bindings hash the values, so they stay fixed.
enum class ErrorPolicy {
  kFailFast = 0,  // first error cancels the run
  kIsolate = 1,   // quarantine the failing document, continue the corpus
};

// Per-task resource budget. Zero fields are unlimited; with both zero the
// budget machinery stays entirely out of the pass (no extra SAX filter,
// no clock reads).
struct TaskBudget {
  // Cap on the task's memory peak (see file comment: serialized output
  // plus the open-element charge), checked after every SAX event and on
  // every poll inside a skipped subtree. Exceeding it aborts the task
  // with kResourceExhausted within one SAX event of the cap, or inside a
  // skip less than kSkipPollBytes past it (xml/parser.h).
  size_t max_bytes = 0;
  // Per-pass wall-clock deadline, checked before every SAX event; a
  // stalled pass aborts with kDeadlineExceeded. A deadline too large to
  // represent in nanoseconds means no deadline.
  uint64_t deadline_ms = 0;

  bool active() const { return max_bytes != 0 || deadline_ms != 0; }
};

// Structured report for one quarantined task (kIsolate).
struct TaskFailure {
  size_t task = 0;    // index into the submitted tasks
  // Stage attribution (PolicyForStage lists them): StageForStatus, or
  // "circuit" when the task was fast-failed at admission by an open
  // circuit breaker (PipelineOptions::breaker) and never executed.
  std::string stage;
  Status status;
  // The task's memory peak over all its passes (see file comment): output
  // plus open-element charge, up to the failure. 0 when no pass ran.
  size_t peak_bytes = 0;
};

struct PipelineOptions {
  // Workers, the calling thread among them; <= 0 selects hardware
  // concurrency. A run never uses more workers than it has units (see
  // file comment). 1 runs every task inline on the calling thread, the
  // reference sequential path.
  int num_threads = 0;
  // Fuse DTD validation of the *input* into the pruning pass
  // (ValidatingPruner instead of StreamingPruner).
  bool validate = false;
  // Optional telemetry. When `metrics` is set the pipeline publishes the
  // xmlproj_pipeline_* / xmlproj_progress_* /
  // xmlproj_stage_{task,queue_wait}_ns metrics (see README
  // "Observability") into it; when `trace` is set every task emits a
  // queue-wait span (runs with more than one worker) and one
  // [validate+]prune span covering the whole task. Either costs a few
  // clock reads per task and none per SAX event; both null (the default)
  // reads no clocks at all.
  MetricsRegistry* metrics = nullptr;
  TraceCollector* trace = nullptr;
  // Fault tolerance (see file comment and README "Fault tolerance").
  ErrorPolicy policy = ErrorPolicy::kFailFast;
  TaskBudget budget;
  // Fall back to an identity (no-prune) pass when pruning fails because
  // the document does not fit the DTD (kInvalid / kNotFound), so the
  // query still answers on the unprojected document.
  bool degrade_on_invalid = false;
  // Optional fault injector threaded through parser ("xml.parse"), pruner
  // ("prune.element"), the claim loop ("pool.task") and the task itself
  // ("pipeline.task"). Null — the default — leaves one pointer compare
  // per checkpoint on the hot path.
  FaultInjector* fault = nullptr;
  // Metric labels (require `metrics`). With metrics attached,
  // PruneCorpusPerQuery additionally publishes each task's Table-1
  // counters into `query_id`-labeled series (one per projector), so one
  // scrape shows per-query pruning ratios; the unlabeled totals remain the
  // sum over queries. A non-empty corpus_label adds a `corpus` label to
  // every labeled series (and, for PruneCorpus, labels tasks with just the
  // corpus). Labeled publication costs one registry lookup per counter per
  // *task* — nothing on the per-event hot path.
  std::string corpus_label;
  // Optional circuit breaker (common/circuit.h), consulted at task
  // admission under kIsolate: while the breaker is open, tasks
  // are quarantined immediately with stage "circuit" instead of running
  // against a corpus that is currently failing; every executed task
  // reports its outcome (RecordBreakerOutcome). A unit's tasks are all
  // admitted before its pass and report after it, so a half-open breaker
  // admits only its probes from a unit. Ignored under kFailFast — that
  // policy already stops at the first failure, and fast-failing it would
  // only change *which* error wins.
  // Borrowed; must outlive the run.
  CircuitBreaker* breaker = nullptr;
  // Ignored: every task reports its memory peak (see file comment) into
  // the xmlproj_memory_peak_bytes gauge and
  // PipelineSummary::max_task_peak_bytes whatever this says. The field
  // remains only because the benchmark's layer ladder
  // (perfbench/src/layers.cc) sets it; the next change to the benchmark
  // deletes both.
  bool meter_memory = false;
  // Crash-safe checkpointing (projection/checkpoint.h). With `checkpoint`
  // attached (open), every executed task's terminal outcome is made
  // durable as it happens: completed outputs are committed atomically to
  // the checkpoint's out/ directory (write *.tmp, fsync, rename) and one
  // fsync'd JSONL line records the outcome — one append per task,
  // nothing on the per-event hot path. A failed commit or append fails
  // the task (stage "commit" / "checkpoint"): a run that cannot promise
  // durability must not pretend it did. Borrowed; must outlive the run.
  RunCheckpoint* checkpoint = nullptr;
  // Resume plan from PlanResume(): tasks the plan marks done are skipped
  // (their committed outputs already re-verified by size + hash), their
  // recorded stats fold into the final PipelineSummary, and carried
  // quarantines resurface in PipelineRun::failures. Requires
  // `resume->resumable` and done.size() == task count. Borrowed.
  const ResumePlan* resume = nullptr;
  // Graceful drain: when `stop` flips true (a signal handler's atomic),
  // every task a worker claims after the stop returns without running
  // (a unit's tasks are claimed together, before its pass).
  // Those tasks are abandoned without a terminal outcome (counted in
  // PipelineSummary::drained, absent from failures and the checkpoint, so
  // a resume re-runs them). In-flight tasks always finish; only their
  // budget deadline bounds how long that takes.
  // Borrowed; may be null.
  const std::atomic<bool>* stop = nullptr;
};

// One unit of work: prune `xml_text` with `projector`. All pointers are
// borrowed and must outlive the pipeline call. `labels` (optional)
// attaches metric labels to this task's published counters — the
// PruneCorpusPerQuery fan-out points tasks of query q at one shared
// {query_id="q"} label set.
struct PipelineTask {
  const std::string* xml_text = nullptr;
  const NameSet* projector = nullptr;
  const MetricLabels* labels = nullptr;
};

struct PipelineResult {
  std::string output;  // serialized projected document
  PruneStats stats;
  // True when this task fell back to the identity (no-prune) pass:
  // `output` is then the serialized *unprojected* document.
  bool degraded = false;
  // The task's memory peak over its passes (see file comment). A failed
  // task's slot is empty; its TaskFailure carries the peak.
  size_t peak_bytes = 0;
};

// Corpus-level totals: per-task PruneStats folded together plus the byte
// sizes of inputs and projected outputs — exactly the Table 1 quantities
// (nodes kept/dropped, size reduction), measured over the whole run.
struct PipelineSummary {
  size_t tasks = 0;
  size_t input_bytes = 0;   // sum of task input XML sizes
  size_t output_bytes = 0;  // sum of serialized projected outputs
  size_t input_nodes = 0;
  size_t kept_nodes = 0;
  size_t input_text_bytes = 0;
  size_t kept_text_bytes = 0;
  double wall_seconds = 0;  // whole-run wall time, all tasks
  // Fault-tolerance accounting. `tasks` and the byte/node totals above
  // cover *completed* tasks only (including degraded ones); quarantined
  // failures are counted here and detailed in PipelineRun::failures.
  size_t failed = 0;    // tasks quarantined under kIsolate
  size_t degraded = 0;  // tasks that fell back to the identity pass
  // Checkpoint/resume and drain accounting. Skipped tasks *are* counted
  // in `tasks` and the byte/node totals (their recorded stats fold in),
  // so a resumed run's summary matches an uninterrupted one; drained
  // tasks are counted nowhere else — they have no terminal outcome.
  size_t resumed_skipped = 0;  // settled by a prior run, not re-executed
  size_t drained = 0;          // abandoned un-run after a stop request
  // Largest task memory peak across the run (see file comment: output
  // plus open-element charge), failed tasks included. Feeds the run
  // journal's peak_memory_bytes and budget auto-tuning.
  size_t max_task_peak_bytes = 0;

  // Fraction kept (Table 1's "pruning ratio" is 1 - these).
  double NodeRatio() const {
    return input_nodes == 0 ? 1.0
                            : static_cast<double>(kept_nodes) /
                                  static_cast<double>(input_nodes);
  }
  double ByteRatio() const {
    return input_bytes == 0 ? 1.0
                            : static_cast<double>(output_bytes) /
                                  static_cast<double>(input_bytes);
  }

  void AddTask(size_t task_input_bytes, const PipelineResult& result);
};

// A pipeline run: per-task results (aligned with the submitted tasks
// regardless of scheduling) plus the corpus-level summary, so callers no
// longer fold per-task stats themselves. Under kIsolate a returned-OK
// run can still carry quarantined failures: results[f.task] is empty for
// each f in `failures` (sorted by task index).
struct PipelineRun {
  std::vector<PipelineResult> results;
  PipelineSummary summary;
  std::vector<TaskFailure> failures;
};

// Runs every task through the fused parse → [validate+]prune → serialize
// pass. run.results[i] corresponds to tasks[i].
Result<PipelineRun> RunPruningPipeline(std::span<const PipelineTask> tasks,
                                       const Dtd& dtd,
                                       const PipelineOptions& options = {});

// Corpus × one (merged workload) projector: results align with `corpus`.
Result<PipelineRun> PruneCorpus(std::span<const std::string> corpus,
                                const Dtd& dtd, const NameSet& projector,
                                const PipelineOptions& options = {});

// One document × one projector, inline on the calling thread: the
// service-daemon entry point (service/service.h prunes one POSTed
// document per request). By construction this is a one-document corpus
// through the exact same fused pass as the batch pipeline — byte
// parity between the service and batch planes is structural, not
// re-implemented. One task never starts a helper thread, so num_threads
// is moot; budgets, validation, metrics and fault injection all apply.
// Returns the failing task's Status on error (kFailFast semantics): no
// corpus to quarantine into.
Result<PipelineRun> PruneDocument(const std::string& xml_text, const Dtd& dtd,
                                  const NameSet& projector,
                                  const PipelineOptions& options = {});

// Corpus × per-query projectors (the multi-query deployment): task and
// result index is `doc * projectors.size() + query`. Without a budget,
// and with enough documents for the workers, each document's tasks are
// one unit, pruned in one shared pass (see file comment).
Result<PipelineRun> PruneCorpusPerQuery(std::span<const std::string> corpus,
                                        const Dtd& dtd,
                                        std::span<const NameSet> projectors,
                                        const PipelineOptions& options = {});

// Aggregate helpers over pipeline results.
size_t TotalOutputBytes(std::span<const PipelineResult> results);

// Coarse stage attribution for a failing task's status code, the one
// mapping behind TaskFailure::stage and every quarantine digest:
// "parse", "validate" (kInvalid with `validate`), "prune" (kNotFound,
// kUnsupported, and kInvalid without `validate`), "budget", "deadline",
// "io", "pool", or "task".
const char* StageForStatus(StatusCode code, bool validate);

// The failure policy, one row per quarantine stage (DESIGN.md "Circuit
// breaker"). Projection is sound per document (Theorem 4.5), so only a
// server fault is evidence that the system is failing.
enum class StageFault : uint8_t {
  kInput,   // the document's own defect: parse, validate, prune, budget
  kServer,  // deadline, io, pool, task, commit, checkpoint
  kNone,    // circuit: the breaker's own answer, never an outcome
};
struct StagePolicy {
  const char* stage;
  int http_status;  // POST /prune's answer to a failure at this stage
  StageFault fault;
};
// The row for `stage`; a stage the table lacks gets the "task" row.
const StagePolicy& PolicyForStage(std::string_view stage);

// Reports one admitted outcome to `breaker` (nullable): a failure when
// `failure_stage` is a server fault, a success otherwise (null for a
// completed or degraded task).
void RecordBreakerOutcome(CircuitBreaker* breaker, const char* failure_stage);

// Seeds `breaker` from the last record in `history` whose corpus is
// `corpus` ("" matches any): completed tasks and input-fault quarantines
// as successes, server-fault quarantines as failures.
struct BreakerSeed {
  const RunRecord* record = nullptr;  // null: no record matched
  uint64_t successes = 0;
  uint64_t failures = 0;
};
BreakerSeed SeedBreakerFromJournal(std::span<const RunRecord> history,
                                   std::string_view corpus,
                                   CircuitBreaker* breaker);

// Sets `record`'s quarantine digest and budget_trips ("budget" plus
// "deadline") from per-stage failure counts.
void SetQuarantineDigest(const std::map<std::string, uint64_t>& stage_counts,
                         RunRecord* record);

}  // namespace xmlproj

#endif  // XMLPROJ_PROJECTION_PIPELINE_H_
