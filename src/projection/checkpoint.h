// Durable checkpoint for one pruning run: crash-safe progress on disk,
// so a corpus run killed mid-flight resumes instead of restarting.
//
// The paper's whole point is pruning corpora too large to hold in memory
// (§6) — exactly the runs most likely to be interrupted by OOM kills,
// deadline evictions, or an operator's Ctrl-C. A checkpointed run writes
// two kinds of durable state under one directory:
//
//   DIR/checkpoint.jsonl   append-only record of terminal task outcomes
//   DIR/out/task-<i>.xml   committed pruned outputs, one per task
//
// The JSONL file opens with a *header* line binding the checkpoint to
// its inputs — corpus digest, task count, workload name, projector
// NameSet hash, and a fingerprint of the PipelineOptions that shape
// output bytes — so `--resume=DIR` refuses a checkpoint whose inputs or
// options changed (resuming one would silently mix outputs of two
// different runs). Every subsequent line is one task's terminal outcome:
//
//   completed    output path + byte count + FNV-1a content hash (+ the
//                task's PruneStats, so resumed summaries fold exactly),
//                with a `degraded` flag for identity-pass fallbacks
//   quarantined  stage + status code, mirroring TaskFailure
//
// Appends are journal-style: one line, fflush + fsync, written under a
// mutex (pipeline workers append concurrently). A crash can at worst
// tear the final line; LoadCheckpoint() tolerates and counts
// torn/corrupt lines, and the resume planner simply re-runs tasks whose
// record (or committed output) did not survive. Output commits are
// atomic — write `*.tmp`, fsync, rename — so a file in DIR/out/ is
// always a complete pruned document, never a torn one; the planner still
// re-verifies each committed output by size + content hash before
// trusting it.
//
// Granularity is the *task* (one document × projector): see DESIGN.md
// "Checkpoint granularity". The hot path is untouched — one append per
// task, nothing per SAX event.

#ifndef XMLPROJ_PROJECTION_CHECKPOINT_H_
#define XMLPROJ_PROJECTION_CHECKPOINT_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dtd/name_set.h"
#include "projection/pipeline.h"

namespace xmlproj {

// Fast 64-bit content hash for per-task output verification: an
// 8-bytes-at-a-time FNV-1a variant (word loads + the 64-bit FNV prime,
// byte-wise FNV over the tail). Byte-serial FNV tops out around the
// pruner's own throughput, which would make hashing a double-digit
// share of a checkpointed task; word-at-a-time keeps the bookkeeping
// inside the <=5% bench gate. Not FNV-compatible — only ever compared
// against itself (written at commit, recompared at resume).
uint64_t ContentHash64(std::string_view data);

// What a checkpoint is bound to. Two runs with equal bindings prune the
// same bytes with the same projectors under output-equivalent options,
// so their outputs are interchangeable — the precondition for resume.
struct CheckpointBinding {
  uint64_t corpus_digest = 0;        // FNV over every task's input bytes
  uint64_t projector_hash = 0;       // FNV over every projector NameSet
  uint64_t options_fingerprint = 0;  // output-shaping PipelineOptions only
  uint64_t tasks = 0;
  std::string workload;  // free-form label, e.g. "xmark-dashboard-merged"

  bool Matches(const CheckpointBinding& other, std::string* mismatch) const;
};

// Binding for a corpus × projectors run (the PruneCorpus /
// PruneCorpusPerQuery task layouts: task index = doc * projectors + q).
// The options fingerprint covers only fields that change output bytes or
// terminal outcomes (validate, policy, degrade, budget) —
// resuming with a different thread count or telemetry setup is fine.
CheckpointBinding ComputeCorpusBinding(std::span<const std::string> corpus,
                                       std::span<const NameSet> projectors,
                                       const PipelineOptions& options,
                                       std::string workload);

// One line of checkpoint.jsonl after the header.
struct CheckpointTaskRecord {
  uint64_t task = 0;
  bool completed = false;  // false = quarantined
  // Completed tasks.
  bool degraded = false;
  std::string output_path;   // relative to the checkpoint dir
  uint64_t output_bytes = 0;
  uint64_t output_hash = 0;  // FNV-1a of the committed bytes
  uint64_t input_bytes = 0;
  uint64_t input_nodes = 0;
  uint64_t kept_nodes = 0;
  uint64_t input_text_bytes = 0;
  uint64_t kept_text_bytes = 0;
  // Quarantined tasks.
  std::string stage;  // TaskFailure::stage ("parse", "deadline", ...)
  std::string code;   // StatusCodeName of the terminal status
};

// Header line: the binding plus run identity.
struct CheckpointHeader {
  std::string run_id;
  uint64_t started_unix_ms = 0;
  CheckpointBinding binding;
};

// Append side of one checkpoint directory. Thread-safe: AppendTask
// serializes concurrent workers behind a mutex, and every append is
// fflush+fsync'd before returning.
class RunCheckpoint {
 public:
  RunCheckpoint() = default;
  ~RunCheckpoint();
  RunCheckpoint(const RunCheckpoint&) = delete;
  RunCheckpoint& operator=(const RunCheckpoint&) = delete;

  // Starts a fresh checkpoint: creates DIR and DIR/out/ (one level),
  // truncates DIR/checkpoint.jsonl and writes the header. Any prior
  // checkpoint in DIR is superseded.
  Status Create(const std::string& dir, const CheckpointHeader& header);

  // Opens an existing checkpoint for appending (resume): records from
  // the resumed run append after the prior run's. No header is written.
  Status OpenForAppend(const std::string& dir);

  // Atomically commits one task's pruned output to DIR/out/task-<i>.xml
  // (write *.tmp, fsync, rename). Idempotent: a re-run task overwrites
  // its prior commit.
  Status CommitOutput(uint64_t task, const std::string& content) const;

  // Appends one terminal-outcome line (fflush + fsync).
  Status AppendTask(const CheckpointTaskRecord& record);

  uint64_t appends() const;
  const std::string& dir() const { return dir_; }
  bool open() const { return file_ != nullptr; }

  // DIR/checkpoint.jsonl and the committed-output paths.
  static std::string PathFor(const std::string& dir);
  static std::string TaskOutputRelPath(uint64_t task);
  static std::string TaskOutputPath(const std::string& dir, uint64_t task);

  // One record / header as its JSON line (no newline); for tests.
  static std::string FormatHeader(const CheckpointHeader& header);
  static std::string FormatRecord(const CheckpointTaskRecord& record);
  static bool ParseHeader(std::string_view line, CheckpointHeader* out);
  static bool ParseRecord(std::string_view line, CheckpointTaskRecord* out);

  // Loads DIR/checkpoint.jsonl: the header plus every parseable task
  // record in file order (a torn or corrupt line — crash mid-append — is
  // counted into *skipped_lines, nullable, and skipped). False with
  // *error when the file is missing/unreadable or has no valid header.
  static bool LoadCheckpoint(const std::string& dir, CheckpointHeader* header,
                             std::vector<CheckpointTaskRecord>* records,
                             size_t* skipped_lines, std::string* error);

 private:
  Status OpenFile(const std::string& dir, const char* mode);

  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::string dir_;
  std::string path_;
  uint64_t appends_ = 0;
};

// What a resumed pipeline run should do, computed once before the run.
struct ResumePlan {
  // False when DIR has no loadable checkpoint or its binding does not
  // match the current inputs/options; `mismatch` says why. A resumed run
  // must not start in that state (the tool exits with a distinct code).
  bool resumable = false;
  std::string mismatch;
  std::string run_id;  // the interrupted run's id, from the header

  // done[i] — task i is settled (verified-completed, or quarantined and
  // not re-admitted) and must be skipped by the pipeline.
  std::vector<char> done;
  // Fold of the skipped *completed* tasks' recorded stats; the pipeline
  // adds this into the final PipelineSummary so totals match an
  // uninterrupted run.
  PipelineSummary prior;
  // Quarantined tasks carried forward (not re-admitted): surfaced again
  // in PipelineRun::failures with their recorded stage/code.
  std::vector<TaskFailure> prior_failures;

  size_t skipped_completed = 0;    // verified committed outputs
  size_t skipped_quarantined = 0;  // carried-forward quarantines
  size_t retry_quarantined = 0;    // re-admitted under the retry flag
  size_t invalidated = 0;  // records dropped: missing/tampered output
  size_t torn_lines = 0;   // corrupt checkpoint lines tolerated
};

// Plans a resume of DIR against the current inputs: verifies the header
// binding, re-verifies every completed task's committed output by size +
// content hash (mismatches are re-run, never trusted), and either
// carries quarantined tasks forward or — with `retry_quarantined` —
// re-admits them, whatever their stage: a stage this build no longer
// assigns carries forward as recorded. The last record per task wins, so
// a re-admitted task's new outcome supersedes its earlier one.
ResumePlan PlanResume(const std::string& dir,
                      const CheckpointBinding& binding,
                      bool retry_quarantined);

// Status-code name → code, inverse of StatusCodeName for the codes a
// checkpoint can record; unknown names map to kInternal.
StatusCode StatusCodeFromName(std::string_view name);

}  // namespace xmlproj

#endif  // XMLPROJ_PROJECTION_CHECKPOINT_H_
