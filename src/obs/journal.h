// Persistent run journal: one JSONL record per pipeline run, appended at
// run end and loaded at startup.
//
// The obs stack so far evaporates with the process: metrics live while
// something scrapes them (obs/server.h) or until the run's end-of-run
// files are written (obs/export.h), but nothing remembers *previous*
// runs. The journal is that memory — an append-only `journal.jsonl` in
// an operator-chosen directory, each line a self-contained RunRecord:
// run identity, wall-times, corpus label, the PipelineSummary fold, peak
// per-task metered memory, budget trips, and a quarantine digest
// (failures per stage).
//
// Two consumers read it back:
//  - SuggestBudgets(): auto-tunes the per-task byte budget from the p99
//    of prior runs' peak memory (the ROADMAP's budget-auto-tuning item) —
//    a corpus the service has seen before gets a cap that real behavior
//    justifies instead of a guess.
//  - the circuit breaker (common/circuit.h): seeds its failure window
//    from the most recent record, so a corpus that was failing when the
//    last process died starts degraded instead of naively closed.
//
// Robustness contract: a half-written final line (crash mid-append) or a
// corrupted line must never poison startup — Load() skips unparseable
// lines and reports how many it skipped. Like everything in obs/ this
// file is standard library + POSIX only (no common/status.h — obs sits
// below common in the link order), so errors are bool + message.

#ifndef XMLPROJ_OBS_JOURNAL_H_
#define XMLPROJ_OBS_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xmlproj {

// One pipeline run, as remembered across processes.
struct RunRecord {
  std::string run_id;        // unique per run; see GenerateRunId()
  std::string corpus;        // PipelineOptions::corpus_label ("" = none)
  uint64_t start_unix_ms = 0;
  uint64_t end_unix_ms = 0;
  double wall_seconds = 0;   // PipelineSummary::wall_seconds

  // PipelineSummary fold (completed tasks; `failed` = quarantined).
  uint64_t tasks = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;

  // Resource accounting for budget auto-tuning: the largest task memory
  // peak (xmlproj_memory_peak_bytes) and how many tasks tripped a budget
  // (kResourceExhausted + kDeadlineExceeded). The peak is the bytes the
  // fused pass materializes — output plus the open-element charge — not
  // the input document, nor a service request's body and response copy:
  // SuggestBudgets() turns it into a cap on that same quantity
  // (TaskBudget::max_bytes).
  uint64_t peak_memory_bytes = 0;
  uint64_t budget_trips = 0;

  // Resume outcome (checkpoint-bearing runs; both 0 otherwise): tasks
  // settled by a prior interrupted run and skipped here, and tasks this
  // process actually executed. A resumed run's `tasks` still counts the
  // whole corpus — these two record how the work split across processes.
  uint64_t resume_skipped = 0;
  uint64_t resume_rerun = 0;

  // Quarantine digest: failures per pipeline stage ("parse", "budget",
  // "circuit", ...), sorted by stage name.
  std::vector<std::pair<std::string, uint64_t>> quarantine;
};

// Time-and-pid run id, e.g. "run-018f3c2a7b1-1a2b" — unique enough for a
// journal that one process appends to at a time.
std::string GenerateRunId();

// Append side. One journal = one `journal.jsonl` inside `dir`.
class RunJournal {
 public:
  RunJournal() = default;
  ~RunJournal();
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  // Creates `dir` if missing (one level) and opens `dir`/journal.jsonl
  // for appending. False with a description in *error.
  bool Open(const std::string& dir, std::string* error);

  // Appends one record as a single JSON line and flushes it to the OS,
  // so a crash after Append never loses the record.
  bool Append(const RunRecord& record, std::string* error);

  // When true, Append also fsync()s so the record survives power loss,
  // not just process death. Off by default (the journal is advisory for
  // plain runs); checkpoint-bearing runs turn it on — a journal that
  // contradicts a durable checkpoint is worse than a missing line.
  void set_fsync(bool fsync) { fsync_ = fsync; }

  const std::string& path() const { return path_; }

  // The file a journal directory maps to (what Open and Load use).
  static std::string PathFor(const std::string& dir);

  // One record as its JSON line (no trailing newline); exposed for tests.
  static std::string FormatRecord(const RunRecord& record);

  // Parses one line. False (out untouched beyond partial writes) on any
  // malformed, truncated, or wrong-shape input.
  static bool ParseRecord(std::string_view line, RunRecord* out);

  // Loads every parseable record from `dir`/journal.jsonl in file order.
  // Corrupt or truncated lines are skipped and counted into
  // *skipped_lines (nullable). A missing journal file is not an error —
  // it loads zero records (first run). False only when the file exists
  // but cannot be read.
  static bool Load(const std::string& dir, std::vector<RunRecord>* records,
                   size_t* skipped_lines, std::string* error);

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  bool fsync_ = false;
};

// Budget auto-tuning from journal history (--auto-budget).
struct BudgetSuggestion {
  // Records that carried a nonzero peak (the sample set). 0 = no history
  // → no suggestion (suggested_max_bytes stays 0 = unlimited).
  size_t runs = 0;
  uint64_t p99_peak_bytes = 0;
  // p99 peak × headroom: the per-task byte cap to run with.
  uint64_t suggested_max_bytes = 0;
};

// Suggests a per-task byte budget: the p99 of `records`' nonzero
// peak_memory_bytes, scaled by `headroom` (caps sized to exactly the
// observed peak would trip on the first slightly-larger document).
// When `corpus` is non-empty only records with that corpus label are
// considered — budgets are corpus-shaped, a 100-byte config corpus must
// not tune the cap for a 100 MB document corpus.
BudgetSuggestion SuggestBudgets(const std::vector<RunRecord>& records,
                                std::string_view corpus = {},
                                double headroom = 1.5);

}  // namespace xmlproj

#endif  // XMLPROJ_OBS_JOURNAL_H_
