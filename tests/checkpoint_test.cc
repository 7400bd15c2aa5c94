// Tests for crash-safe pruning runs (projection/checkpoint.h): the
// checkpoint wire format, binding sensitivity, atomic output commits,
// and — the load-bearing property — resume correctness: a run killed
// after any prefix of tasks and resumed must produce the byte-identical
// corpus and the same summary fold as an uninterrupted run. Also
// covered: quarantine carry-forward vs --resume-retry-quarantined,
// tampered-output re-verification, graceful drain (drained tasks have
// no terminal outcome and re-run on resume), and the checkpoint.append /
// pipeline.commit failpoints.

#include "projection/checkpoint.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/strings.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "projection/pipeline.h"
#include "projection/projection.h"
#include "xmark/corpus.h"
#include "xmark/xmark_dtd.h"

namespace xmlproj {
namespace {

std::string ScratchDir() {
  char templ[] = "/tmp/xmlproj_checkpoint_test_XXXXXX";
  const char* dir = mkdtemp(templ);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// Truncates checkpoint.jsonl to the header plus the first `keep` task
// records — the on-disk state after a kill -9 once `keep` tasks had
// their records fsync'd.
void TruncateCheckpoint(const std::string& dir, size_t keep) {
  std::string path = RunCheckpoint::PathFor(dir);
  std::string text = ReadFileOrDie(path);
  std::string kept;
  size_t lines = 0, start = 0;
  while (start < text.size() && lines < keep + 1) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) break;
    kept.append(text, start, end - start + 1);
    start = end + 1;
    ++lines;
  }
  WriteFileOrDie(path, kept);
}

const Dtd& XmarkDtd() {
  static const Dtd* dtd = new Dtd(std::move(LoadXMarkDtd()).value());
  return *dtd;
}

const NameSet& XmarkProjector() {
  static const NameSet* p = new NameSet(
      std::move(WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload()))
          .value());
  return *p;
}

std::vector<std::string> SmallCorpus(int documents) {
  XMarkCorpusOptions options;
  options.documents = documents;
  options.scale = 0.0005;
  return GenerateXMarkCorpus(options);
}

CheckpointHeader SampleHeader(std::span<const std::string> corpus,
                              const PipelineOptions& options) {
  CheckpointHeader header;
  header.run_id = "run-0123456789a-beef";
  header.started_unix_ms = 1700000000000ull;
  header.binding = ComputeCorpusBinding(
      corpus, std::span<const NameSet>(&XmarkProjector(), 1), options,
      "xmark-dashboard-merged");
  return header;
}

// --- Hashing and atomic writes ------------------------------------------

TEST(Fnv1aTest, KnownVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  // Chaining continues from the seed: hashing "ab" in one call equals
  // hashing "b" seeded with the hash of "a".
  EXPECT_EQ(Fnv1a64("ab"), Fnv1a64("b", Fnv1a64("a")));
}

TEST(ContentHashTest, DiscriminatesLengthTailAndOrder) {
  // The word-at-a-time variant must stay deterministic and sensitive to
  // every byte, including the sub-word tail and trailing zeros.
  EXPECT_EQ(ContentHash64("projection"), ContentHash64("projection"));
  EXPECT_NE(ContentHash64(""), ContentHash64(std::string(1, '\0')));
  EXPECT_NE(ContentHash64(std::string(8, '\0')),
            ContentHash64(std::string(9, '\0')));
  EXPECT_NE(ContentHash64("abcdefgh-tail"), ContentHash64("abcdefgh-tali"));
  EXPECT_NE(ContentHash64("abcdefghijklmnop"),
            ContentHash64("ijklmnopabcdefgh"));
}

TEST(AtomicWriteTest, WritesAndReplacesWithoutTempResidue) {
  std::string dir = ScratchDir();
  std::string path = dir + "/report.json";
  std::string error;
  ASSERT_TRUE(AtomicWriteTextFile(path, "first", false, &error)) << error;
  EXPECT_EQ(ReadFileOrDie(path), "first");
  ASSERT_TRUE(AtomicWriteTextFile(path, "second", true, &error)) << error;
  EXPECT_EQ(ReadFileOrDie(path), "second");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind";
}

TEST(AtomicWriteTest, FailsWithErrorOnMissingDirectory) {
  std::string error;
  EXPECT_FALSE(AtomicWriteTextFile("/nonexistent-dir-xyz/file", "x", false,
                                   &error));
  EXPECT_FALSE(error.empty());
}

// --- Wire format --------------------------------------------------------

TEST(CheckpointFormatTest, HeaderRoundTripsWithEscaping) {
  std::vector<std::string> corpus = SmallCorpus(2);
  PipelineOptions options;
  CheckpointHeader in = SampleHeader(corpus, options);
  in.binding.workload = "with \"quotes\"\nand newline";
  CheckpointHeader out;
  ASSERT_TRUE(RunCheckpoint::ParseHeader(RunCheckpoint::FormatHeader(in),
                                         &out));
  EXPECT_EQ(out.run_id, in.run_id);
  EXPECT_EQ(out.started_unix_ms, in.started_unix_ms);
  std::string mismatch;
  EXPECT_TRUE(out.binding.Matches(in.binding, &mismatch)) << mismatch;
}

TEST(CheckpointFormatTest, CompletedRecordRoundTrips) {
  CheckpointTaskRecord in;
  in.task = 7;
  in.completed = true;
  in.degraded = true;
  in.output_path = "out/task-7.xml";
  in.output_bytes = 12345;
  // High bit set: a hash that a double round-trip would corrupt.
  in.output_hash = 0xdeadbeefcafef00dull;
  in.input_bytes = 54321;
  in.input_nodes = 100;
  in.kept_nodes = 42;
  in.input_text_bytes = 900;
  in.kept_text_bytes = 450;
  CheckpointTaskRecord out;
  ASSERT_TRUE(RunCheckpoint::ParseRecord(RunCheckpoint::FormatRecord(in),
                                         &out));
  EXPECT_EQ(out.task, in.task);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.output_path, in.output_path);
  EXPECT_EQ(out.output_bytes, in.output_bytes);
  EXPECT_EQ(out.output_hash, in.output_hash);
  EXPECT_EQ(out.input_bytes, in.input_bytes);
  EXPECT_EQ(out.input_nodes, in.input_nodes);
  EXPECT_EQ(out.kept_nodes, in.kept_nodes);
  EXPECT_EQ(out.input_text_bytes, in.input_text_bytes);
  EXPECT_EQ(out.kept_text_bytes, in.kept_text_bytes);
}

TEST(CheckpointFormatTest, QuarantinedRecordRoundTrips) {
  CheckpointTaskRecord in;
  in.task = 3;
  in.completed = false;
  in.stage = "deadline";
  in.code = "DEADLINE_EXCEEDED";
  CheckpointTaskRecord out;
  ASSERT_TRUE(RunCheckpoint::ParseRecord(RunCheckpoint::FormatRecord(in),
                                         &out));
  EXPECT_EQ(out.task, in.task);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.stage, in.stage);
  EXPECT_EQ(out.code, in.code);
}

TEST(CheckpointFormatTest, ParseRejectsGarbage) {
  CheckpointTaskRecord record;
  EXPECT_FALSE(RunCheckpoint::ParseRecord("", &record));
  EXPECT_FALSE(RunCheckpoint::ParseRecord("not json", &record));
  EXPECT_FALSE(RunCheckpoint::ParseRecord("{\"type\":\"task\"", &record));
  CheckpointHeader header;
  EXPECT_FALSE(RunCheckpoint::ParseHeader("{\"type\":\"task\",\"task\":1}",
                                          &header));
}

// Lines exactly as earlier builds wrote them (less a quarantined record's
// attempt count, which the retry policy added): the writers must keep
// producing these bytes, and the readers must keep loading them, so
// --resume works on checkpoints written before an upgrade.
constexpr char kGoldenHeader[] =
    R"({"type":"header","run_id":"run-0123456789a-beef",)"
    R"("started_unix_ms":1700000000000,"tasks":8,)"
    R"("workload":"dash \"board\"\n","corpus_digest":"0123456789abcdef",)"
    R"("projector_hash":"fedcba9876543210",)"
    R"("options_fingerprint":"a09d945a1cd8d6e5"})";
constexpr char kGoldenCompleted[] =
    R"({"type":"task","task":7,"outcome":"completed",)"
    R"("path":"out/task-7.xml","bytes":12345,"hash":"deadbeefcafef00d",)"
    R"("degraded":1,"input_bytes":54321,"input_nodes":100,"kept_nodes":42,)"
    R"("input_text_bytes":900,"kept_text_bytes":450})";
constexpr char kGoldenQuarantined[] =
    R"({"type":"task","task":3,"outcome":"quarantined","stage":"deadline",)"
    R"("code":"DEADLINE_EXCEEDED"})";

TEST(CheckpointFormatTest, HeaderMatchesGoldenLineAndParsesBack) {
  CheckpointHeader in;
  in.run_id = "run-0123456789a-beef";
  in.started_unix_ms = 1700000000000ull;
  in.binding.tasks = 8;
  in.binding.workload = "dash \"board\"\n";
  in.binding.corpus_digest = 0x0123456789abcdefull;
  in.binding.projector_hash = 0xfedcba9876543210ull;
  in.binding.options_fingerprint = 0xa09d945a1cd8d6e5ull;
  EXPECT_EQ(RunCheckpoint::FormatHeader(in), kGoldenHeader);
  CheckpointHeader out;
  ASSERT_TRUE(RunCheckpoint::ParseHeader(kGoldenHeader, &out));
  EXPECT_EQ(out.run_id, in.run_id);
  EXPECT_EQ(out.started_unix_ms, in.started_unix_ms);
  EXPECT_EQ(out.binding.tasks, in.binding.tasks);
  EXPECT_EQ(out.binding.workload, in.binding.workload);
  EXPECT_EQ(out.binding.corpus_digest, in.binding.corpus_digest);
  EXPECT_EQ(out.binding.projector_hash, in.binding.projector_hash);
  EXPECT_EQ(out.binding.options_fingerprint, in.binding.options_fingerprint);
}

TEST(CheckpointFormatTest, CompletedRecordMatchesGoldenLineAndParsesBack) {
  CheckpointTaskRecord in;
  in.task = 7;
  in.completed = true;
  in.degraded = true;
  in.output_path = "out/task-7.xml";
  in.output_bytes = 12345;
  in.output_hash = 0xdeadbeefcafef00dull;
  in.input_bytes = 54321;
  in.input_nodes = 100;
  in.kept_nodes = 42;
  in.input_text_bytes = 900;
  in.kept_text_bytes = 450;
  EXPECT_EQ(RunCheckpoint::FormatRecord(in), kGoldenCompleted);
  CheckpointTaskRecord out;
  ASSERT_TRUE(RunCheckpoint::ParseRecord(kGoldenCompleted, &out));
  EXPECT_EQ(out.task, in.task);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.output_path, in.output_path);
  EXPECT_EQ(out.output_bytes, in.output_bytes);
  EXPECT_EQ(out.output_hash, in.output_hash);
  EXPECT_EQ(out.input_bytes, in.input_bytes);
  EXPECT_EQ(out.input_nodes, in.input_nodes);
  EXPECT_EQ(out.kept_nodes, in.kept_nodes);
  EXPECT_EQ(out.input_text_bytes, in.input_text_bytes);
  EXPECT_EQ(out.kept_text_bytes, in.kept_text_bytes);
}

TEST(CheckpointFormatTest, QuarantinedRecordMatchesGoldenLineAndParsesBack) {
  CheckpointTaskRecord in;
  in.task = 3;
  in.completed = false;
  in.stage = "deadline";
  in.code = "DEADLINE_EXCEEDED";
  EXPECT_EQ(RunCheckpoint::FormatRecord(in), kGoldenQuarantined);
  CheckpointTaskRecord out;
  ASSERT_TRUE(RunCheckpoint::ParseRecord(kGoldenQuarantined, &out));
  EXPECT_EQ(out.task, in.task);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.stage, in.stage);
  EXPECT_EQ(out.code, in.code);
}

// Builds that had a retry policy also wrote the attempt count. Such a
// line still loads; the key is skipped, and rewriting the record drops it.
TEST(CheckpointFormatTest, QuarantinedRecordWithAttemptsStillLoads) {
  constexpr char kWithAttempts[] =
      R"({"type":"task","task":3,"outcome":"quarantined","stage":"deadline",)"
      R"("code":"DEADLINE_EXCEEDED","attempts":2})";
  CheckpointTaskRecord out;
  ASSERT_TRUE(RunCheckpoint::ParseRecord(kWithAttempts, &out));
  EXPECT_EQ(out.task, 3u);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.stage, "deadline");
  EXPECT_EQ(out.code, "DEADLINE_EXCEEDED");
  EXPECT_EQ(RunCheckpoint::FormatRecord(out), kGoldenQuarantined);
}

TEST(StatusCodeFromNameTest, InvertsStatusCodeName) {
  for (StatusCode code :
       {StatusCode::kParseError, StatusCode::kInvalid, StatusCode::kCancelled,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    EXPECT_EQ(StatusCodeFromName(StatusCodeName(code)), code);
  }
  EXPECT_EQ(StatusCodeFromName("NO_SUCH_CODE"), StatusCode::kInternal);
}

// --- Binding sensitivity ------------------------------------------------

TEST(CheckpointBindingTest, DetectsEveryKindOfDrift) {
  std::vector<std::string> corpus = SmallCorpus(2);
  PipelineOptions options;
  std::span<const NameSet> projectors(&XmarkProjector(), 1);
  CheckpointBinding base =
      ComputeCorpusBinding(corpus, projectors, options, "w");
  std::string mismatch;
  EXPECT_TRUE(base.Matches(base, &mismatch)) << mismatch;
  // Pinned: checkpoints written by earlier builds with default options
  // must keep resuming, so the default fingerprint never drifts.
  EXPECT_EQ(base.options_fingerprint, 0xa09d945a1cd8d6e5ull);

  std::vector<std::string> other_corpus = corpus;
  other_corpus[1][other_corpus[1].size() / 2] ^= 1;
  EXPECT_FALSE(base.Matches(
      ComputeCorpusBinding(other_corpus, projectors, options, "w"),
      &mismatch));
  EXPECT_NE(mismatch.find("corpus"), std::string::npos) << mismatch;

  PipelineOptions budgeted = options;
  budgeted.budget.max_bytes = 1 << 20;
  EXPECT_FALSE(base.Matches(
      ComputeCorpusBinding(corpus, projectors, budgeted, "w"), &mismatch));
  EXPECT_NE(mismatch.find("options"), std::string::npos) << mismatch;

  EXPECT_FALSE(base.Matches(
      ComputeCorpusBinding(corpus, projectors, options, "other"), &mismatch));
  EXPECT_NE(mismatch.find("workload"), std::string::npos) << mismatch;

  EXPECT_FALSE(base.Matches(
      ComputeCorpusBinding(SmallCorpus(3), projectors, options, "w"),
      &mismatch));
  EXPECT_NE(mismatch.find("task count"), std::string::npos) << mismatch;

  // Thread count and telemetry must NOT invalidate a checkpoint.
  PipelineOptions threaded = options;
  threaded.num_threads = 7;
  threaded.meter_memory = true;
  EXPECT_TRUE(base.Matches(
      ComputeCorpusBinding(corpus, projectors, threaded, "w"), &mismatch))
      << mismatch;
}

// --- Checkpointed runs and resume --------------------------------------

// Reference run (no checkpoint) against which every resumed run is
// diffed.
PipelineRun ReferenceRun(const std::vector<std::string>& corpus,
                         const PipelineOptions& options) {
  auto result = PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(CheckpointRunTest, CheckpointedRunMatchesPlainRunAndCommitsOutputs) {
  std::vector<std::string> corpus = SmallCorpus(4);
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 2;
  PipelineRun reference = ReferenceRun(corpus, options);

  std::string dir = ScratchDir();
  RunCheckpoint checkpoint;
  ASSERT_TRUE(
      checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
  PipelineOptions durable = options;
  durable.checkpoint = &checkpoint;
  PipelineRun run = ReferenceRun(corpus, durable);

  ASSERT_EQ(run.results.size(), reference.results.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(run.results[i].output, reference.results[i].output);
    // The committed file is the same bytes the pipeline returned.
    EXPECT_EQ(ReadFileOrDie(RunCheckpoint::TaskOutputPath(dir, i)),
              run.results[i].output)
        << "task " << i;
  }
  EXPECT_EQ(checkpoint.appends(), corpus.size());

  CheckpointHeader header;
  std::vector<CheckpointTaskRecord> records;
  size_t skipped = 0;
  std::string error;
  ASSERT_TRUE(
      RunCheckpoint::LoadCheckpoint(dir, &header, &records, &skipped, &error))
      << error;
  EXPECT_EQ(records.size(), corpus.size());
  EXPECT_EQ(skipped, 0u);
}

// The kill-point matrix: crash after k fsync'd records, resume, and the
// resumed corpus + summary must be indistinguishable from a clean run.
TEST(CheckpointResumeTest, KillPointMatrixIsolate) {
  std::vector<std::string> corpus = SmallCorpus(5);
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 2;
  PipelineRun reference = ReferenceRun(corpus, options);
  std::span<const NameSet> projectors(&XmarkProjector(), 1);
  CheckpointBinding binding = ComputeCorpusBinding(
      corpus, projectors, options, "xmark-dashboard-merged");

  for (size_t kill_after : {size_t{0}, size_t{2}, size_t{5}}) {
    std::string dir = ScratchDir();
    RunCheckpoint first;
    ASSERT_TRUE(first.Create(dir, SampleHeader(corpus, options)).ok());
    {
      PipelineOptions durable = options;
      durable.checkpoint = &first;
      ReferenceRun(corpus, durable);
    }
    // Simulate the kill: only the first `kill_after` records survived.
    TruncateCheckpoint(dir, kill_after);

    ResumePlan plan = PlanResume(dir, binding, /*retry_quarantined=*/false);
    ASSERT_TRUE(plan.resumable) << plan.mismatch;
    EXPECT_EQ(plan.skipped_completed, kill_after);

    RunCheckpoint resumed;
    ASSERT_TRUE(resumed.OpenForAppend(dir).ok());
    PipelineOptions resume_options = options;
    resume_options.checkpoint = &resumed;
    resume_options.resume = &plan;
    auto result =
        PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), resume_options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // Byte-identical corpus: every committed output matches the clean
    // run (skipped tasks keep their prior commit, re-run tasks recommit).
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(ReadFileOrDie(RunCheckpoint::TaskOutputPath(dir, i)),
                reference.results[i].output)
          << "task " << i << " after kill at " << kill_after;
    }
    // Exact summary fold.
    const PipelineSummary& s = result->summary;
    EXPECT_EQ(s.tasks, reference.summary.tasks);
    EXPECT_EQ(s.input_bytes, reference.summary.input_bytes);
    EXPECT_EQ(s.output_bytes, reference.summary.output_bytes);
    EXPECT_EQ(s.input_nodes, reference.summary.input_nodes);
    EXPECT_EQ(s.kept_nodes, reference.summary.kept_nodes);
    EXPECT_EQ(s.input_text_bytes, reference.summary.input_text_bytes);
    EXPECT_EQ(s.kept_text_bytes, reference.summary.kept_text_bytes);
    EXPECT_EQ(s.failed, reference.summary.failed);
    EXPECT_EQ(s.resumed_skipped, kill_after);
  }
}

// A per-query run claims a document's tasks as one unit. A kill after
// some of a unit's records leaves it partly settled: the resumed run
// shares one pass among the unit's unsettled tasks, and the corpus and
// summary match a clean run.
TEST(CheckpointResumeTest, PerQueryKillPointInsideAUnit) {
  std::vector<std::string> corpus = SmallCorpus(3);
  auto projectors = WorkloadProjectors(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projectors.ok()) << projectors.status().ToString();
  const size_t queries = projectors->size();
  ASSERT_GT(queries, 2u);
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 1;  // records land in task order
  auto reference =
      PruneCorpusPerQuery(corpus, XmarkDtd(), *projectors, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  CheckpointHeader header;
  header.run_id = "run-0123456789a-beef";
  header.started_unix_ms = 1700000000000ull;
  header.binding = ComputeCorpusBinding(corpus, *projectors, options,
                                        "xmark-dashboard-per-query");

  // Inside the first unit, at its end, and inside the second.
  for (size_t kill_after : {size_t{1}, queries - 1, queries, queries + 2}) {
    std::string dir = ScratchDir();
    RunCheckpoint first;
    ASSERT_TRUE(first.Create(dir, header).ok());
    {
      PipelineOptions durable = options;
      durable.checkpoint = &first;
      auto run = PruneCorpusPerQuery(corpus, XmarkDtd(), *projectors, durable);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
    }
    TruncateCheckpoint(dir, kill_after);

    ResumePlan plan = PlanResume(dir, header.binding,
                                 /*retry_quarantined=*/false);
    ASSERT_TRUE(plan.resumable) << plan.mismatch;
    EXPECT_EQ(plan.skipped_completed, kill_after);

    RunCheckpoint resumed;
    ASSERT_TRUE(resumed.OpenForAppend(dir).ok());
    PipelineOptions resume_options = options;
    resume_options.num_threads = 2;
    resume_options.checkpoint = &resumed;
    resume_options.resume = &plan;
    auto result = PruneCorpusPerQuery(corpus, XmarkDtd(), *projectors,
                                      resume_options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t i = 0; i < corpus.size() * queries; ++i) {
      EXPECT_EQ(ReadFileOrDie(RunCheckpoint::TaskOutputPath(dir, i)),
                reference->results[i].output)
          << "task " << i << " after kill at " << kill_after;
      if (i >= kill_after) {
        EXPECT_EQ(result->results[i].output, reference->results[i].output);
        EXPECT_EQ(result->results[i].stats.skipped_bytes,
                  reference->results[i].stats.skipped_bytes);
      }
    }
    const PipelineSummary& s = result->summary;
    EXPECT_EQ(s.tasks, reference->summary.tasks);
    EXPECT_EQ(s.output_bytes, reference->summary.output_bytes);
    EXPECT_EQ(s.input_nodes, reference->summary.input_nodes);
    EXPECT_EQ(s.kept_nodes, reference->summary.kept_nodes);
    EXPECT_EQ(s.resumed_skipped, kill_after);
  }
}

TEST(CheckpointResumeTest, TornFinalLineIsToleratedAndRerun) {
  std::vector<std::string> corpus = SmallCorpus(3);
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 1;
  std::string dir = ScratchDir();
  RunCheckpoint checkpoint;
  ASSERT_TRUE(checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
  {
    PipelineOptions durable = options;
    durable.checkpoint = &checkpoint;
    ReferenceRun(corpus, durable);
  }
  // Tear the last record mid-line (crash between fwrite and the flush
  // reaching all bytes).
  std::string path = RunCheckpoint::PathFor(dir);
  std::string text = ReadFileOrDie(path);
  WriteFileOrDie(path, text.substr(0, text.size() - 25));

  std::span<const NameSet> projectors(&XmarkProjector(), 1);
  ResumePlan plan = PlanResume(
      dir,
      ComputeCorpusBinding(corpus, projectors, options,
                           "xmark-dashboard-merged"),
      false);
  ASSERT_TRUE(plan.resumable) << plan.mismatch;
  EXPECT_EQ(plan.skipped_completed, 2u);
  EXPECT_EQ(plan.torn_lines, 1u);
  EXPECT_FALSE(plan.done[2]);
}

TEST(CheckpointResumeTest, TamperedOutputIsInvalidatedAndRerun) {
  std::vector<std::string> corpus = SmallCorpus(3);
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 1;
  PipelineRun reference = ReferenceRun(corpus, options);
  std::string dir = ScratchDir();
  RunCheckpoint checkpoint;
  ASSERT_TRUE(checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
  {
    PipelineOptions durable = options;
    durable.checkpoint = &checkpoint;
    ReferenceRun(corpus, durable);
  }
  // Same size, different bytes: only the content hash can catch this.
  std::string tampered = ReadFileOrDie(RunCheckpoint::TaskOutputPath(dir, 1));
  tampered[tampered.size() / 2] ^= 1;
  WriteFileOrDie(RunCheckpoint::TaskOutputPath(dir, 1), tampered);

  std::span<const NameSet> projectors(&XmarkProjector(), 1);
  ResumePlan plan = PlanResume(
      dir,
      ComputeCorpusBinding(corpus, projectors, options,
                           "xmark-dashboard-merged"),
      false);
  ASSERT_TRUE(plan.resumable) << plan.mismatch;
  EXPECT_EQ(plan.invalidated, 1u);
  EXPECT_FALSE(plan.done[1]);

  RunCheckpoint resumed;
  ASSERT_TRUE(resumed.OpenForAppend(dir).ok());
  PipelineOptions resume_options = options;
  resume_options.checkpoint = &resumed;
  resume_options.resume = &plan;
  auto result =
      PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), resume_options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ReadFileOrDie(RunCheckpoint::TaskOutputPath(dir, 1)),
            reference.results[1].output);
}

TEST(CheckpointResumeTest, QuarantineCarriesForwardUnlessRetryRequested) {
  std::vector<std::string> corpus = SmallCorpus(3);
  corpus[1] = "<site><open_auctions></site>";  // malformed: parse error
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 1;
  std::string dir = ScratchDir();
  RunCheckpoint checkpoint;
  ASSERT_TRUE(checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
  {
    PipelineOptions durable = options;
    durable.checkpoint = &checkpoint;
    PipelineRun run = ReferenceRun(corpus, durable);
    ASSERT_EQ(run.failures.size(), 1u);
    EXPECT_EQ(run.failures[0].task, 1u);
  }
  // Builds that had a hung-task watchdog quarantined a task it cancelled
  // with stage "watchdog". Such a record stands in for task 2's here: it
  // still loads, and its task carries forward with its stage.
  {
    const std::string path = RunCheckpoint::PathFor(dir);
    std::istringstream lines(ReadFileOrDie(path));
    std::string kept;
    for (std::string line; std::getline(lines, line);) {
      if (line.find(R"("task":2,)") == std::string::npos) kept += line + "\n";
    }
    kept += R"({"type":"task","task":2,"outcome":"quarantined",)"
            R"("stage":"watchdog","code":"DEADLINE_EXCEEDED"})"
            "\n";
    WriteFileOrDie(path, kept);
  }
  std::span<const NameSet> projectors(&XmarkProjector(), 1);
  CheckpointBinding binding = ComputeCorpusBinding(
      corpus, projectors, options, "xmark-dashboard-merged");

  // Default: the quarantined tasks stay settled and their failures are
  // carried into the resumed run's report with the recorded stages.
  ResumePlan carry = PlanResume(dir, binding, /*retry_quarantined=*/false);
  ASSERT_TRUE(carry.resumable) << carry.mismatch;
  EXPECT_EQ(carry.torn_lines, 0u);
  EXPECT_EQ(carry.skipped_completed, 1u);
  EXPECT_EQ(carry.skipped_quarantined, 2u);
  EXPECT_TRUE(carry.done[1]);
  EXPECT_TRUE(carry.done[2]);
  ASSERT_EQ(carry.prior_failures.size(), 2u);
  EXPECT_EQ(carry.prior_failures[0].stage, "parse");
  EXPECT_EQ(carry.prior_failures[1].task, 2u);
  EXPECT_EQ(carry.prior_failures[1].stage, "watchdog");
  EXPECT_EQ(carry.prior_failures[1].status.code(),
            StatusCode::kDeadlineExceeded);
  {
    RunCheckpoint resumed;
    ASSERT_TRUE(resumed.OpenForAppend(dir).ok());
    PipelineOptions resume_options = options;
    resume_options.checkpoint = &resumed;
    resume_options.resume = &carry;
    auto result =
        PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), resume_options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->failures.size(), 2u);
    EXPECT_EQ(result->failures[0].task, 1u);
    EXPECT_EQ(result->failures[0].stage, "parse");
    EXPECT_EQ(result->failures[1].task, 2u);
    EXPECT_EQ(result->failures[1].stage, "watchdog");
    EXPECT_EQ(result->summary.failed, 2u);
  }

  // With the retry flag the tasks are re-admitted (task 1 fails again
  // here, but as a fresh failure from this run, not a carried one).
  ResumePlan retry = PlanResume(dir, binding, /*retry_quarantined=*/true);
  ASSERT_TRUE(retry.resumable) << retry.mismatch;
  EXPECT_EQ(retry.retry_quarantined, 2u);
  EXPECT_FALSE(retry.done[1]);
  EXPECT_FALSE(retry.done[2]);
  EXPECT_TRUE(retry.prior_failures.empty());
}

TEST(CheckpointResumeTest, FullyCompleteCheckpointSkipsEverything) {
  std::vector<std::string> corpus = SmallCorpus(3);
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 2;
  PipelineRun reference = ReferenceRun(corpus, options);
  std::string dir = ScratchDir();
  RunCheckpoint checkpoint;
  ASSERT_TRUE(checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
  {
    PipelineOptions durable = options;
    durable.checkpoint = &checkpoint;
    ReferenceRun(corpus, durable);
  }
  std::span<const NameSet> projectors(&XmarkProjector(), 1);
  ResumePlan plan = PlanResume(
      dir,
      ComputeCorpusBinding(corpus, projectors, options,
                           "xmark-dashboard-merged"),
      false);
  ASSERT_TRUE(plan.resumable) << plan.mismatch;
  EXPECT_EQ(plan.skipped_completed, corpus.size());

  MetricsRegistry registry;
  RunCheckpoint resumed;
  ASSERT_TRUE(resumed.OpenForAppend(dir).ok());
  PipelineOptions resume_options = options;
  resume_options.checkpoint = &resumed;
  resume_options.resume = &plan;
  resume_options.metrics = &registry;
  auto result =
      PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), resume_options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->summary.tasks, reference.summary.tasks);
  EXPECT_EQ(result->summary.output_bytes, reference.summary.output_bytes);
  EXPECT_EQ(result->summary.resumed_skipped, corpus.size());
  EXPECT_EQ(resumed.appends(), 0u) << "nothing ran, nothing appends";
  EXPECT_EQ(
      registry.GetCounter("xmlproj_checkpoint_tasks_skipped")->Value(),
      corpus.size());
  EXPECT_EQ(registry.GetCounter("xmlproj_checkpoint_resume_total")->Value(),
            1u);
}

TEST(CheckpointResumeTest, MismatchedBindingRefusesToResume) {
  std::vector<std::string> corpus = SmallCorpus(2);
  PipelineOptions options;
  options.num_threads = 1;
  std::string dir = ScratchDir();
  RunCheckpoint checkpoint;
  ASSERT_TRUE(checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
  {
    PipelineOptions durable = options;
    durable.checkpoint = &checkpoint;
    ReferenceRun(corpus, durable);
  }
  PipelineOptions changed = options;
  changed.validate = true;  // output-shaping: changes terminal outcomes
  std::span<const NameSet> projectors(&XmarkProjector(), 1);
  ResumePlan plan = PlanResume(
      dir,
      ComputeCorpusBinding(corpus, projectors, changed,
                           "xmark-dashboard-merged"),
      false);
  EXPECT_FALSE(plan.resumable);
  EXPECT_FALSE(plan.mismatch.empty());

  // The pipeline refuses a non-resumable plan outright.
  PipelineOptions resume_options = options;
  resume_options.resume = &plan;
  auto result =
      PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), resume_options);
  EXPECT_FALSE(result.ok());
}

// --- Graceful drain -----------------------------------------------------

TEST(DrainTest, StopBeforeRunDrainsEverythingWithNoTerminalOutcome) {
  std::vector<std::string> corpus = SmallCorpus(3);
  std::string dir = ScratchDir();
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 1;
  RunCheckpoint checkpoint;
  ASSERT_TRUE(checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
  std::atomic<bool> stop{true};
  MetricsRegistry registry;
  options.checkpoint = &checkpoint;
  options.stop = &stop;
  options.metrics = &registry;
  auto result = PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->summary.drained, corpus.size());
  EXPECT_EQ(result->summary.tasks, 0u);
  EXPECT_TRUE(result->failures.empty());
  EXPECT_EQ(checkpoint.appends(), 0u)
      << "drained tasks must not be checkpointed";
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_drained_total")->Value(),
            corpus.size());
}

// The claim loop drains the same way on one worker (the calling thread)
// and on two: a task claimed after the stop returns without running.
TEST(DrainTest, MidRunStopFinishesInFlightAndDrainsTheRest) {
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<std::string> corpus = SmallCorpus(6);
    std::string dir = ScratchDir();
    PipelineOptions options;
    options.policy = ErrorPolicy::kIsolate;
    options.num_threads = threads;
    // Slow every task down so the stop lands mid-corpus.
    FaultInjector fault;
    ASSERT_TRUE(fault.ArmFromSpec("pipeline.task:delay:1:-1:60").ok());
    options.fault = &fault;
    RunCheckpoint checkpoint;
    ASSERT_TRUE(checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
    options.checkpoint = &checkpoint;
    std::atomic<bool> stop{false};
    options.stop = &stop;
    std::thread flipper([&stop] {
      std::this_thread::sleep_for(std::chrono::milliseconds(90));
      stop.store(true, std::memory_order_relaxed);
    });
    auto result = PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), options);
    flipper.join();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const PipelineSummary& s = result->summary;
    EXPECT_GT(s.drained, 0u) << "stop landed too late to drain anything";
    EXPECT_EQ(s.tasks + s.drained + s.failed, corpus.size());
    // Every completed task was checkpointed; drained ones were not.
    EXPECT_EQ(checkpoint.appends(), s.tasks);

    // The drained remainder resumes to the full corpus.
    PipelineRun reference = ReferenceRun(corpus, PipelineOptions{});
    std::span<const NameSet> projectors(&XmarkProjector(), 1);
    PipelineOptions clean;
    clean.policy = ErrorPolicy::kIsolate;
    clean.num_threads = threads;
    ResumePlan plan = PlanResume(
        dir,
        ComputeCorpusBinding(corpus, projectors, clean,
                             "xmark-dashboard-merged"),
        false);
    ASSERT_TRUE(plan.resumable) << plan.mismatch;
    EXPECT_EQ(plan.skipped_completed, s.tasks);
    RunCheckpoint resumed;
    ASSERT_TRUE(resumed.OpenForAppend(dir).ok());
    clean.checkpoint = &resumed;
    clean.resume = &plan;
    auto final_run = PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), clean);
    ASSERT_TRUE(final_run.ok()) << final_run.status().ToString();
    EXPECT_EQ(final_run->summary.tasks, corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(ReadFileOrDie(RunCheckpoint::TaskOutputPath(dir, i)),
                reference.results[i].output)
          << "task " << i;
    }
  }
}

// --- Durability failpoints ----------------------------------------------

TEST(CheckpointFaultTest, CommitFailureFailsTheTaskWithCommitStage) {
  std::vector<std::string> corpus = SmallCorpus(2);
  std::string dir = ScratchDir();
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 1;
  FaultInjector fault;
  ASSERT_TRUE(fault.ArmFromSpec("pipeline.commit:unavailable:1:1").ok());
  options.fault = &fault;
  RunCheckpoint checkpoint;
  ASSERT_TRUE(checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
  options.checkpoint = &checkpoint;
  auto result = PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_EQ(result->failures[0].stage, "commit");
}

TEST(CheckpointFaultTest, AppendFailureFailsTheTaskWithCheckpointStage) {
  std::vector<std::string> corpus = SmallCorpus(2);
  std::string dir = ScratchDir();
  PipelineOptions options;
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 1;
  FaultInjector fault;
  ASSERT_TRUE(fault.ArmFromSpec("checkpoint.append:unavailable:1:1").ok());
  options.fault = &fault;
  RunCheckpoint checkpoint;
  ASSERT_TRUE(checkpoint.Create(dir, SampleHeader(corpus, options)).ok());
  options.checkpoint = &checkpoint;
  auto result = PruneCorpus(corpus, XmarkDtd(), XmarkProjector(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_EQ(result->failures[0].stage, "checkpoint");
}

}  // namespace
}  // namespace xmlproj
