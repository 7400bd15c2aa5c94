// Tests for the persistent run journal (obs/journal.h): record
// serialization round-trips, append/load against a real directory,
// crash tolerance (corrupt and truncated lines are skipped, never
// fatal), missing-file semantics, and SuggestBudgets' p99 × headroom
// auto-tuning with corpus filtering.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/journal.h"

namespace xmlproj {
namespace {

// A fresh scratch directory per test.
std::string ScratchDir() {
  char templ[] = "/tmp/xmlproj_journal_test_XXXXXX";
  const char* dir = mkdtemp(templ);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

RunRecord SampleRecord() {
  RunRecord r;
  r.run_id = "run-0123456789a-beef";
  r.corpus = "xmark-1pct";
  r.start_unix_ms = 1700000000000ull;
  r.end_unix_ms = 1700000000500ull;
  r.wall_seconds = 0.5;
  r.tasks = 64;
  r.failed = 2;
  r.degraded = 1;
  r.input_bytes = 1 << 20;
  r.output_bytes = 1 << 19;
  r.peak_memory_bytes = 123456;
  r.budget_trips = 1;
  r.resume_skipped = 40;
  r.resume_rerun = 24;
  r.quarantine = {{"budget", 1}, {"parse", 1}};
  return r;
}

void ExpectSameRecord(const RunRecord& out, const RunRecord& in) {
  EXPECT_EQ(out.run_id, in.run_id);
  EXPECT_EQ(out.corpus, in.corpus);
  EXPECT_EQ(out.start_unix_ms, in.start_unix_ms);
  EXPECT_EQ(out.end_unix_ms, in.end_unix_ms);
  EXPECT_DOUBLE_EQ(out.wall_seconds, in.wall_seconds);
  EXPECT_EQ(out.tasks, in.tasks);
  EXPECT_EQ(out.failed, in.failed);
  EXPECT_EQ(out.degraded, in.degraded);
  EXPECT_EQ(out.input_bytes, in.input_bytes);
  EXPECT_EQ(out.output_bytes, in.output_bytes);
  EXPECT_EQ(out.peak_memory_bytes, in.peak_memory_bytes);
  EXPECT_EQ(out.budget_trips, in.budget_trips);
  EXPECT_EQ(out.resume_skipped, in.resume_skipped);
  EXPECT_EQ(out.resume_rerun, in.resume_rerun);
  EXPECT_EQ(out.quarantine, in.quarantine);
}

TEST(RunRecordTest, FormatParseRoundTrip) {
  RunRecord in = SampleRecord();
  RunRecord out;
  ASSERT_TRUE(RunJournal::ParseRecord(RunJournal::FormatRecord(in), &out));
  EXPECT_EQ(out.run_id, in.run_id);
  EXPECT_EQ(out.corpus, in.corpus);
  EXPECT_EQ(out.start_unix_ms, in.start_unix_ms);
  EXPECT_EQ(out.end_unix_ms, in.end_unix_ms);
  EXPECT_DOUBLE_EQ(out.wall_seconds, in.wall_seconds);
  EXPECT_EQ(out.tasks, in.tasks);
  EXPECT_EQ(out.failed, in.failed);
  EXPECT_EQ(out.degraded, in.degraded);
  EXPECT_EQ(out.input_bytes, in.input_bytes);
  EXPECT_EQ(out.output_bytes, in.output_bytes);
  EXPECT_EQ(out.peak_memory_bytes, in.peak_memory_bytes);
  EXPECT_EQ(out.budget_trips, in.budget_trips);
  EXPECT_EQ(out.resume_skipped, in.resume_skipped);
  EXPECT_EQ(out.resume_rerun, in.resume_rerun);
  ASSERT_EQ(out.quarantine.size(), 2u);
  EXPECT_EQ(out.quarantine[0].first, "budget");
  EXPECT_EQ(out.quarantine[0].second, 1u);
  EXPECT_EQ(out.quarantine[1].first, "parse");
}

TEST(RunRecordTest, CorpusWithJsonSpecialsRoundTrips) {
  RunRecord in = SampleRecord();
  in.corpus = "with \"quotes\" and \\slashes\\ and\nnewline";
  for (int c = 0; c < 0x20; ++c) in.corpus.push_back(static_cast<char>(c));
  in.corpus += "\x7f \xe2\x82\xac";  // DEL and a 3-byte UTF-8 character
  RunRecord out;
  ASSERT_TRUE(RunJournal::ParseRecord(RunJournal::FormatRecord(in), &out));
  EXPECT_EQ(out.corpus, in.corpus);
}

TEST(RunRecordTest, ParseRejectsGarbage) {
  RunRecord out;
  EXPECT_FALSE(RunJournal::ParseRecord("", &out));
  EXPECT_FALSE(RunJournal::ParseRecord("not json at all", &out));
  EXPECT_FALSE(RunJournal::ParseRecord("{\"tasks\":5}", &out));  // no run_id
  EXPECT_FALSE(RunJournal::ParseRecord("{\"run_id\":\"x\",\"tasks\":", &out));
  // Integers are exact uint64: no fractions, no overflow.
  EXPECT_FALSE(
      RunJournal::ParseRecord("{\"run_id\":\"x\",\"tasks\":1.5}", &out));
  EXPECT_FALSE(RunJournal::ParseRecord(
      "{\"run_id\":\"x\",\"tasks\":18446744073709551616}", &out));
}

TEST(RunRecordTest, IntegersRoundTripExactly) {
  RunRecord in = SampleRecord();
  in.input_bytes = std::numeric_limits<uint64_t>::max();
  in.peak_memory_bytes = (uint64_t{1} << 53) + 1;  // not a double
  RunRecord out;
  ASSERT_TRUE(RunJournal::ParseRecord(RunJournal::FormatRecord(in), &out));
  EXPECT_EQ(out.input_bytes, in.input_bytes);
  EXPECT_EQ(out.peak_memory_bytes, in.peak_memory_bytes);
}

// One record exactly as earlier builds wrote it (less the retry count,
// which the retry policy added): the writer must keep producing these
// bytes, and the reader must keep loading them, so --auto-budget and
// breaker seeding survive an upgrade.
constexpr char kGoldenRecord[] =
    R"({"run_id":"run-0123456789a-beef","corpus":"xmark \"1%\"\t\\\u0001",)"
    R"("start_unix_ms":1700000000000,"end_unix_ms":1700000000500,)"
    R"("wall_seconds":0.500000,"tasks":64,"failed":2,"degraded":1,)"
    R"("input_bytes":1048576,"output_bytes":524288,)"
    R"("peak_memory_bytes":123456,"budget_trips":1,"resume_skipped":40,)"
    R"("resume_rerun":24,"quarantine":{"budget":1,"parse":1}})";

TEST(RunRecordTest, FormatMatchesGoldenLineAndParsesBack) {
  RunRecord in = SampleRecord();
  in.corpus = "xmark \"1%\"\t\\\x01";
  EXPECT_EQ(RunJournal::FormatRecord(in), kGoldenRecord);
  RunRecord out;
  ASSERT_TRUE(RunJournal::ParseRecord(kGoldenRecord, &out));
  ExpectSameRecord(out, in);
}

// Builds that had a retry policy also wrote a retry count. Such a line
// still loads; the key is skipped, and rewriting the record drops it.
TEST(RunRecordTest, RecordWithRetriesStillLoads) {
  constexpr char kWithRetries[] =
      R"({"run_id":"run-0123456789a-beef",)"
      R"("corpus":"xmark \"1%\"\t\\\u0001",)"
      R"("start_unix_ms":1700000000000,"end_unix_ms":1700000000500,)"
      R"("wall_seconds":0.500000,"tasks":64,"failed":2,"degraded":1,)"
      R"("retries":3,"input_bytes":1048576,"output_bytes":524288,)"
      R"("peak_memory_bytes":123456,"budget_trips":1,"resume_skipped":40,)"
      R"("resume_rerun":24,"quarantine":{"budget":1,"parse":1}})";
  RunRecord in = SampleRecord();
  in.corpus = "xmark \"1%\"\t\\\x01";
  RunRecord out;
  ASSERT_TRUE(RunJournal::ParseRecord(kWithRetries, &out));
  ExpectSameRecord(out, in);
  EXPECT_EQ(RunJournal::FormatRecord(out), kGoldenRecord);
}

TEST(RunRecordTest, ParseToleratesUnknownScalarKeys) {
  // Forward compatibility: a newer writer may add scalar fields.
  RunRecord out;
  ASSERT_TRUE(RunJournal::ParseRecord(
      "{\"run_id\":\"r1\",\"tasks\":4,\"future_field\":7,"
      "\"future_name\":\"x\"}",
      &out));
  EXPECT_EQ(out.run_id, "r1");
  EXPECT_EQ(out.tasks, 4u);
}

TEST(RunJournalTest, AppendThenLoadRoundTrips) {
  std::string dir = ScratchDir();
  ASSERT_FALSE(dir.empty());
  std::string error;
  {
    RunJournal journal;
    ASSERT_TRUE(journal.Open(dir, &error)) << error;
    RunRecord first = SampleRecord();
    RunRecord second = SampleRecord();
    second.run_id = "run-0123456789b-cafe";
    second.peak_memory_bytes = 999;
    ASSERT_TRUE(journal.Append(first, &error)) << error;
    ASSERT_TRUE(journal.Append(second, &error)) << error;
  }
  std::vector<RunRecord> records;
  size_t skipped = 1234;
  ASSERT_TRUE(RunJournal::Load(dir, &records, &skipped, &error)) << error;
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].run_id, "run-0123456789a-beef");
  EXPECT_EQ(records[1].run_id, "run-0123456789b-cafe");
  EXPECT_EQ(records[1].peak_memory_bytes, 999u);
}

TEST(RunJournalTest, FsyncModeAppendsAndLoadsIdentically) {
  std::string dir = ScratchDir();
  ASSERT_FALSE(dir.empty());
  std::string error;
  {
    RunJournal journal;
    journal.set_fsync(true);  // checkpoint-bearing runs harden appends
    ASSERT_TRUE(journal.Open(dir, &error)) << error;
    ASSERT_TRUE(journal.Append(SampleRecord(), &error)) << error;
  }
  std::vector<RunRecord> records;
  ASSERT_TRUE(RunJournal::Load(dir, &records, nullptr, &error)) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].resume_skipped, 40u);
  EXPECT_EQ(records[0].resume_rerun, 24u);
}

TEST(RunJournalTest, OpenCreatesTheDirectory) {
  std::string dir = ScratchDir() + "/nested";
  RunJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(dir, &error)) << error;
  EXPECT_EQ(journal.path(), RunJournal::PathFor(dir));
}

TEST(RunJournalTest, MissingFileLoadsZeroRecords) {
  std::string dir = ScratchDir();
  std::vector<RunRecord> records;
  size_t skipped = 99;
  std::string error;
  ASSERT_TRUE(RunJournal::Load(dir, &records, &skipped, &error)) << error;
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(skipped, 0u);
}

TEST(RunJournalTest, CorruptLinesAreSkippedNotFatal) {
  std::string dir = ScratchDir();
  std::string path = RunJournal::PathFor(dir);
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::string good = RunJournal::FormatRecord(SampleRecord());
  std::fprintf(f, "%s\n", good.c_str());
  std::fprintf(f, "garbage that is not json\n");
  std::fprintf(f, "{\"run_id\":\"trunc\",\"task");  // crash mid-append
  std::fclose(f);

  std::vector<RunRecord> records;
  size_t skipped = 0;
  std::string error;
  ASSERT_TRUE(RunJournal::Load(dir, &records, &skipped, &error)) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].run_id, "run-0123456789a-beef");
  EXPECT_EQ(skipped, 2u);
}

TEST(RunJournalTest, UnterminatedButCompleteFinalLineStillLoads) {
  // A crash between fwrite and the newline flush can leave a complete
  // JSON document with no trailing '\n'; that record is recoverable.
  std::string dir = ScratchDir();
  std::FILE* f = std::fopen(RunJournal::PathFor(dir).c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::string good = RunJournal::FormatRecord(SampleRecord());
  std::fwrite(good.data(), 1, good.size(), f);  // no newline
  std::fclose(f);

  std::vector<RunRecord> records;
  size_t skipped = 0;
  std::string error;
  ASSERT_TRUE(RunJournal::Load(dir, &records, &skipped, &error)) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(skipped, 0u);
}

TEST(GenerateRunIdTest, NonEmptyAndPrefixed) {
  std::string id = GenerateRunId();
  EXPECT_EQ(id.compare(0, 4, "run-"), 0) << id;
  EXPECT_GT(id.size(), 8u);
}

RunRecord PeakRecord(uint64_t peak, const std::string& corpus = "c") {
  RunRecord r;
  r.run_id = "run-x";
  r.corpus = corpus;
  r.peak_memory_bytes = peak;
  return r;
}

TEST(SuggestBudgetsTest, EmptyHistoryMeansNoSuggestion) {
  BudgetSuggestion s = SuggestBudgets({});
  EXPECT_EQ(s.runs, 0u);
  EXPECT_EQ(s.suggested_max_bytes, 0u);
}

TEST(SuggestBudgetsTest, ZeroPeaksAreNotSamples) {
  // Unmetered runs (peak 0) carry no budget information.
  std::vector<RunRecord> records = {PeakRecord(0), PeakRecord(0)};
  BudgetSuggestion s = SuggestBudgets(records);
  EXPECT_EQ(s.runs, 0u);
  EXPECT_EQ(s.suggested_max_bytes, 0u);
}

TEST(SuggestBudgetsTest, SingleRunP99IsThatPeak) {
  std::vector<RunRecord> records = {PeakRecord(1000)};
  BudgetSuggestion s = SuggestBudgets(records, {}, 1.5);
  EXPECT_EQ(s.runs, 1u);
  EXPECT_EQ(s.p99_peak_bytes, 1000u);
  EXPECT_EQ(s.suggested_max_bytes, 1500u);
}

TEST(SuggestBudgetsTest, P99IgnoresTheTopOutlierAtScale) {
  // 200 samples: 199 at 1000, one at 10^9. Rank ceil(0.99*200)=198 → the
  // outlier (rank 200) is above the p99.
  std::vector<RunRecord> records;
  for (int i = 0; i < 199; ++i) records.push_back(PeakRecord(1000));
  records.push_back(PeakRecord(1000000000));
  BudgetSuggestion s = SuggestBudgets(records, {}, 1.0);
  EXPECT_EQ(s.runs, 200u);
  EXPECT_EQ(s.p99_peak_bytes, 1000u);
  EXPECT_EQ(s.suggested_max_bytes, 1000u);
}

TEST(SuggestBudgetsTest, CorpusFilterKeepsBudgetsCorpusShaped) {
  std::vector<RunRecord> records = {PeakRecord(100, "tiny"),
                                    PeakRecord(1000000, "huge")};
  BudgetSuggestion tiny = SuggestBudgets(records, "tiny", 1.0);
  EXPECT_EQ(tiny.runs, 1u);
  EXPECT_EQ(tiny.suggested_max_bytes, 100u);
  BudgetSuggestion huge = SuggestBudgets(records, "huge", 1.0);
  EXPECT_EQ(huge.suggested_max_bytes, 1000000u);
  BudgetSuggestion none = SuggestBudgets(records, "unseen", 1.0);
  EXPECT_EQ(none.runs, 0u);
}

TEST(SuggestBudgetsTest, HugePeaksSaturateInsteadOfMeaningNoCap) {
  // p99 × headroom past 2^64 must not wrap to 0, which means "no cap".
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<RunRecord> records = {PeakRecord(15000000000000000000ull)};
  EXPECT_EQ(SuggestBudgets(records, {}, 1.5).suggested_max_bytes, kMax);
  records = {PeakRecord(kMax)};
  EXPECT_EQ(SuggestBudgets(records, {}, 1.0).suggested_max_bytes, kMax);
}

TEST(SuggestBudgetsTest, HeadroomClampsToAtLeastOne) {
  // headroom < 1 would suggest a cap below the observed peak — clamped.
  std::vector<RunRecord> records = {PeakRecord(1000)};
  BudgetSuggestion s = SuggestBudgets(records, {}, 0.25);
  EXPECT_GE(s.suggested_max_bytes, 1000u);
}

}  // namespace
}  // namespace xmlproj
