// Tests for the parallel pruning pipeline (projection/pipeline.h).
//
// The load-bearing property: parallelism is across documents/queries, so
// the parallel output must be byte-for-byte the sequential
// StreamingPruner / ValidatingPruner output, in task order — Theorem 4.5
// soundness then carries over to the parallel deployment unchanged. Also
// covered: first-error cancellation (no deadlock, deterministic error),
// the multi-query per-projector fan-out, and input validation.

#include "projection/pipeline.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "projection/projection.h"
#include "random_xml.h"
#include "xmark/corpus.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmark/generator.h"

namespace xmlproj {
namespace {

using testing_random::DocGenerator;
using testing_random::QueryGenerator;
using testing_random::RandomDtd;

// The sequential reference: one fused StreamingPruner pass straight into
// the serializer, exactly what each pipeline worker runs.
std::string ReferencePrune(const std::string& xml_text, const Dtd& dtd,
                           const NameSet& projector) {
  std::string out;
  SerializingHandler sink(&out);
  StreamingPruner pruner(dtd, projector, &sink);
  Status status = ParseXmlStream(xml_text, &pruner);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

std::string ReferenceValidatePrune(const std::string& xml_text,
                                   const Dtd& dtd, const NameSet& projector) {
  std::string out;
  SerializingHandler sink(&out);
  ValidatingPruner pruner(dtd, projector, &sink);
  Status status = ParseXmlStream(xml_text, &pruner);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

const Dtd& XmarkDtd() {
  static const Dtd* dtd = new Dtd(std::move(LoadXMarkDtd()).value());
  return *dtd;
}

TEST(PipelineTest, ParallelMatchesSequentialOnXMarkCorpus) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 6;
  corpus_options.scale = 0.0005;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();

  PipelineOptions parallel;
  parallel.num_threads = 4;
  auto results = PruneCorpus(corpus, XmarkDtd(), *projector, parallel);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->results.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string expected = ReferencePrune(corpus[i], XmarkDtd(), *projector);
    EXPECT_EQ(results->results[i].output, expected) << "document " << i;
    EXPECT_LT(results->results[i].output.size(), corpus[i].size());
    EXPECT_GT(results->results[i].stats.kept_nodes, 0u);
  }
}

TEST(PipelineTest, ValidateModeMatchesValidatingPruner) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 4;
  corpus_options.scale = 0.0005;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();

  PipelineOptions parallel;
  parallel.num_threads = 3;
  parallel.validate = true;
  auto results = PruneCorpus(corpus, XmarkDtd(), *projector, parallel);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(results->results[i].output,
              ReferenceValidatePrune(corpus[i], XmarkDtd(), *projector))
        << "document " << i;
  }
}

// Randomized grammars × documents × query-derived projectors: the
// parallel pipeline must agree with the sequential pass on all of them.
TEST(PipelineTest, ParallelMatchesSequentialOnRandomCorpora) {
  int checked = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    std::vector<std::string> corpus;
    for (uint64_t d = 0; d < 5; ++d) {
      DocGenerator gen(dtd, seed * 100 + d);
      auto doc = gen.Generate();
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      corpus.push_back(SerializeDocument(*doc));
    }
    QueryGenerator queries(name_count, seed * 7 + 3);
    auto analysis = AnalyzeXPath(dtd, queries.Generate());
    if (!analysis.ok()) continue;  // query outside the supported fragment
    NameSet projector = analysis->projector;
    projector.Add(dtd.root());

    PipelineOptions parallel;
    parallel.num_threads = 4;
    parallel.queue_capacity = 2;  // force submission back-pressure
    auto results = PruneCorpus(corpus, dtd, projector, parallel);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->results.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(results->results[i].output,
                ReferencePrune(corpus[i], dtd, projector))
          << "seed " << seed << " document " << i;
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(PipelineTest, PerQueryFanOutMatchesPerProjectorReference) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 3;
  corpus_options.scale = 0.0005;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto projectors = WorkloadProjectors(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projectors.ok()) << projectors.status().ToString();
  const size_t queries = projectors->size();
  ASSERT_EQ(queries, XMarkDashboardWorkload().size());

  PipelineOptions parallel;
  parallel.num_threads = 4;
  auto results = PruneCorpusPerQuery(corpus, XmarkDtd(), *projectors,
                                     parallel);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->results.size(), corpus.size() * queries);
  for (size_t d = 0; d < corpus.size(); ++d) {
    for (size_t q = 0; q < queries; ++q) {
      EXPECT_EQ(results->results[d * queries + q].output,
                ReferencePrune(corpus[d], XmarkDtd(), (*projectors)[q]))
          << "document " << d << " query " << q;
    }
  }
}

TEST(PipelineTest, MalformedDocumentCancelsWithoutDeadlock) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 8;
  corpus_options.scale = 0.0002;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  corpus[3] = "<site><open_auctions>";  // never closed
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();

  PipelineOptions parallel;
  parallel.num_threads = 4;
  parallel.queue_capacity = 2;
  auto results = PruneCorpus(corpus, XmarkDtd(), *projector, parallel);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kParseError)
      << results.status().ToString();
  EXPECT_NE(results.status().message().find("pipeline task 3"),
            std::string::npos)
      << results.status().ToString();
}

TEST(PipelineTest, InvalidDocumentFailsValidateModeOnly) {
  // Well-formed XML that violates the XMark DTD (bogus root): the plain
  // pruner rejects it too (undeclared structure is an error), but the
  // validating pass reports the precise validity violation.
  std::vector<std::string> corpus = {"<site></site>", "<not_xmark/>"};
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok());
  PipelineOptions parallel;
  parallel.num_threads = 2;
  parallel.validate = true;
  auto results = PruneCorpus(corpus, XmarkDtd(), *projector, parallel);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalid)
      << results.status().ToString();
}

TEST(PipelineTest, SequentialPathAnnotatesFailingTask) {
  std::vector<std::string> corpus = {"<site></site>", "<site><bad"};
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok());
  PipelineOptions sequential;
  sequential.num_threads = 1;
  auto results = PruneCorpus(corpus, XmarkDtd(), *projector, sequential);
  ASSERT_FALSE(results.ok());
  EXPECT_NE(results.status().message().find("pipeline task 1"),
            std::string::npos)
      << results.status().ToString();
}

TEST(PipelineTest, EmptyCorpusYieldsEmptyResults) {
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok());
  auto results = PruneCorpus({}, XmarkDtd(), *projector, {});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->results.empty());
  EXPECT_EQ(results->summary.tasks, 0u);
}

TEST(PipelineTest, NullTaskPointersAreRejected) {
  PipelineTask task;  // both pointers null
  auto results =
      RunPruningPipeline(std::span<const PipelineTask>(&task, 1), XmarkDtd());
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalid);
}

TEST(PipelineTest, TotalOutputBytesSumsResults) {
  std::vector<PipelineResult> results(2);
  results[0].output = "<a/>";
  results[1].output = "<bb/>";
  EXPECT_EQ(TotalOutputBytes(results), 9u);
}

// The summary returned with the run must equal the sequential fold of the
// per-task stats — callers no longer fold themselves, so this is the
// contract that keeps corpus-level telemetry honest.
TEST(PipelineTest, SummaryEqualsSequentialFoldOfTaskStats) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 5;
  corpus_options.scale = 0.0005;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();

  PipelineOptions parallel;
  parallel.num_threads = 4;
  auto run = PruneCorpus(corpus, XmarkDtd(), *projector, parallel);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  PipelineSummary fold;
  for (size_t i = 0; i < corpus.size(); ++i) {
    fold.AddTask(corpus[i].size(), run->results[i]);
  }
  const PipelineSummary& summary = run->summary;
  EXPECT_EQ(summary.tasks, fold.tasks);
  EXPECT_EQ(summary.tasks, corpus.size());
  EXPECT_EQ(summary.input_bytes, fold.input_bytes);
  EXPECT_EQ(summary.input_bytes, CorpusBytes(corpus));
  EXPECT_EQ(summary.output_bytes, fold.output_bytes);
  EXPECT_EQ(summary.output_bytes, TotalOutputBytes(run->results));
  EXPECT_EQ(summary.input_nodes, fold.input_nodes);
  EXPECT_EQ(summary.kept_nodes, fold.kept_nodes);
  EXPECT_EQ(summary.input_text_bytes, fold.input_text_bytes);
  EXPECT_EQ(summary.kept_text_bytes, fold.kept_text_bytes);
  EXPECT_GT(summary.wall_seconds, 0.0);
  EXPECT_GT(summary.NodeRatio(), 0.0);
  EXPECT_LT(summary.NodeRatio(), 1.0);
  EXPECT_LT(summary.ByteRatio(), 1.0);

  // Same corpus sequentially: identical totals (wall time aside).
  PipelineOptions sequential;
  sequential.num_threads = 1;
  auto seq = PruneCorpus(corpus, XmarkDtd(), *projector, sequential);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq->summary.input_nodes, summary.input_nodes);
  EXPECT_EQ(seq->summary.kept_nodes, summary.kept_nodes);
  EXPECT_EQ(seq->summary.output_bytes, summary.output_bytes);
}

// With a registry attached, the pipeline counters must agree with the
// summary, and the task histogram must hold one sample per task.
TEST(PipelineTest, MetricsRegistryMatchesSummary) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 4;
  corpus_options.scale = 0.0005;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();

  MetricsRegistry registry;
  PipelineOptions parallel;
  parallel.num_threads = 3;
  parallel.metrics = &registry;
  auto run = PruneCorpus(corpus, XmarkDtd(), *projector, parallel);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const PipelineSummary& summary = run->summary;
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_tasks_total")->Value(),
            summary.tasks);
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_input_bytes_total")->Value(),
            summary.input_bytes);
  EXPECT_EQ(
      registry.GetCounter("xmlproj_pipeline_output_bytes_total")->Value(),
      summary.output_bytes);
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_input_nodes_total")->Value(),
            summary.input_nodes);
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_kept_nodes_total")->Value(),
            summary.kept_nodes);
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_errors_total")->Value(), 0u);
  EXPECT_EQ(registry.GetGauge("xmlproj_pipeline_threads")->Value(), 3);

  EXPECT_EQ(registry.GetHistogram("xmlproj_stage_task_ns")->Count(),
            summary.tasks);
  // Each task is timed once, from outside the fused pass: the only stage
  // series are the whole-task latency and the queue wait, never a
  // per-stage split.
  registry.ForEachHistogram(
      [](const std::string& name, const std::string&, const Histogram&) {
        if (name.rfind("xmlproj_stage_", 0) != 0) return;
        EXPECT_TRUE(name == "xmlproj_stage_task_ns" ||
                    name == "xmlproj_stage_queue_wait_ns")
            << name;
      });
  // Pool telemetry: every task ran on a worker, and its queue wait is
  // timed once, by the pipeline; the pool keeps no latency series.
  EXPECT_EQ(registry.GetCounter("xmlproj_pool_tasks_total")->Value(),
            summary.tasks);
  EXPECT_EQ(registry.GetHistogram("xmlproj_stage_queue_wait_ns")->Count(),
            summary.tasks);
  registry.ForEachHistogram(
      [](const std::string& name, const std::string&, const Histogram&) {
        EXPECT_NE(name.rfind("xmlproj_pool_task_", 0), 0u) << name;
      });

  // Instrumentation must not perturb the output.
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(run->results[i].output,
              ReferencePrune(corpus[i], XmarkDtd(), *projector))
        << "document " << i;
  }
}

// Tracing emits a queue-wait span and exactly one prune span per task
// (no parse or serialize split), and the chrome trace serialization is
// well-formed JSON.
TEST(PipelineTest, TraceCollectorRecordsStageSpans) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 3;
  corpus_options.scale = 0.0005;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();

  TraceCollector trace;
  PipelineOptions parallel;
  parallel.num_threads = 2;
  parallel.trace = &trace;
  auto run = PruneCorpus(corpus, XmarkDtd(), *projector, parallel);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Per task: queue-wait + prune, plus pool queue depth counter events.
  EXPECT_GE(trace.event_count(), corpus.size() * 2);
  std::string json;
  trace.AppendChromeTraceJson(&json);
  for (const char* needle :
       {"\"traceEvents\"", "\"queue-wait\"", "\"queue depth\"",
        "\"ph\":\"X\"", "\"ph\":\"C\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  size_t prune_spans = 0;
  for (size_t at = json.find("\"name\":\"prune\""); at != std::string::npos;
       at = json.find("\"name\":\"prune\"", at + 1)) {
    ++prune_spans;
  }
  EXPECT_EQ(prune_spans, corpus.size());
  EXPECT_EQ(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"serialize\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

#ifdef NDEBUG
// A caller's registry that already holds pipeline metric names under
// another kind hands back null handles in release builds (debug builds
// assert instead). The run must skip exactly those sites: no crash, the
// same bytes, and every other series still published.
TEST(PipelineTest, MetricKindConflictsDisableOnlyTheConflictingSeries) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 4;
  corpus_options.scale = 0.0005;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();

  MetricsRegistry registry;
  registry.GetCounter("xmlproj_pipeline_threads");
  registry.GetGauge("xmlproj_pipeline_input_bytes_total");
  PipelineOptions parallel;
  parallel.num_threads = 2;
  parallel.metrics = &registry;
  auto run = PruneCorpus(corpus, XmarkDtd(), *projector, parallel);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(run->results[i].output,
              ReferencePrune(corpus[i], XmarkDtd(), *projector))
        << "document " << i;
  }
  EXPECT_GE(registry.kind_conflicts(), 2u);
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_tasks_total")->Value(),
            run->summary.tasks);
}
#endif  // NDEBUG

}  // namespace
}  // namespace xmlproj
