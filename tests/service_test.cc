// Tests for the projection service daemon (service/service.h) and its
// client library (service/client.h): byte parity with the batch pipeline
// for every XMark dashboard workload (merged and per-query, validate on
// and off), projector-cache hit/miss/eviction accounting, circuit-breaker
// admission (503 + Retry-After with /healthz agreeing), error mapping,
// GET /workloads content, journal batch flushing, and concurrent prunes
// over distinct workloads (the TSan target).

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/circuit.h"
#include "common/http/http.h"
#include "obs/journal.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "projection/pipeline.h"
#include "service/client.h"
#include "service/service.h"
#include "xmark/corpus.h"
#include "xmark/queries.h"
#include "xmark/xmark_dtd.h"

namespace xmlproj {
namespace {

// The dashboard workload as a POST /workloads spec.
std::string SpecFor(const std::vector<BenchmarkQuery>& queries) {
  std::string spec;
  for (const BenchmarkQuery& query : queries) {
    spec += query.id;
    spec += '\t';
    spec += query.language == QueryLanguage::kXQuery ? "xquery" : "xpath";
    spec += '\t';
    spec += query.text;
    spec += '\n';
  }
  return spec;
}

class ServiceTest : public ::testing::Test {
 protected:
  void StartService(ProjectionServiceOptions options = {}) {
    options.metrics = &metrics_;
    std::string error;
    ASSERT_TRUE(service_.RegisterDtd("xmark", XMarkDtdText(), "site", &error))
        << error;
    ASSERT_TRUE(service_.Start(options, &error)) << error;
    client_options_.port = service_.port();
  }

  ProjectionClient Client() { return ProjectionClient(client_options_); }

  MetricsRegistry metrics_;
  ProjectionService service_;
  ProjectionClientOptions client_options_;
};

TEST_F(ServiceTest, PruneMatchesBatchPipelineForEveryWorkload) {
  StartService();
  ProjectionClient client = Client();

  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 2;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto dtd = LoadXMarkDtd();
  ASSERT_TRUE(dtd.ok());

  // The merged dashboard workload plus each query as its own workload:
  // five workloads, every one checked for byte parity against the batch
  // pipeline, with validation both off and on.
  std::vector<std::vector<BenchmarkQuery>> workloads;
  workloads.push_back(XMarkDashboardWorkload());
  for (const BenchmarkQuery& query : XMarkDashboardWorkload()) {
    workloads.push_back({query});
  }

  for (const auto& workload : workloads) {
    auto registration = client.RegisterWorkload(SpecFor(workload));
    ASSERT_TRUE(registration.ok()) << registration.status().ToString();

    auto projector = WorkloadProjector(*dtd, workload);
    ASSERT_TRUE(projector.ok());
    for (bool validate : {false, true}) {
      PipelineOptions batch_options;
      batch_options.validate = validate;
      auto batch = PruneCorpus(corpus, *dtd, *projector, batch_options);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();

      for (size_t i = 0; i < corpus.size(); ++i) {
        PruneRequestOptions prune_options;
        prune_options.validate = validate;
        auto outcome =
            client.Prune(registration->id, corpus[i], prune_options);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_EQ(outcome->output, batch->results[i].output)
            << "workload " << workload[0].id << " doc " << i
            << " validate=" << validate;
      }
    }
  }
}

TEST_F(ServiceTest, RepeatedPruneIsServedFromProjectorCache) {
  StartService();
  ProjectionClient client = Client();

  auto registration = client.RegisterWorkload(
      SpecFor({XMarkDashboardWorkload()[1]}));  // "sellers", XPath
  ASSERT_TRUE(registration.ok());
  EXPECT_FALSE(registration->cache_hit);  // first sight compiles

  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  std::string doc = GenerateXMarkCorpus(corpus_options)[0];

  for (int i = 0; i < 3; ++i) {
    auto outcome = client.Prune(registration->id, doc);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->cache_hit);  // registration populated the cache
  }

  // Registration missed once; every prune hit.
  EXPECT_EQ(service_.cache()->misses(), 1u);
  EXPECT_EQ(service_.cache()->hits(), 3u);
  EXPECT_EQ(service_.cache()->evictions(), 0u);
  EXPECT_EQ(metrics_.GetCounter("xmlproj_projector_cache_hits_total")->Value(),
            3u);
  EXPECT_EQ(
      metrics_.GetCounter("xmlproj_projector_cache_misses_total")->Value(),
      1u);

  // Re-registering the identical workload is an idempotent cache hit.
  auto again = client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->id, registration->id);
  EXPECT_TRUE(again->cache_hit);

  std::vector<WorkloadInfo> infos = service_.ListWorkloads();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].prunes, 3u);
  EXPECT_EQ(infos[0].cache_hits, 3u);
  EXPECT_EQ(infos[0].failures, 0u);
}

TEST_F(ServiceTest, LruEvictionForcesRecompileAndCounts) {
  ProjectionServiceOptions options;
  options.limits.projector_cache_capacity = 1;
  StartService(options);
  ProjectionClient client = Client();

  auto first = client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(first.ok());
  // Second registration evicts the first projector (capacity 1).
  auto second =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[3]}));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service_.cache()->evictions(), 1u);

  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  std::string doc = GenerateXMarkCorpus(corpus_options)[0];

  // Pruning the evicted workload recompiles (miss), and the result is
  // still correct — eviction affects latency, never bytes.
  auto outcome = client.Prune(first->id, doc);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->cache_hit);
  EXPECT_GE(service_.cache()->evictions(), 2u);  // recompile evicted #2

  auto dtd = LoadXMarkDtd();
  ASSERT_TRUE(dtd.ok());
  std::vector<BenchmarkQuery> sellers{XMarkDashboardWorkload()[1]};
  auto projector = WorkloadProjector(*dtd, sellers);
  ASSERT_TRUE(projector.ok());
  auto batch = PruneDocument(doc, *dtd, *projector);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(outcome->output, batch->results[0].output);
}

TEST_F(ServiceTest, OpenBreakerFastFails503AndHealthzAgrees) {
  CircuitBreakerOptions breaker_options;
  breaker_options.window = 8;
  breaker_options.min_samples = 4;
  breaker_options.cooldown_ms = 60000;  // stays open for the whole test
  CircuitBreaker breaker(breaker_options);
  ProjectionServiceOptions options;
  options.breaker = &breaker;
  StartService(options);
  ProjectionClient client = Client();

  auto registration =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(registration.ok());

  // Seed an all-failure history: the breaker opens deterministically.
  breaker.Seed(0, 8);
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);

  // /prune fast-fails with 503 + Retry-After, before any parsing.
  HttpClientResult raw;
  ASSERT_TRUE(HttpCall(service_.port(), "POST",
                       "/prune?workload=" + registration->id, "<site/>",
                       "application/xml", &raw));
  EXPECT_EQ(raw.status, 503);
  EXPECT_FALSE(raw.Header("retry-after").empty());

  // The client library maps it onto kUnavailable.
  auto outcome = client.Prune(registration->id, "<site/>");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);

  // /healthz — same process, same breaker — reports open with 503.
  ASSERT_TRUE(HttpCall(service_.port(), "GET", "/healthz", {}, {}, &raw));
  EXPECT_EQ(raw.status, 503);
  EXPECT_NE(raw.body.find("\"circuit\":\"open\""), std::string::npos)
      << raw.body;
}

TEST_F(ServiceTest, ErrorPathsMapOntoHttpStatuses) {
  StartService();
  ProjectionClient client = Client();

  // Unknown workload → 404 / kNotFound.
  auto missing = client.Prune("w-doesnotexist", "<site/>");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Missing ?workload= → 400.
  HttpClientResult raw;
  ASSERT_TRUE(HttpCall(service_.port(), "POST", "/prune", "<site/>",
                       "application/xml", &raw));
  EXPECT_EQ(raw.status, 400);

  // Bad workload spec → 400; unknown language too.
  auto bad_spec = client.RegisterWorkload("one\ttwo\tthree\tfour\n");
  EXPECT_EQ(bad_spec.status().code(), StatusCode::kInvalid);
  auto bad_lang = client.RegisterWorkload("sql\tSELECT 1\n");
  EXPECT_EQ(bad_lang.status().code(), StatusCode::kInvalid);

  // A spec that parses but fails query analysis → 422.
  auto bad_query = client.RegisterWorkload("xpath\t/site/\n");
  EXPECT_FALSE(bad_query.ok());

  // Unknown DTD → 404.
  auto bad_dtd =
      client.RegisterWorkload("xpath\t/site/regions\n", "unknown-dtd");
  EXPECT_EQ(bad_dtd.status().code(), StatusCode::kNotFound);

  auto registration =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(registration.ok());

  // Malformed document → 400 / parse error.
  auto malformed = client.Prune(registration->id, "<site><open");
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalid);

  // A byte budget the document cannot fit → 413 / kResourceExhausted.
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  std::string doc = GenerateXMarkCorpus(corpus_options)[0];
  PruneRequestOptions tiny;
  tiny.max_bytes = 64;
  auto over_budget = client.Prune(registration->id, doc, tiny);
  ASSERT_FALSE(over_budget.ok());
  EXPECT_EQ(over_budget.status().code(), StatusCode::kResourceExhausted);

  // Failures are visible in the workload stats.
  std::vector<WorkloadInfo> infos = service_.ListWorkloads();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].failures, 2u);
  EXPECT_EQ(infos[0].prunes, 0u);
}

TEST_F(ServiceTest, HostileBudgetParamsAre400AndLeaveTheBreakerClosed) {
  CircuitBreakerOptions breaker_options;
  breaker_options.window = 8;
  breaker_options.min_samples = 4;
  breaker_options.cooldown_ms = 60000;
  CircuitBreaker breaker(breaker_options);
  ProjectionServiceOptions options;
  options.breaker = &breaker;
  StartService(options);
  ProjectionClient client = Client();

  auto registration =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(registration.ok());
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  std::string doc = GenerateXMarkCorpus(corpus_options)[0];
  const std::string target = "/prune?workload=" + registration->id;

  // Budget params are digits only: a sign, a space or an overflow is the
  // client's mistake (400), never a server-side deadline blowout that
  // counts against the breaker.
  std::vector<std::string> hostile(8, "&deadline_ms=-1");
  hostile.push_back("&deadline_ms=%2010");                  // " 10"
  hostile.push_back("&max_bytes=%2B5");                     // "+5"
  hostile.push_back("&deadline_ms=99999999999999999999");  // > UINT64_MAX
  for (const std::string& query : hostile) {
    HttpClientResult raw;
    ASSERT_TRUE(HttpCall(service_.port(), "POST", target + query, doc,
                         "application/xml", &raw));
    EXPECT_EQ(raw.status, 400) << query << ": " << raw.body;
  }
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);

  HttpClientResult honest;
  ASSERT_TRUE(HttpCall(service_.port(), "POST", target, doc,
                       "application/xml", &honest));
  EXPECT_EQ(honest.status, 200) << honest.body;
}

TEST_F(ServiceTest, JournalStagesMatchThePipelineMapping) {
  std::string dir = ::testing::TempDir() + "/service_stage_journal_test";
  std::remove(RunJournal::PathFor(dir).c_str());  // stale prior-run journal
  ProjectionServiceOptions options;
  options.journal_dir = dir;
  options.limits.journal_batch = 1;
  StartService(options);
  ProjectionClient client = Client();

  auto registration =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(registration.ok());
  // Well-formed but off-grammar: <bogus> is not declared in the XMark
  // DTD. Without validation the pruner rejects it; with validation the
  // validator does — the same attribution as the batch pipeline's
  // TaskFailure::stage (StageForStatus).
  const std::string doc = "<site><bogus/></site>";
  PruneRequestOptions validating;
  validating.validate = true;
  ASSERT_FALSE(client.Prune(registration->id, doc).ok());
  ASSERT_FALSE(client.Prune(registration->id, doc, validating).ok());

  std::vector<RunRecord> records;
  std::string error;
  ASSERT_TRUE(RunJournal::Load(dir, &records, nullptr, &error)) << error;
  ASSERT_EQ(records.size(), 2u);
  using Digest = std::vector<std::pair<std::string, uint64_t>>;
  EXPECT_EQ(records[0].quarantine, (Digest{{"prune", 1}}));
  EXPECT_EQ(records[1].quarantine, (Digest{{"validate", 1}}));
}

TEST_F(ServiceTest, ErrorMessageControlBytesSurviveTheClient) {
  StartService();
  ProjectionClient client = Client();
  // `a%0Ab` decodes to "a\nb" on the server; the error body escapes the
  // newline and the client must decode it back, not drop the backslash.
  auto missing = client.Prune("a%0Ab", "<site/>");
  ASSERT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("unknown workload 'a\nb'"),
            std::string::npos)
      << missing.status().message();
}

TEST(ExtractJsonFieldTest, DecodesStringEscapes) {
  std::string value;
  ASSERT_TRUE(
      ExtractJsonStringField(R"({"error":"a\u000ab\tc"})", "error", &value));
  EXPECT_EQ(value, "a\nb\tc");
}

TEST_F(ServiceTest, ListWorkloadsReportsStatsAndCache) {
  StartService();
  ProjectionClient client = Client();
  auto registration =
      client.RegisterWorkload(SpecFor(XMarkDashboardWorkload()));
  ASSERT_TRUE(registration.ok());

  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  std::string doc = GenerateXMarkCorpus(corpus_options)[0];
  ASSERT_TRUE(client.Prune(registration->id, doc).ok());

  auto listing = client.ListWorkloads();
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("\"id\":\"" + registration->id + "\""),
            std::string::npos)
      << *listing;
  EXPECT_NE(listing->find("\"prunes\":1"), std::string::npos);
  EXPECT_NE(listing->find("\"queries\":4"), std::string::npos);
  EXPECT_NE(listing->find("\"cache\":{"), std::string::npos);
  uint64_t hits = 0;
  EXPECT_TRUE(ExtractJsonU64Field(*listing, "hits", &hits));
  EXPECT_EQ(hits, 1u);
}

TEST_F(ServiceTest, JournalBatchesFlushAtSizeAndOnStop) {
  std::string dir = ::testing::TempDir() + "/service_journal_test";
  std::remove(RunJournal::PathFor(dir).c_str());  // stale prior-run journal
  ProjectionServiceOptions options;
  options.journal_dir = dir;
  options.limits.journal_batch = 2;
  StartService(options);
  ProjectionClient client = Client();

  auto registration =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(registration.ok());
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  std::string doc = GenerateXMarkCorpus(corpus_options)[0];

  // Two prunes fill one batch → one record; the third stays pending
  // until Stop flushes it.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Prune(registration->id, doc).ok());
  }
  std::vector<RunRecord> records;
  std::string error;
  ASSERT_TRUE(RunJournal::Load(dir, &records, nullptr, &error)) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].corpus, registration->id);
  EXPECT_EQ(records[0].tasks, 2u);
  EXPECT_GT(records[0].input_bytes, 0u);
  EXPECT_GT(records[0].peak_memory_bytes, 0u);

  service_.Stop();
  records.clear();
  ASSERT_TRUE(RunJournal::Load(dir, &records, nullptr, &error)) << error;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].tasks, 1u);
}

TEST_F(ServiceTest, ConcurrentPruneDistinctWorkloads) {
  ProjectionServiceOptions options;
  options.limits.worker_threads = 4;
  StartService(options);
  ProjectionClient client = Client();

  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  std::string doc = GenerateXMarkCorpus(corpus_options)[0];
  auto dtd = LoadXMarkDtd();
  ASSERT_TRUE(dtd.ok());

  // One workload per dashboard query, each with its own expected bytes.
  struct Lane {
    std::string workload_id;
    std::string expected;
  };
  std::vector<Lane> lanes;
  for (const BenchmarkQuery& query : XMarkDashboardWorkload()) {
    auto registration = client.RegisterWorkload(SpecFor({query}));
    ASSERT_TRUE(registration.ok());
    std::vector<BenchmarkQuery> one{query};
    auto projector = WorkloadProjector(*dtd, one);
    ASSERT_TRUE(projector.ok());
    auto batch = PruneDocument(doc, *dtd, *projector);
    ASSERT_TRUE(batch.ok());
    lanes.push_back({registration->id, batch->results[0].output});
  }

  // Concurrent parity: every lane prunes the same source document and
  // must get its own workload's bytes back.
  constexpr int kPrunesPerLane = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (const Lane& lane : lanes) {
    threads.emplace_back([this, &doc, &lane, &mismatches, &failures] {
      ProjectionClient worker(client_options_);
      for (int i = 0; i < kPrunesPerLane; ++i) {
        auto outcome = worker.Prune(lane.workload_id, doc);
        if (!outcome.ok()) {
          failures.fetch_add(1);
        } else if (outcome->output != lane.expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Cache accounting adds up: 4 registration misses, and every service
  // prune was a hit (registration pinned all four in the cache).
  EXPECT_EQ(service_.cache()->misses(), 4u);
  EXPECT_GE(service_.cache()->hits(),
            static_cast<uint64_t>(lanes.size() * kPrunesPerLane));
}

// The acceptance path for request-scoped observability: a client
// traceparent on POST /prune yields a request span parenting the
// pipeline's prune span, retrievable via /tracez?trace_id=, present in
// the OTLP export, and joinable by trace id to an access-log line —
// with the RED series, the /statusz SLO block, and unknown-workload
// label folding along for the ride.
TEST_F(ServiceTest, TraceparentJoinsSpansExportLogsAndSlo) {
  char tmpl[] = "/tmp/xmlproj_svc_obs_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  std::string dir = tmpl;
  std::string log_path = dir + "/svc.log";

  TraceCollector trace;
  StructuredLogger logger;
  std::string error;
  ASSERT_TRUE(logger.Open(log_path, &error)) << error;
  SloTracker slo;

  ProjectionServiceOptions options;
  options.trace = &trace;
  options.logger = &logger;
  options.slo = &slo;
  StartService(options);
  ProjectionClient client = Client();

  auto registration =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(registration.ok()) << registration.status().ToString();

  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  std::string doc = GenerateXMarkCorpus(corpus_options)[0];

  constexpr char kTraceId[] = "4bf92f3577b34da6a3ce929d0e0e4736";
  PruneRequestOptions prune_options;
  prune_options.traceparent =
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
  auto outcome = client.Prune(registration->id, doc, prune_options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->trace_id, kTraceId);
  EXPECT_FALSE(outcome->request_id.empty());

  // An unknown workload 404s — and must fold to workload="other" in the
  // label set rather than minting a per-probe series.
  auto missing = client.Prune("w-nope", doc, prune_options);
  EXPECT_FALSE(missing.ok());

  // /tracez filtered by the trace id: the request span plus the one
  // prune span it parents, all stamped with the workload.
  auto tracez = client.Get(std::string("/tracez?trace_id=") + kTraceId);
  ASSERT_TRUE(tracez.ok()) << tracez.status().ToString();
  EXPECT_NE(tracez->find("\"name\":\"POST /prune\""), std::string::npos)
      << *tracez;
  EXPECT_NE(tracez->find("\"name\":\"prune\""), std::string::npos);
  EXPECT_EQ(tracez->find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(tracez->find("\"workload\":\"" + registration->id + "\""),
            std::string::npos);
  // Stage spans parent under *some* span of this trace; the request
  // span's own id came back to the client in the response traceparent.
  EXPECT_NE(tracez->find("\"parent_id\":"), std::string::npos);
  // A trace id that never happened filters down to nothing.
  auto empty = client.Get(
      "/tracez?trace_id=ffffffffffffffffffffffffffffffff");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->find("\"name\":"), std::string::npos);

  // The OTLP export carries the same trace.
  size_t cursor = 0;
  std::string otlp;
  ASSERT_TRUE(trace.AppendOtlpSpansJson(&cursor, &otlp));
  EXPECT_NE(otlp.find("\"resourceSpans\""), std::string::npos);
  EXPECT_NE(otlp.find(std::string("\"traceId\":\"") + kTraceId + "\""),
            std::string::npos);

  // The RED series and the SLO plane saw the prunes.
  auto metrics_json = client.Get("/metrics.json");
  ASSERT_TRUE(metrics_json.ok());
  EXPECT_NE(metrics_json->find("xmlproj_request_duration_seconds{"),
            std::string::npos);
  EXPECT_NE(metrics_json->find("workload=\\\"" + registration->id + "\\\""),
            std::string::npos);
  EXPECT_NE(metrics_json->find(
                "code=\\\"404\\\",route=\\\"/prune\\\",workload=\\\"other\\\""),
            std::string::npos)
      << *metrics_json;

  auto statusz = client.Get("/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_NE(statusz->find("\"slo\":"), std::string::npos);
  EXPECT_NE(statusz->find("\"workload\":\"" + registration->id + "\""),
            std::string::npos);
  EXPECT_EQ(slo.Burn(registration->id, 5).requests, 1u);
  EXPECT_EQ(slo.Burn("other", 5).requests, 1u);

  // The access log joins the trace by trace_id — stop first so the
  // observer has certainly run and the line is flushed.
  service_.Stop();
  logger.Close();
  std::ifstream in(log_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string log_text = buffer.str();
  bool joined = false;
  std::istringstream lines(log_text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"event\":\"http.access\"") != std::string::npos &&
        line.find(std::string("\"trace_id\":\"") + kTraceId + "\"") !=
            std::string::npos &&
        line.find("\"path\":\"/prune\"") != std::string::npos) {
      joined = true;
      EXPECT_NE(line.find("\"status\":200"), std::string::npos);
      EXPECT_NE(line.find("\"workload\":\"" + registration->id + "\""),
                std::string::npos);
      break;
    }
  }
  EXPECT_TRUE(joined) << log_text;

  std::remove(log_path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace xmlproj
