// Tests for the projection service daemon (service/service.h) and its
// client library (service/client.h): byte parity with the batch pipeline
// for every XMark dashboard workload (merged and per-query, validate on
// and off), projector-cache hit/miss/eviction accounting, circuit-breaker
// admission (503 + Retry-After with /healthz agreeing), error mapping,
// GET /workloads content, journal batch flushing, and concurrent prunes
// over distinct workloads (the TSan target).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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

// Injectable breaker clock: CircuitBreakerOptions takes a plain function
// pointer.
uint64_t g_now_ns = 0;
uint64_t FakeNow() { return g_now_ns; }

// A malformed document is the client's defect, not the server's: it
// answers 400 and reports a breaker success, so half-open probes spent
// on garbage still resolve and a healthy request gets through.
TEST_F(ServiceTest, MalformedProbesResolveAHalfOpenBreaker) {
  g_now_ns = 1;
  CircuitBreakerOptions breaker_options;  // 3 half-open probes
  breaker_options.now_ns = &FakeNow;
  CircuitBreaker breaker(breaker_options);
  ProjectionServiceOptions options;
  options.breaker = &breaker;
  StartService(options);
  ProjectionClient client = Client();
  auto registration =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(registration.ok());
  const std::string target = "/prune?workload=" + registration->id;

  breaker.Seed(0, 8);
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);
  g_now_ns += (breaker_options.cooldown_ms + 1) * 1000000ull;

  for (int i = 0; i < 3; ++i) {
    HttpClientResult raw;
    ASSERT_TRUE(HttpCall(service_.port(), "POST", target, "<site><oops",
                         "application/xml", &raw));
    EXPECT_EQ(raw.status, 400) << raw.body;
  }
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  HttpClientResult valid;
  ASSERT_TRUE(HttpCall(service_.port(), "POST", target,
                       GenerateXMarkCorpus(corpus_options)[0],
                       "application/xml", &valid));
  EXPECT_EQ(valid.status, 200) << valid.body;
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
}

// Journal seeding reads the same stage table as the recording rule:
// input-fault quarantines seed successes, server faults seed failures,
// "circuit" fast-fails seed nothing.
TEST_F(ServiceTest, JournalSeedingCountsOnlyServerFaults) {
  std::string dir = ::testing::TempDir() + "/service_seed_journal_test";
  std::remove(RunJournal::PathFor(dir).c_str());  // stale prior-run journal
  ProjectionServiceOptions options;
  options.journal_dir = dir;
  options.limits.journal_batch = 8;
  StartService(options);
  ProjectionClient client = Client();
  auto registration =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(registration.ok());
  for (int i = 0; i < 8; ++i) {
    auto malformed = client.Prune(registration->id, "<site><oops");
    ASSERT_EQ(malformed.status().code(), StatusCode::kInvalid);
  }
  std::vector<RunRecord> records;
  std::string error;
  ASSERT_TRUE(RunJournal::Load(dir, &records, nullptr, &error)) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].failed, 8u);
  CircuitBreaker after_garbage;
  BreakerSeed seed = SeedBreakerFromJournal(records, "", &after_garbage);
  EXPECT_EQ(seed.record, &records[0]);
  EXPECT_EQ(seed.successes, 8u);
  EXPECT_EQ(seed.failures, 0u);
  EXPECT_EQ(after_garbage.state(), CircuitState::kClosed);

  // The last record whose corpus matches seeds; "" matches any record.
  std::vector<RunRecord> history(2);
  // "watchdog" is a stage only earlier builds recorded; the table lacks
  // it, so its "task" row seeds it as a server fault.
  history[0].corpus = "melting";
  history[0].failed = 12;
  history[0].quarantine = {{"deadline", 8}, {"watchdog", 4}};
  history[1].corpus = "locked-out";
  history[1].failed = 32;
  history[1].quarantine = {{"circuit", 32}};
  CircuitBreaker melting;
  seed = SeedBreakerFromJournal(history, "melting", &melting);
  EXPECT_EQ(seed.record, &history[0]);
  EXPECT_EQ(seed.failures, 12u);
  EXPECT_EQ(melting.state(), CircuitState::kOpen);
  CircuitBreaker locked_out;
  seed = SeedBreakerFromJournal(history, "", &locked_out);
  EXPECT_EQ(seed.record, &history[1]);
  EXPECT_EQ(seed.successes, 0u);
  EXPECT_EQ(seed.failures, 0u);
  EXPECT_EQ(locked_out.state(), CircuitState::kClosed);
  EXPECT_EQ(SeedBreakerFromJournal(history, "unseen", &locked_out).record,
            nullptr);
}

// Every status code a pruning pass can return keeps its POST /prune
// status and quarantine stage; kUnsupported moved from "task" to "prune"
// so that its row answers the 400 it always got.
TEST(StagePolicyTest, EveryPassStatusKeepsItsPruneStatusAndStage) {
  struct Row {
    StatusCode code;
    bool validate;
    const char* stage;
    int http_status;
    StageFault fault;
  };
  const Row rows[] = {
      {StatusCode::kParseError, false, "parse", 400, StageFault::kInput},
      {StatusCode::kInvalid, false, "prune", 400, StageFault::kInput},
      {StatusCode::kInvalid, true, "validate", 400, StageFault::kInput},
      {StatusCode::kUnsupported, false, "prune", 400, StageFault::kInput},
      {StatusCode::kNotFound, false, "prune", 400, StageFault::kInput},
      {StatusCode::kResourceExhausted, false, "budget", 413,
       StageFault::kInput},
      {StatusCode::kDeadlineExceeded, false, "deadline", 504,
       StageFault::kServer},
      {StatusCode::kUnavailable, false, "io", 500, StageFault::kServer},
      {StatusCode::kCancelled, false, "pool", 500, StageFault::kServer},
      {StatusCode::kInternal, false, "task", 500, StageFault::kServer},
  };
  for (const Row& row : rows) {
    const char* stage = StageForStatus(row.code, row.validate);
    EXPECT_STREQ(stage, row.stage) << StatusCodeName(row.code);
    const StagePolicy& policy = PolicyForStage(stage);
    EXPECT_EQ(policy.http_status, row.http_status) << stage;
    EXPECT_EQ(policy.fault, row.fault) << stage;
  }
  // Stages only the batch pipeline assigns, one only earlier builds
  // recorded, the breaker's own answer, and a stage the table lacks.
  for (const char* stage : {"watchdog", "commit", "checkpoint"}) {
    EXPECT_EQ(PolicyForStage(stage).fault, StageFault::kServer) << stage;
  }
  EXPECT_EQ(PolicyForStage("circuit").http_status, 503);
  EXPECT_EQ(PolicyForStage("circuit").fault, StageFault::kNone);
  EXPECT_EQ(PolicyForStage("from-an-older-journal").http_status, 500);
  EXPECT_EQ(PolicyForStage("from-an-older-journal").fault,
            StageFault::kServer);
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

// The parser skips subtrees the projector rejects without tokenizing
// them, so a defect there is never seen: the request prunes (200) to the
// clean document's bytes. A validating request sees every byte and gets
// the 400.
TEST_F(ServiceTest, DefectInsidePrunedSubtreeIsNotSeen) {
  StartService();
  ProjectionClient client = Client();
  auto registration =
      client.RegisterWorkload("xpath\t/site/people/person/name\n");
  ASSERT_TRUE(registration.ok()) << registration.status().ToString();
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  const std::string doc = GenerateXMarkCorpus(corpus_options)[0];
  auto clean = client.Prune(registration->id, doc);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  std::string hostile = doc;
  const size_t regions = hostile.find("<regions>");
  ASSERT_NE(regions, std::string::npos);
  hostile.insert(regions + 9, "<x a=1>&nbsp;&#xD800;</x>");
  auto pruned = client.Prune(registration->id, hostile);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned->output, clean->output);

  PruneRequestOptions validating;
  validating.validate = true;
  auto validated = client.Prune(registration->id, hostile, validating);
  ASSERT_FALSE(validated.ok());
  EXPECT_EQ(validated.status().code(), StatusCode::kInvalid)
      << validated.status().ToString();
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

// Hostile registrations get a 4xx and the daemon serves on. A content
// model 100,000 groups deep and a query 100,000 parentheses deep are past
// the nesting bound (unbounded, either overflows a worker's stack); a
// choice of 4,000 alternatives and a model whose deterministic automaton
// has 2^21 states are past the automaton budget.
TEST_F(ServiceTest, HostileRegistrationsAre4xxAndTheDaemonServesOn) {
  StartService();
  ProjectionClient client = Client();
  auto registration =
      client.RegisterWorkload(SpecFor({XMarkDashboardWorkload()[1]}));
  ASSERT_TRUE(registration.ok()) << registration.status().ToString();
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  const std::string doc = GenerateXMarkCorpus(corpus_options)[0];
  auto before = client.Prune(registration->id, doc);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  const size_t n = 100000;
  std::string wide = "<!ELEMENT a (b";
  for (int i = 1; i < 4000; ++i) wide += "|b";
  std::string blow_up = "<!ELEMENT a ((b|c)*, b";
  for (int i = 0; i < 20; ++i) blow_up += ", (b|c)";
  std::string many_names = "<!ELEMENT a EMPTY>\n";
  for (int i = 0; i < 5000; ++i) {
    many_names += "<!ELEMENT e" + std::to_string(i) + " (#PCDATA)>\n";
  }
  const std::vector<std::string> hostile_dtds = {
      "<!ELEMENT a " + std::string(n, '(') + "b" + std::string(n, ')') +
          ">\n<!ELEMENT b EMPTY>",
      wide + ")*>\n<!ELEMENT b EMPTY>",
      blow_up + ")>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>",
      many_names,
  };
  for (const std::string& dtd : hostile_dtds) {
    HttpClientResult raw;
    ASSERT_TRUE(HttpCall(service_.port(), "POST", "/dtds?name=h&root=a", dtd,
                         "text/plain", &raw));
    EXPECT_EQ(400, raw.status) << raw.body;
  }
  HttpClientResult raw;
  ASSERT_TRUE(HttpCall(service_.port(), "POST", "/workloads?dtd=xmark",
                       "xpath\t/site[" + std::string(n, '(') + "1" +
                           std::string(n, ')') + "]\n",
                       "text/plain", &raw));
  EXPECT_EQ(422, raw.status) << raw.body;

  ASSERT_TRUE(HttpCall(service_.port(), "GET", "/healthz", {}, {}, &raw));
  EXPECT_EQ(200, raw.status) << raw.body;
  ASSERT_TRUE(HttpCall(service_.port(), "POST", "/dtds?name=ok&root=a",
                       "<!ELEMENT a (b*)>\n<!ELEMENT b EMPTY>", "text/plain",
                       &raw));
  EXPECT_EQ(201, raw.status) << raw.body;
  auto after = client.Prune(registration->id, doc);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(before->output, after->output);
}

// Each registry keeps at most its cap of text for the daemon's lifetime.
// A new registration past the cap gets 507 (kResourceExhausted in the
// client); re-registering stays idempotent, and the daemon serves on.
TEST_F(ServiceTest, FullRegistriesAnswer507AndTheDaemonServesOn) {
  StartService();
  ProjectionClient client = Client();
  const std::string dashboard = SpecFor(XMarkDashboardWorkload());
  auto registration = client.RegisterWorkload(dashboard);
  ASSERT_TRUE(registration.ok()) << registration.status().ToString();
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.001;
  const std::string doc = GenerateXMarkCorpus(corpus_options)[0];
  auto before = client.Prune(registration->id, doc);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // DTDs padded to ~1 MB with a comment: the built-in XMark DTD and four
  // of them stay under 4 MiB, a fifth does not.
  const std::string padded_dtd = "<!ELEMENT a (b*)>\n<!ELEMENT b EMPTY>\n<!--" +
                                 std::string(1000000, 'x') + "-->";
  int dtds = 0;
  Status full;
  for (; dtds < 8; ++dtds) {
    auto added =
        client.RegisterDtd("d" + std::to_string(dtds), "a", padded_dtd);
    if (!added.ok()) {
      full = added.status();
      break;
    }
  }
  EXPECT_EQ(dtds, 4);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted) << full.ToString();
  HttpClientResult raw;
  ASSERT_TRUE(HttpCall(service_.port(), "POST", "/dtds?name=full&root=a",
                       padded_dtd, "text/plain", &raw));
  EXPECT_EQ(507, raw.status) << raw.body;
  EXPECT_NE(raw.body.find("\"error\":\"DTD registry full"), std::string::npos)
      << raw.body;
  // The cap comes before the parse: a malformed DTD under a new name is
  // refused as full, unparsed.
  ASSERT_TRUE(HttpCall(service_.port(), "POST", "/dtds?name=malformed&root=a",
                       "<!ELEMENT a (b*>\n<!--" + std::string(1000000, 'x') +
                           "-->",
                       "text/plain", &raw));
  EXPECT_EQ(507, raw.status) << raw.body;
  EXPECT_TRUE(client.RegisterDtd("d0", "a", padded_dtd).ok());

  // Workloads: distinct one-query specs padded to ~1 MB with a comment;
  // the dashboard spec counts too.
  const std::string padding = "# " + std::string(1000000, 'x') + "\n";
  int workloads = 0;
  for (; workloads < 8; ++workloads) {
    auto added = client.RegisterWorkload(
        padding + "xpath\t/site[" + std::to_string(workloads + 1) + "]\n",
        "xmark");
    if (!added.ok()) {
      full = added.status();
      break;
    }
  }
  EXPECT_EQ(workloads, 4);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted) << full.ToString();
  // The cap comes before the compile: a new spec whose query fails
  // analysis is refused as full, not compiled.
  ASSERT_TRUE(HttpCall(service_.port(), "POST", "/workloads?dtd=xmark",
                       padding + "xpath\t/site/\n", "text/plain", &raw));
  EXPECT_EQ(507, raw.status) << raw.body;
  auto again = client.RegisterWorkload(dashboard, "xmark");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->id, registration->id);

  ASSERT_TRUE(HttpCall(service_.port(), "GET", "/healthz", {}, {}, &raw));
  EXPECT_EQ(200, raw.status) << raw.body;
  auto after = client.Prune(registration->id, doc);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(before->output, after->output);
}

// The byte cap holds inside subtrees the pruner skips: 1,000,000 nested
// elements under a skipped <regions> (a 65 MB open-element charge in
// 7 MB of input) exceed a 1 MiB cap, so the prune answers 413.
TEST_F(ServiceTest, ByteCapHoldsInsideSkippedSubtrees) {
  StartService();
  ProjectionClient client = Client();
  auto registration =
      client.RegisterWorkload("xpath\t/site/people/person/name\n");
  ASSERT_TRUE(registration.ok()) << registration.status().ToString();
  std::string doc = "<site><regions>";
  for (int i = 0; i < 1000000; ++i) doc += "<x>";
  for (int i = 0; i < 1000000; ++i) doc += "</x>";
  doc += "</regions></site>";
  HttpClientResult raw;
  ASSERT_TRUE(HttpCall(service_.port(), "POST",
                       "/prune?workload=" + registration->id +
                           "&max_bytes=1048576",
                       doc, "application/xml", &raw));
  EXPECT_EQ(413, raw.status) << raw.body;
  EXPECT_NE(raw.body.find("RESOURCE_EXHAUSTED"), std::string::npos)
      << raw.body;
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
  // The request span says its response reached the client.
  EXPECT_NE(tracez->find("\"written\":1"), std::string::npos) << *tracez;
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
      EXPECT_NE(line.find("\"written\":1"), std::string::npos) << line;
      EXPECT_NE(line.find("\"workload\":\"" + registration->id + "\""),
                std::string::npos);
      break;
    }
  }
  EXPECT_TRUE(joined) << log_text;

  std::remove(log_path.c_str());
  ::rmdir(dir.c_str());
}

// A /prune whose response the client never got counts against the
// workload's availability, though the handler answered 200. The client
// sends the request and closes without reading; the response (QP13 keeps
// most of a ~8 MB document) is larger than the socket buffers, so the
// server's write fails on the closed peer rather than waiting out the
// connection deadline.
TEST_F(ServiceTest, UnwrittenPruneResponseCountsAgainstAvailability) {
  char tmpl[] = "/tmp/xmlproj_svc_unwritten_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string log_path = dir + "/svc.log";
  StructuredLogger logger;
  std::string error;
  ASSERT_TRUE(logger.Open(log_path, &error)) << error;
  SloTracker slo;
  ProjectionServiceOptions options;
  options.logger = &logger;
  options.slo = &slo;
  StartService(options);
  ProjectionClient client = Client();

  std::vector<BenchmarkQuery> keep_all;
  for (const BenchmarkQuery& query : AllBenchmarkQueries()) {
    if (query.id == "QP13") keep_all.push_back(query);
  }
  ASSERT_EQ(keep_all.size(), 1u);
  auto registration = client.RegisterWorkload(SpecFor(keep_all));
  ASSERT_TRUE(registration.ok()) << registration.status().ToString();
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.08;
  const std::string doc = GenerateXMarkCorpus(corpus_options)[0];

  // A client that reads its response is no error.
  auto outcome = client.Prune(registration->id, doc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_GT(outcome->output.size(), size_t{4} << 20);
  EXPECT_EQ(slo.Burn(registration->id, 5).requests, 1u);
  EXPECT_EQ(slo.Burn(registration->id, 5).errors, 0u);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(service_.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "POST /prune?workload=" + registration->id +
                              " HTTP/1.1\r\nContent-Length: " +
                              std::to_string(doc.size()) + "\r\n\r\n" + doc;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  ::close(fd);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(kServiceConnectionDeadlineMs);
  while (slo.Burn(registration->id, 5).requests < 2 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(slo.Burn(registration->id, 5).requests, 2u);
  EXPECT_EQ(slo.Burn(registration->id, 5).errors, 1u);

  // Stop first so the observer has certainly run and the line is flushed.
  service_.Stop();
  logger.Close();
  std::ifstream in(log_path);
  std::string line;
  std::vector<std::string> prunes;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"http.access\"") != std::string::npos &&
        line.find("\"path\":\"/prune\"") != std::string::npos) {
      prunes.push_back(line);
    }
  }
  ASSERT_EQ(prunes.size(), 2u);
  EXPECT_NE(prunes[0].find("\"written\":1"), std::string::npos) << prunes[0];
  EXPECT_NE(prunes[1].find("\"status\":200"), std::string::npos)
      << prunes[1];
  EXPECT_NE(prunes[1].find("\"written\":0"), std::string::npos) << prunes[1];
  std::remove(log_path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace xmlproj
