// Tests for the embedded observability HTTP server (obs/server.h):
// endpoint content (golden /metrics under a labeled run, /healthz,
// /statusz, /tracez), HTTP error handling (404, 405, malformed request,
// port already in use), scrapes racing a live 8-worker pipeline, and
// clean shutdown with a connection still open.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/server.h"
#include "obs/trace.h"
#include "projection/pipeline.h"
#include "xmark/corpus.h"
#include "xmark/workbench.h"
#include "xmark/xmark_dtd.h"

namespace xmlproj {
namespace {

// Raw loopback connection, for requests HttpGet cannot express
// (malformed lines, non-GET methods, half-open connections).
int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string RawRequest(uint16_t port, const std::string& request) {
  int fd = ConnectTo(port);
  if (fd < 0) return "";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ObsServer, GoldenMetricsUnderLabeledSeries) {
  MetricsRegistry registry;
  registry.SetHelp("xmlproj_pipeline_tasks_total", "Tasks completed");
  registry.GetCounter("xmlproj_pipeline_tasks_total")->Increment(8);
  registry.GetCounter("xmlproj_pipeline_tasks_total", {{"query_id", "0"}})
      ->Increment(3);
  registry.GetCounter("xmlproj_pipeline_tasks_total", {{"query_id", "1"}})
      ->Increment(5);
  registry.GetGauge("xmlproj_pipeline_threads")->Set(4);

  ObsServerOptions options;
  options.port = 0;
  options.registry = &registry;
  ObsServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  ASSERT_NE(server.port(), 0);

  std::string status_line, body;
  ASSERT_TRUE(HttpGet(server.port(), "/metrics", &status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos) << status_line;
  const char* expected =
      "# HELP xmlproj_pipeline_tasks_total Tasks completed\n"
      "# TYPE xmlproj_pipeline_tasks_total counter\n"
      "xmlproj_pipeline_tasks_total 8\n"
      "xmlproj_pipeline_tasks_total{query_id=\"0\"} 3\n"
      "xmlproj_pipeline_tasks_total{query_id=\"1\"} 5\n"
      "# TYPE xmlproj_pipeline_threads gauge\n"
      "xmlproj_pipeline_threads 4\n";
  EXPECT_EQ(body, expected);

  // The JSON exporter serves the same series under encoded keys.
  ASSERT_TRUE(HttpGet(server.port(), "/metrics.json", &status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  EXPECT_NE(
      body.find("\"xmlproj_pipeline_tasks_total{query_id=\\\"0\\\"}\": 3"),
      std::string::npos)
      << body;

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(ObsServer, HealthzStatuszTracezRespond) {
  MetricsRegistry registry;
  TraceCollector trace;
  trace.AddCompleteEvent("prune", "stage", MonotonicNowNs(), 1000);

  ObsServerOptions options;
  options.port = 0;
  options.registry = &registry;
  options.trace = &trace;
  ObsServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  std::string status_line, body;
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"circuit\":\"closed\""), std::string::npos) << body;

  ASSERT_TRUE(HttpGet(server.port(), "/statusz", &status_line, &body));
  EXPECT_NE(body.find("\"progress\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"stages\":"), std::string::npos) << body;

  ASSERT_TRUE(HttpGet(server.port(), "/tracez", &status_line, &body));
  EXPECT_NE(body.find("\"name\":\"prune\""), std::string::npos) << body;

  // A degrading circuit surfaces through /healthz without a restart.
  registry.GetCounter("xmlproj_pipeline_isolated_total")->Increment();
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status_line, &body));
  EXPECT_NE(body.find("\"circuit\":\"degrading\""), std::string::npos)
      << body;

  EXPECT_GE(server.requests_served(), 4u);
  server.Stop();
}

// /tracez?trace_id=&workload= restrict the span listing, and a wired
// SloTracker surfaces as the /statusz "slo" block.
TEST(ObsServer, TracezFiltersAndStatuszSloBlock) {
  MetricsRegistry registry;
  TraceCollector trace;
  SpanContext a{"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "1111111111111111", "",
                "w-a"};
  SpanContext b{"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", "2222222222222222", "",
                "w-b"};
  trace.AddSpanEvent("POST /prune", "request", MonotonicNowNs(), 1000, a);
  trace.AddSpanEvent("POST /prune", "request", MonotonicNowNs(), 1000, b);
  trace.AddCompleteEvent("anonymous", "stage", MonotonicNowNs(), 100);

  SloTracker slo;
  slo.Record("w-a", 1000, false);

  ObsServerOptions options;
  options.port = 0;
  options.registry = &registry;
  options.trace = &trace;
  options.slo = &slo;
  ObsServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  std::string status_line, body;
  ASSERT_TRUE(HttpGet(server.port(),
                      "/tracez?trace_id=aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
                      &status_line, &body));
  EXPECT_NE(body.find("\"trace_id\":\"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\""),
            std::string::npos)
      << body;
  EXPECT_EQ(body.find("bbbbbbbb"), std::string::npos) << body;
  EXPECT_EQ(body.find("anonymous"), std::string::npos) << body;

  ASSERT_TRUE(HttpGet(server.port(), "/tracez?workload=w-b", &status_line,
                      &body));
  EXPECT_NE(body.find("\"workload\":\"w-b\""), std::string::npos) << body;
  EXPECT_EQ(body.find("w-a"), std::string::npos) << body;

  // Unfiltered: everything, the anonymous span included.
  ASSERT_TRUE(HttpGet(server.port(), "/tracez", &status_line, &body));
  EXPECT_NE(body.find("anonymous"), std::string::npos);

  ASSERT_TRUE(HttpGet(server.port(), "/statusz", &status_line, &body));
  EXPECT_NE(body.find("\"slo\":{"), std::string::npos) << body;
  EXPECT_NE(body.find("\"workload\":\"w-a\""), std::string::npos) << body;
  server.Stop();
}

TEST(ObsServer, HealthzFollowsTheCircuitStateCallback) {
  MetricsRegistry registry;
  ObsServerOptions options;
  options.port = 0;
  options.registry = &registry;
  int circuit = 0;  // what a wired CircuitBreaker::state_int() returns
  options.circuit_state = [&circuit] { return circuit; };
  ObsServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  std::string status_line, body;
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"circuit\":\"closed\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"circuit_state\":0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"fast_failed\":0"), std::string::npos) << body;

  circuit = 1;  // half-open: degraded but serving
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"circuit\":\"half-open\""), std::string::npos)
      << body;

  // Open: truthful status plus HTTP 503 so load balancers can act on it.
  circuit = 2;
  registry.GetCounter("xmlproj_circuit_fast_fail_total")->Increment(7);
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status_line, &body));
  EXPECT_NE(status_line.find("503"), std::string::npos) << status_line;
  EXPECT_NE(body.find("\"status\":\"open\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"circuit\":\"open\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"circuit_state\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"fast_failed\":7"), std::string::npos) << body;

  // Recovery flips it back to 200 without a restart.
  circuit = 0;
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  server.Stop();
}

TEST(ObsServer, StatuszCarriesBuildInfo) {
  MetricsRegistry registry;
  ObsServerOptions options;
  options.port = 0;
  options.registry = &registry;
  ObsServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  std::string status_line, body;
  ASSERT_TRUE(HttpGet(server.port(), "/statusz", &status_line, &body));
  std::string expected = "\"build\":{\"version\":\"";
  expected += XmlprojVersion();
  expected += "\",\"compiler\":";
  EXPECT_NE(body.find(expected), std::string::npos) << body;
  server.Stop();
}

TEST(ObsServer, NotFoundBadMethodAndMalformedRequests) {
  MetricsRegistry registry;
  ObsServerOptions options;
  options.port = 0;
  options.registry = &registry;
  ObsServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  std::string status_line, body;
  ASSERT_TRUE(HttpGet(server.port(), "/nope", &status_line, &body));
  EXPECT_NE(status_line.find("404"), std::string::npos) << status_line;

  std::string response = RawRequest(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("405"), std::string::npos) << response;

  response = RawRequest(server.port(), "complete garbage\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos) << response;

  // The server survives all of the above and keeps serving.
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  server.Stop();
}

TEST(ObsServer, PortInUseFailsStartWithError) {
  MetricsRegistry registry;
  ObsServerOptions options;
  options.port = 0;
  options.registry = &registry;
  ObsServer first;
  std::string error;
  ASSERT_TRUE(first.Start(options, &error)) << error;

  ObsServerOptions clash = options;
  clash.port = first.port();
  ObsServer second;
  error.clear();
  EXPECT_FALSE(second.Start(clash, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(second.running());
  first.Stop();
}

TEST(ObsServer, CleanShutdownWithOpenConnection) {
  MetricsRegistry registry;
  ObsServerOptions options;
  options.port = 0;
  options.registry = &registry;
  ObsServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  // Half-open connection: bytes sent but no request terminator, so the
  // handler is parked in its read loop when Stop() lands.
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  const char partial[] = "GET /metrics HTTP/1.1\r\n";
  ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, 0), 0);

  auto begin = std::chrono::steady_clock::now();
  server.Stop();
  auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_FALSE(server.running());
  // The self-pipe wakes the parked read immediately: no poll-interval
  // floor, no waiting out the 2s connection deadline. 500ms is slack
  // for a loaded CI box; the typical latency is sub-millisecond.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            500);
  ::close(fd);
}

// Scrapes racing a live pipeline: 8 workers prune a per-query corpus
// while a scraper thread hammers /metrics and /statusz. Every scrape
// must return 200, and the final /statusz progress counts must sum to
// the corpus size (docs x queries).
TEST(ObsServer, ConcurrentScrapeDuringPipeline) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 6;
  corpus_options.scale = 0.001;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto dtd = LoadXMarkDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  auto projectors = WorkloadProjectors(*dtd, XMarkDashboardWorkload());
  ASSERT_TRUE(projectors.ok()) << projectors.status().ToString();

  MetricsRegistry registry;
  ObsServerOptions server_options;
  server_options.port = 0;
  server_options.registry = &registry;
  ObsServer server;
  std::string error;
  ASSERT_TRUE(server.Start(server_options, &error)) << error;

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> scrape_failures{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::string status_line, body;
      if (!HttpGet(server.port(), "/metrics", &status_line, &body) ||
          status_line.find("200") == std::string::npos) {
        scrape_failures.fetch_add(1);
      }
      if (!HttpGet(server.port(), "/statusz", &status_line, &body) ||
          status_line.find("200") == std::string::npos) {
        scrape_failures.fetch_add(1);
      }
      scrapes.fetch_add(2);
    }
  });

  PipelineOptions options;
  options.num_threads = 8;
  options.metrics = &registry;
  options.corpus_label = "test";
  auto run = PruneCorpusPerQuery(corpus, *dtd, *projectors, options);
  done.store(true);
  scraper.join();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(scrape_failures.load(), 0);

  const size_t expected_tasks = corpus.size() * projectors->size();
  EXPECT_EQ(run->summary.tasks, expected_tasks);

  // Post-run /statusz: completed + failed == corpus size, nothing left
  // in flight.
  std::string status_line, body;
  ASSERT_TRUE(HttpGet(server.port(), "/statusz", &status_line, &body));
  std::string expected_progress =
      "\"progress\":{\"tasks\":" + std::to_string(expected_tasks) +
      ",\"completed\":" + std::to_string(expected_tasks) +
      ",\"failed\":0,\"inflight\":0";
  EXPECT_NE(body.find(expected_progress), std::string::npos) << body;

  // Labeled series are visible through the live scrape path.
  ASSERT_TRUE(HttpGet(server.port(), "/metrics", &status_line, &body));
  EXPECT_NE(body.find("xmlproj_pipeline_tasks_total{corpus=\"test\","
                      "query_id=\"0\"}"),
            std::string::npos)
      << body;
  server.Stop();
}

}  // namespace
}  // namespace xmlproj
