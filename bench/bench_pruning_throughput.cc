// Reproduces the §6 pruning-cost claims: pruning is a single bufferless
// one-pass traversal whose time is linear in the document size (the paper:
// computing the projector ~0.5s, pruning a 60MB document < 10s, constant
// memory), and pruning-while-parsing costs no more than parsing alone.
// On top of the single-document numbers, BM_PipelineCorpus* sweep the
// parallel pipeline (projection/pipeline.h) across worker counts on a
// multi-document XMark corpus.
//
// google-benchmark binary; bytes/sec rates make the linearity visible
// across scales. In addition to the google-benchmark output, the binary
// runs a pipeline thread sweep and writes machine-readable results to
// BENCH_pruning.json (the repo's perf trajectory) — including the corpus
// pruning summary (Table 1 quantities) — plus a full MetricsRegistry dump
// (task latency histograms, pool queue stats; see README
// "Observability") of one instrumented max-thread run, and an
// obs-overhead A/B point (bare run vs. labeled registry + live /metrics
// server with a validating self-scrape, plus a durable-checkpoint arm
// whose bookkeeping cost over plain durable output writes
// compare_bench.py gates at <=5%, plus a service-prune arm measuring the
// request-scoped observability tax — traceparent propagation, span
// recording, access logging, SLO accounting — over a metrics-only
// /prune baseline, gated at <=5% too). Extra flags, consumed before
// google-benchmark sees the command line:
//   --bench_json=PATH        output path (default BENCH_pruning.json)
//   --metrics_json=PATH      registry dump path
//                            (default BENCH_pruning.metrics.json)
//   --sweep_docs=N           corpus size for the sweep (default 16)
//   --sweep_scale=S          per-document xmlgen scale (default 0.002)
//   --sweep_reps=R           repetitions per thread count, best-of (default 3)
//   --sweep_max_threads=T    top of the 1..T sweep (default max(4, cores))
//   --no_sweep               skip the sweep/JSON (pure google-benchmark run)
//
// The timed sweep runs are uninstrumented (metrics stay out of the
// measurement); the instrumented run happens once afterwards.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/http/http.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/push.h"
#include "obs/server.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/service.h"
#include "projection/checkpoint.h"
#include "projection/pipeline.h"
#include "projection/pruner.h"
#include "projection/projection.h"
#include "xmark/corpus.h"
#include "xmark/generator.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xmark/workbench.h"

namespace xmlproj {
namespace {

const Dtd& XmarkDtd() {
  static const Dtd* dtd = new Dtd(std::move(LoadXMarkDtd()).value());
  return *dtd;
}

const std::string& DocText(int which) {
  static std::string* texts[3] = {nullptr, nullptr, nullptr};
  static const double kScales[3] = {0.002, 0.008, 0.032};
  if (texts[which] == nullptr) {
    XMarkOptions options;
    options.scale = kScales[which];
    texts[which] = new std::string(GenerateXMarkText(options));
  }
  return *texts[which];
}

const NameSet& SampleProjector() {
  // A moderately selective query: QM02's data needs.
  static const NameSet* projector = [] {
    auto analysis = AnalyzeXPathQuery(
        XmarkDtd(),
        "/site/open_auctions/open_auction/bidder/increase");
    return new NameSet(analysis->projector);
  }();
  return *projector;
}

// Baseline: parsing alone (pruning-during-parsing is compared to this).
void BM_ParseOnly(benchmark::State& state) {
  const std::string& text = DocText(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto doc = ParseXml(text);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseOnly)->DenseRange(0, 2);

// Prune while parsing (the paper's "no overhead" deployment).
void BM_ParseAndPrune(benchmark::State& state) {
  const std::string& text = DocText(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto doc = ParseAndPrune(text, XmarkDtd(), SampleProjector());
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseAndPrune)->DenseRange(0, 2);

// Validate-and-prune fused in one pass (§6's "pruning can be executed
// during parsing and/or validation").
void BM_ParseValidateAndPrune(benchmark::State& state) {
  const std::string& text = DocText(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto doc =
        ParseValidateAndPrune(text, XmarkDtd(), SampleProjector());
    if (!doc.ok()) state.SkipWithError("invalid document");
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseValidateAndPrune)->DenseRange(0, 2);

// Streaming prune of an in-memory document (SAX replay, no parsing).
void BM_StreamingPrune(benchmark::State& state) {
  const std::string& text = DocText(static_cast<int>(state.range(0)));
  Document doc = std::move(ParseXml(text)).value();
  for (auto _ : state) {
    auto pruned = PruneViaStreaming(doc, XmarkDtd(), SampleProjector());
    benchmark::DoNotOptimize(pruned);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_StreamingPrune)->DenseRange(0, 2);

// DOM prune given a validated interpretation (Def 2.7 verbatim).
void BM_DomPrune(benchmark::State& state) {
  const std::string& text = DocText(static_cast<int>(state.range(0)));
  Document doc = std::move(ParseXml(text)).value();
  Interpretation interp =
      std::move(Interpret(doc, XmarkDtd())).value();
  for (auto _ : state) {
    auto pruned = PruneDocument(doc, interp, SampleProjector());
    benchmark::DoNotOptimize(pruned);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_DomPrune)->DenseRange(0, 2);

// Validation throughput (pruning can piggy-back on it, §6).
void BM_Validate(benchmark::State& state) {
  const std::string& text = DocText(static_cast<int>(state.range(0)));
  Document doc = std::move(ParseXml(text)).value();
  for (auto _ : state) {
    auto interp = Validate(doc, XmarkDtd());
    benchmark::DoNotOptimize(interp);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_Validate)->DenseRange(0, 2);

// --- Parallel pipeline: corpus × merged workload projector --------------

const std::vector<std::string>& PipelineCorpus() {
  static const std::vector<std::string>* corpus = [] {
    XMarkCorpusOptions options;
    options.documents = 8;
    options.scale = 0.002;
    return new std::vector<std::string>(GenerateXMarkCorpus(options));
  }();
  return *corpus;
}

const NameSet& WorkloadMergedProjector() {
  static const NameSet* projector = new NameSet(
      std::move(WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload()))
          .value());
  return *projector;
}

const std::vector<NameSet>& WorkloadPerQueryProjectors() {
  static const std::vector<NameSet>* projectors =
      new std::vector<NameSet>(std::move(WorkloadProjectors(
                                             XmarkDtd(),
                                             XMarkDashboardWorkload()))
                                   .value());
  return *projectors;
}

// Aggregate throughput of the fan-out across documents; range(0) is the
// worker count. UseRealTime: the work happens on pool threads.
void BM_PipelineCorpus(benchmark::State& state) {
  const std::vector<std::string>& corpus = PipelineCorpus();
  PipelineOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto results =
        PruneCorpus(corpus, XmarkDtd(), WorkloadMergedProjector(), options);
    if (!results.ok()) state.SkipWithError("pipeline failed");
    benchmark::DoNotOptimize(results);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(CorpusBytes(corpus)));
}
BENCHMARK(BM_PipelineCorpus)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Multi-query deployment: every document pruned once per query with the
// per-query projectors (documents × queries independent tasks).
void BM_PipelineMultiQuery(benchmark::State& state) {
  const std::vector<std::string>& corpus = PipelineCorpus();
  PipelineOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto results = PruneCorpusPerQuery(corpus, XmarkDtd(),
                                       WorkloadPerQueryProjectors(), options);
    if (!results.ok()) state.SkipWithError("pipeline failed");
    benchmark::DoNotOptimize(results);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(CorpusBytes(corpus) *
                           WorkloadPerQueryProjectors().size()));
}
BENCHMARK(BM_PipelineMultiQuery)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// --- Thread sweep + BENCH_pruning.json ----------------------------------

struct SweepConfig {
  std::string json_path = "BENCH_pruning.json";
  std::string metrics_json_path = "BENCH_pruning.metrics.json";
  int docs = 16;
  double scale = 0.002;
  int reps = 3;
  int max_threads = 0;  // 0: max(4, hardware)
  bool enabled = true;
};

struct SweepPoint {
  int threads = 0;
  double seconds = 0;
  double bytes_per_second = 0;
  double speedup = 1.0;
};

// --- Obs overhead A/B ---------------------------------------------------
//
// Same per-query workload three ways:
//   bare        — no registry, no server: the zero-instrumentation
//                 configuration where the pipeline reads no clocks and
//                 opens no sockets.
//   A (baseline)— unlabeled MetricsRegistry attached: a few clock reads
//                 and counter updates per *task*, none per SAX event.
//   B (observed)— the same registry with query_id/corpus labels on and a
//                 live ObsServer attached; the self-scrape of /metrics
//                 happens after the timed reps and validates the
//                 end-to-end scrape path (status line, labeled series).
// The recorded A→B delta isolates exactly what labels + the server add
// and is expected to sit within run-to-run noise: labels cost one
// registry lookup per counter per *task*, never per SAX event, and the
// idle listener thread only polls its socket. The bare→A delta is
// reported separately as the instrumentation cost, which per-task timing
// keeps within run-to-run noise.
struct ObsOverheadResult {
  double bare_seconds = 0;      // best-of, no instrumentation
  double baseline_seconds = 0;  // best-of A: unlabeled registry
  double observed_seconds = 0;  // best-of B: labeled + live server
  double push_seconds = 0;      // best-of C: B + statsd push flusher
  double overhead_pct = 0;      // (B - A) / A * 100
  double instrumentation_pct = 0;  // (A - bare) / bare * 100
  double push_pct = 0;          // (C - B) / B * 100 — the push-sink cost
  double written_seconds = 0;     // best-of W: bare + durable output writes
  double checkpoint_seconds = 0;  // best-of D: full durable checkpoint
  double checkpoint_pct = 0;      // (D - W) / W * 100 — the bookkeeping tax
  double service_seconds = 0;     // best-of S: /prune, metrics only
  double traced_seconds = 0;      // best-of T: /prune, trace+log+slo on
  double traced_pct = 0;          // (T - S) / S * 100 — request obs cost
  uint64_t traced_spans = 0;      // spans the traced arm recorded
  uint64_t push_flushes = 0;
  uint64_t push_datagrams = 0;
  bool scrape_ok = false;
  size_t scrape_bytes = 0;
};

// S vs T: the request-scoped observability tax on the service hot path.
// The same corpus is pruned serially over loopback HTTP two ways:
//   S — ProjectionService with the (mandatory) MetricsRegistry only.
//   T — the same service with the full PR-10 request plane on: a
//       TraceCollector (request span + one prune span per prune), a
//       StructuredLogger writing access lines to a real file, an
//       SloTracker, and a client-injected W3C traceparent per request.
// compare_bench.py gates (T - S) / S at <=5%: per-request tracing and
// logging must stay a constant few-microsecond cost per prune, never a
// per-byte one. Single worker thread, serial client — the arm measures
// per-request overhead, not scheduling. The arm generates its own
// corpus of paper-scale documents (~700KB each, vs the sweep's ~140KB)
// so the constant per-request cost is judged against realistic request
// work, and prunes it several passes per timed window to push the
// window well past scheduler noise.
bool RunTracedServiceArm(int reps, ObsOverheadResult* result) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 4;
  corpus_options.scale = 0.01;
  const std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  constexpr int kPassesPerWindow = 3;
  std::string spec;
  for (const BenchmarkQuery& query : XMarkDashboardWorkload()) {
    spec += query.id;
    spec += '\t';
    spec += query.language == QueryLanguage::kXQuery ? "xquery" : "xpath";
    spec += '\t';
    spec += query.text;
    spec += '\n';
  }

  // One resident service per arm; the timed windows ALTERNATE between
  // the two. Running arm S to completion and then arm T hands whichever
  // arm goes first a systematic (CPU frequency / cache state) edge that
  // dwarfs the effect being measured — interleaving gives both arms the
  // same drift and best-of-reps takes each arm's quietest window.
  struct Arm {
    MetricsRegistry registry;
    TraceCollector trace;
    StructuredLogger logger;
    SloTracker slo;
    ProjectionService service;
    std::string workload_id;
    std::string log_dir, log_path;
    bool traced = false;
    double best_seconds = 0;
  };
  Arm arms[2];
  arms[1].traced = true;

  for (Arm& arm : arms) {
    std::string error;
    if (arm.traced) {
      char templ[] = "/tmp/xmlproj_bench_obs_XXXXXX";
      const char* dir = mkdtemp(templ);
      if (dir == nullptr) {
        std::fprintf(stderr, "traced arm: mkdtemp failed\n");
        return false;
      }
      arm.log_dir = dir;
      arm.log_path = arm.log_dir + "/access.log";
      if (!arm.logger.Open(arm.log_path, &error)) {
        std::fprintf(stderr, "traced arm: log open failed: %s\n",
                     error.c_str());
        return false;
      }
    }
    if (!arm.service.RegisterDtd("xmark", XMarkDtdText(), "site", &error)) {
      std::fprintf(stderr, "traced arm: DTD registration failed: %s\n",
                   error.c_str());
      return false;
    }
    ProjectionServiceOptions options;
    options.metrics = &arm.registry;
    options.limits.worker_threads = 1;
    if (arm.traced) {
      options.trace = &arm.trace;
      options.logger = &arm.logger;
      options.slo = &arm.slo;
    }
    if (!arm.service.Start(options, &error)) {
      std::fprintf(stderr, "traced arm: service start failed: %s\n",
                   error.c_str());
      return false;
    }
  }

  // Serial prune pass against one arm; timed windows and warm-up share it.
  auto run_window = [&](Arm* arm) -> bool {
    ProjectionClientOptions client_options;
    client_options.port = arm->service.port();
    ProjectionClient client(client_options);
    for (int pass = 0; pass < kPassesPerWindow; ++pass) {
      for (const std::string& doc : corpus) {
        PruneRequestOptions prune_options;
        if (arm->traced) {
          prune_options.traceparent = FormatTraceparent(MintTraceContext());
        }
        auto outcome = client.Prune(arm->workload_id, doc, prune_options);
        if (!outcome.ok()) {
          std::fprintf(stderr, "traced arm: prune failed: %s\n",
                       outcome.status().ToString().c_str());
          return false;
        }
      }
    }
    return true;
  };

  bool ok = true;
  for (Arm& arm : arms) {
    ProjectionClientOptions client_options;
    client_options.port = arm.service.port();
    ProjectionClient client(client_options);
    auto registration = client.RegisterWorkload(spec);
    if (!registration.ok()) {
      std::fprintf(stderr, "traced arm: registration failed: %s\n",
                   registration.status().ToString().c_str());
      ok = false;
      break;
    }
    arm.workload_id = registration->id;
    // Warm pass (projector cache, allocator, page cache) outside the
    // timed windows.
    if (!run_window(&arm)) {
      ok = false;
      break;
    }
  }
  for (int rep = 0; rep < reps && ok; ++rep) {
    for (Arm& arm : arms) {
      auto start = std::chrono::steady_clock::now();
      if (!run_window(&arm)) {
        ok = false;
        break;
      }
      double seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (rep == 0 || seconds < arm.best_seconds) arm.best_seconds = seconds;
    }
  }
  for (Arm& arm : arms) {
    arm.service.Stop();
    if (arm.traced) {
      arm.logger.Close();
      std::remove(arm.log_path.c_str());
      ::rmdir(arm.log_dir.c_str());
    }
  }
  if (!ok) return false;
  result->service_seconds = arms[0].best_seconds;
  result->traced_seconds = arms[1].best_seconds;
  result->traced_spans = arms[1].trace.event_count();
  result->traced_pct =
      result->service_seconds > 0
          ? 100.0 * (result->traced_seconds - result->service_seconds) /
                result->service_seconds
          : 0;
  std::printf("service obs A/B (%zu docs x %d passes, 1 worker, serial "
              "client): metrics-only %.1f ms, traced+logged %.1f ms "
              "(%+.1f%%, %llu spans)\n",
              corpus.size(), kPassesPerWindow, result->service_seconds * 1e3,
              result->traced_seconds * 1e3, result->traced_pct,
              static_cast<unsigned long long>(result->traced_spans));
  return true;
}

bool RunObsOverhead(const std::vector<std::string>& corpus, int max_threads,
                    int reps, ObsOverheadResult* result) {
  const std::vector<NameSet>& projectors = WorkloadPerQueryProjectors();

  auto best_of = [&](const PipelineOptions& options, const char* what,
                     double* best) {
    for (int rep = 0; rep < reps; ++rep) {
      auto run = PruneCorpusPerQuery(corpus, XmarkDtd(), projectors, options);
      if (!run.ok()) {
        std::fprintf(stderr, "obs A/B %s run failed: %s\n", what,
                     run.status().ToString().c_str());
        return false;
      }
      double seconds = run->summary.wall_seconds;
      if (rep == 0 || seconds < *best) *best = seconds;
    }
    return true;
  };

  PipelineOptions bare;
  bare.num_threads = max_threads;
  if (!best_of(bare, "bare", &result->bare_seconds)) return false;

  MetricsRegistry baseline_registry;
  PipelineOptions baseline;
  baseline.num_threads = max_threads;
  baseline.metrics = &baseline_registry;
  if (!best_of(baseline, "baseline", &result->baseline_seconds)) return false;

  MetricsRegistry registry;
  ObsServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.registry = &registry;
  ObsServer server;
  std::string error;
  if (!server.Start(server_options, &error)) {
    std::fprintf(stderr, "obs A/B server start failed: %s\n", error.c_str());
    return false;
  }
  PipelineOptions observed;
  observed.num_threads = max_threads;
  observed.metrics = &registry;
  observed.label_queries = true;
  observed.corpus_label = "bench";
  if (!best_of(observed, "observed", &result->observed_seconds)) {
    server.Stop();
    return false;
  }

  std::string status_line, body;
  result->scrape_ok =
      HttpGet(server.port(), "/metrics", &status_line, &body) &&
      status_line.find("200") != std::string::npos &&
      body.find("xmlproj_pipeline_tasks_total{") != std::string::npos &&
      body.find("query_id=\"0\"") != std::string::npos;
  result->scrape_bytes = body.size();
  server.Stop();

  // C: the B configuration plus a live statsd push flusher. The UDP
  // target is a dead loopback port — fire-and-forget sockets make a
  // receiverless push free of backpressure by design, so this measures
  // exactly the sender-side cost: registry snapshots, delta computation,
  // line formatting and sendto().
  MetricsRegistry push_registry;
  StatsdSink statsd;
  if (!statsd.Open("127.0.0.1:9", &error)) {
    std::fprintf(stderr, "obs A/B statsd open failed: %s\n", error.c_str());
    return false;
  }
  PushFlusher flusher;
  PushFlusherOptions flush_options;
  flush_options.registry = &push_registry;
  flush_options.sinks = {&statsd};
  flush_options.interval_ms = 100;  // aggressive: 10 flushes/sec
  if (!flusher.Start(flush_options, &error)) {
    std::fprintf(stderr, "obs A/B flusher start failed: %s\n", error.c_str());
    return false;
  }
  PipelineOptions pushed;
  pushed.num_threads = max_threads;
  pushed.metrics = &push_registry;
  pushed.label_queries = true;
  pushed.corpus_label = "bench";
  bool push_ok = best_of(pushed, "push", &result->push_seconds);
  flusher.Stop();
  if (!push_ok) return false;
  result->push_flushes = flusher.flushes();
  result->push_datagrams = statsd.datagrams_sent();

  // W vs D: the crash-safety tax. Durable output I/O is not what the
  // gate watches — fsync'ing pruned bytes runs at disk speed, the same
  // order as pruning itself, so ANY run that persists outputs durably
  // pays it. What must stay cheap is the checkpoint *bookkeeping* —
  // the content hash, the record formatting, and the one fsync'd JSONL
  // append per task (never per event). So:
  //   W — bare pipeline + the same atomic tmp+fsync+rename output
  //       commit per task, no checkpoint machinery.
  //   D — the full durable checkpoint (commit + hash + append).
  // compare_bench.py gates (D - W) / W at <=5%. The arm runs
  // single-threaded on its own corpus of realistically-sized documents
  // (~11MB, independent of --sweep_scale): the append fsync is a fixed
  // few hundred microseconds per task, so against the sweep's
  // deliberately tiny documents it reads as a huge ratio while meaning
  // nothing — off-the-hot-path is a claim about real documents. Each
  // rep gets a fresh scratch dir so every commit and append hits the
  // disk for real.
  XMarkCorpusOptions gate_corpus_options;
  gate_corpus_options.documents = 2;
  gate_corpus_options.scale = 0.16;
  std::vector<std::string> gate_corpus =
      GenerateXMarkCorpus(gate_corpus_options);
  // Best-of-3 floor regardless of --sweep_reps: the arm is disk-bound,
  // and a single ~170ms sample has more than 5% of noise on a shared
  // runner — one outlier must not trip the gate.
  const int gate_reps = std::max(reps, 3);
  for (int rep = 0; rep < gate_reps; ++rep) {
    char templ[] = "/tmp/xmlproj_bench_ck_XXXXXX";
    const char* dir = mkdtemp(templ);
    if (dir == nullptr) {
      std::fprintf(stderr, "obs A/B checkpoint: mkdtemp failed\n");
      return false;
    }
    std::string out_dir = std::string(dir) + "/out";
    ::mkdir(out_dir.c_str(), 0777);

    // W: prune in memory, then commit every output durably. The writes
    // sit inside the timed window, exactly where the checkpointed
    // pipeline performs them.
    auto w_start = std::chrono::steady_clock::now();
    PipelineOptions plain;
    plain.num_threads = 1;
    auto w_run = PruneCorpusPerQuery(gate_corpus, XmarkDtd(), projectors, plain);
    if (!w_run.ok()) {
      std::fprintf(stderr, "obs A/B write-baseline run failed: %s\n",
                   w_run.status().ToString().c_str());
      return false;
    }
    for (size_t i = 0; i < w_run->results.size(); ++i) {
      std::string error;
      if (!AtomicWriteTextFile(RunCheckpoint::TaskOutputPath(dir, i),
                               w_run->results[i].output,
                               /*fsync_file=*/true, &error)) {
        std::fprintf(stderr, "obs A/B write-baseline commit failed: %s\n",
                     error.c_str());
        return false;
      }
    }
    double w_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - w_start)
                           .count();
    if (rep == 0 || w_seconds < result->written_seconds) {
      result->written_seconds = w_seconds;
    }
    for (size_t i = 0; i < w_run->results.size(); ++i) {
      std::remove(RunCheckpoint::TaskOutputPath(dir, i).c_str());
    }

    // D: the real thing — same commits plus hash + record + append.
    PipelineOptions durable;
    durable.num_threads = 1;
    CheckpointHeader header;
    header.run_id = "bench-obs-ab";
    header.binding =
        ComputeCorpusBinding(gate_corpus, projectors, durable,
                             "bench-obs-ab");
    RunCheckpoint checkpoint;
    Status created = checkpoint.Create(dir, header);
    if (!created.ok()) {
      std::fprintf(stderr, "obs A/B checkpoint create failed: %s\n",
                   created.ToString().c_str());
      return false;
    }
    durable.checkpoint = &checkpoint;
    auto d_start = std::chrono::steady_clock::now();
    auto run = PruneCorpusPerQuery(gate_corpus, XmarkDtd(), projectors, durable);
    if (!run.ok()) {
      std::fprintf(stderr, "obs A/B checkpoint run failed: %s\n",
                   run.status().ToString().c_str());
      return false;
    }
    double d_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - d_start)
                           .count();
    if (rep == 0 || d_seconds < result->checkpoint_seconds) {
      result->checkpoint_seconds = d_seconds;
    }
    // Scrub the scratch tree; every committed path is known by index.
    for (size_t i = 0; i < run->results.size(); ++i) {
      std::remove(RunCheckpoint::TaskOutputPath(dir, i).c_str());
    }
    std::remove(RunCheckpoint::PathFor(dir).c_str());
    ::rmdir(out_dir.c_str());
    ::rmdir(dir);
  }

  result->overhead_pct =
      result->baseline_seconds > 0
          ? 100.0 * (result->observed_seconds - result->baseline_seconds) /
                result->baseline_seconds
          : 0;
  result->instrumentation_pct =
      result->bare_seconds > 0
          ? 100.0 * (result->baseline_seconds - result->bare_seconds) /
                result->bare_seconds
          : 0;
  result->push_pct =
      result->observed_seconds > 0
          ? 100.0 * (result->push_seconds - result->observed_seconds) /
                result->observed_seconds
          : 0;
  result->checkpoint_pct =
      result->written_seconds > 0
          ? 100.0 * (result->checkpoint_seconds - result->written_seconds) /
                result->written_seconds
          : 0;
  std::printf("obs overhead A/B (%zu queries x %zu docs, %d threads): "
              "bare %.1f ms, instrumented %.1f ms (%+.1f%%), "
              "labeled+served %.1f ms (%+.1f%% vs instrumented), "
              "pushed %.1f ms (%+.1f%% vs labeled+served, %llu flushes, "
              "%llu datagrams), durable writes %.1f ms, checkpointed "
              "%.1f ms (%+.1f%% vs durable writes), "
              "self-scrape %s (%zu bytes)\n",
              projectors.size(), corpus.size(), max_threads,
              result->bare_seconds * 1e3, result->baseline_seconds * 1e3,
              result->instrumentation_pct, result->observed_seconds * 1e3,
              result->overhead_pct, result->push_seconds * 1e3,
              result->push_pct,
              static_cast<unsigned long long>(result->push_flushes),
              static_cast<unsigned long long>(result->push_datagrams),
              result->written_seconds * 1e3,
              result->checkpoint_seconds * 1e3, result->checkpoint_pct,
              result->scrape_ok ? "ok" : "FAILED", result->scrape_bytes);
  return result->scrape_ok;
}

int RunSweep(SweepConfig config) {
  config.docs = std::max(config.docs, 1);
  config.reps = std::max(config.reps, 1);
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = config.docs;
  corpus_options.scale = config.scale;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  const size_t corpus_bytes = CorpusBytes(corpus);
  const NameSet& projector = WorkloadMergedProjector();

  int hardware = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  int max_threads =
      config.max_threads > 0 ? config.max_threads : std::max(4, hardware);
  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) {
    thread_counts.push_back(max_threads);
  }

  std::printf("\npipeline sweep: %d docs x %.1f KB = %.1f MB, best of %d\n",
              config.docs, corpus_bytes / 1024.0 / config.docs,
              corpus_bytes / (1024.0 * 1024.0), config.reps);
  std::vector<SweepPoint> points;
  for (int threads : thread_counts) {
    PipelineOptions options;
    options.num_threads = threads;
    double best = 0;
    for (int rep = 0; rep < config.reps; ++rep) {
      auto run = PruneCorpus(corpus, XmarkDtd(), projector, options);
      if (!run.ok()) {
        std::fprintf(stderr, "sweep failed at %d threads: %s\n", threads,
                     run.status().ToString().c_str());
        return 1;
      }
      double seconds = run->summary.wall_seconds;
      if (rep == 0 || seconds < best) best = seconds;
    }
    SweepPoint point;
    point.threads = threads;
    point.seconds = best;
    point.bytes_per_second = static_cast<double>(corpus_bytes) / best;
    point.speedup = points.empty() ? 1.0 : points[0].seconds / best;
    points.push_back(point);
    std::printf("  threads=%-2d  %8.1f ms  %7.1f MB/s  speedup %.2fx\n",
                threads, best * 1e3,
                point.bytes_per_second / (1024.0 * 1024.0), point.speedup);
  }

  ObsOverheadResult obs;
  if (!RunObsOverhead(corpus, max_threads, config.reps, &obs)) return 1;
  if (!RunTracedServiceArm(config.reps, &obs)) return 1;

  // One instrumented run at max threads: its summary lands in the sweep
  // JSON (the Table 1 quantities), the full registry in the metrics dump.
  MetricsRegistry registry;
  PipelineOptions instrumented;
  instrumented.num_threads = max_threads;
  instrumented.metrics = &registry;
  auto observed = PruneCorpus(corpus, XmarkDtd(), projector, instrumented);
  if (!observed.ok()) {
    std::fprintf(stderr, "instrumented run failed: %s\n",
                 observed.status().ToString().c_str());
    return 1;
  }
  const PipelineSummary& summary = observed->summary;
  std::printf("pruning: %zu -> %zu nodes (%.1f%% kept), %zu -> %zu bytes "
              "(%.1f%% kept)\n",
              summary.input_nodes, summary.kept_nodes,
              100.0 * summary.NodeRatio(), summary.input_bytes,
              summary.output_bytes, 100.0 * summary.ByteRatio());

  std::FILE* out = std::fopen(config.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", config.json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"pruning_pipeline\",\n"
               "  \"workload\": \"xmark_multi_document\",\n"
               "  \"documents\": %d,\n"
               "  \"scale_per_document\": %g,\n"
               "  \"corpus_bytes\": %zu,\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"repetitions\": %d,\n"
               "  \"pruning\": {\n"
               "    \"tasks\": %zu,\n"
               "    \"input_bytes\": %zu,\n"
               "    \"output_bytes\": %zu,\n"
               "    \"byte_ratio_kept\": %.4f,\n"
               "    \"input_nodes\": %zu,\n"
               "    \"kept_nodes\": %zu,\n"
               "    \"node_ratio_kept\": %.4f\n"
               "  },\n"
               "  \"metrics_json\": \"%s\",\n"
               "  \"results\": [\n",
               config.docs, config.scale, corpus_bytes, hardware,
               config.reps, summary.tasks, summary.input_bytes,
               summary.output_bytes, summary.ByteRatio(),
               summary.input_nodes, summary.kept_nodes, summary.NodeRatio(),
               config.metrics_json_path.c_str());
  for (size_t i = 0; i < points.size(); ++i) {
    std::fprintf(out,
                 "    {\"threads\": %d, \"seconds\": %.6f, "
                 "\"bytes_per_second\": %.1f, "
                 "\"speedup_vs_1_thread\": %.3f}%s\n",
                 points[i].threads, points[i].seconds,
                 points[i].bytes_per_second, points[i].speedup,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"obs_overhead\": {\n"
               "    \"workload\": \"xmark_multi_query\",\n"
               "    \"threads\": %d,\n"
               "    \"repetitions\": %d,\n"
               "    \"bare_seconds\": %.6f,\n"
               "    \"instrumented_seconds\": %.6f,\n"
               "    \"instrumentation_pct\": %.2f,\n"
               "    \"labeled_served_seconds\": %.6f,\n"
               "    \"labels_and_server_pct\": %.2f,\n"
               "    \"push_seconds\": %.6f,\n"
               "    \"push_pct\": %.2f,\n"
               "    \"push_flushes\": %llu,\n"
               "    \"push_datagrams\": %llu,\n"
               "    \"durable_write_seconds\": %.6f,\n"
               "    \"checkpoint_seconds\": %.6f,\n"
               "    \"checkpoint_pct\": %.2f,\n"
               "    \"service_prune_seconds\": %.6f,\n"
               "    \"traced_prune_seconds\": %.6f,\n"
               "    \"traced_pct\": %.2f,\n"
               "    \"traced_spans\": %llu,\n"
               "    \"self_scrape_ok\": %s,\n"
               "    \"self_scrape_bytes\": %zu\n"
               "  }\n"
               "}\n",
               max_threads, config.reps, obs.bare_seconds,
               obs.baseline_seconds, obs.instrumentation_pct,
               obs.observed_seconds, obs.overhead_pct, obs.push_seconds,
               obs.push_pct,
               static_cast<unsigned long long>(obs.push_flushes),
               static_cast<unsigned long long>(obs.push_datagrams),
               obs.written_seconds, obs.checkpoint_seconds,
               obs.checkpoint_pct, obs.service_seconds, obs.traced_seconds,
               obs.traced_pct,
               static_cast<unsigned long long>(obs.traced_spans),
               obs.scrape_ok ? "true" : "false", obs.scrape_bytes);
  std::fclose(out);
  std::printf("wrote %s\n", config.json_path.c_str());

  std::string metrics_json;
  AppendMetricsJson(registry, &metrics_json);
  if (!WriteTextFile(config.metrics_json_path, metrics_json)) {
    std::fprintf(stderr, "cannot write %s\n",
                 config.metrics_json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", config.metrics_json_path.c_str());
  return 0;
}

bool ParseSweepFlag(const char* arg, SweepConfig* config) {
  auto value = [arg](const char* prefix) -> const char* {
    size_t len = std::strlen(prefix);
    return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
  };
  if (const char* v = value("--bench_json=")) {
    config->json_path = v;
  } else if (const char* v = value("--metrics_json=")) {
    config->metrics_json_path = v;
  } else if (const char* v = value("--sweep_docs=")) {
    config->docs = std::atoi(v);
  } else if (const char* v = value("--sweep_scale=")) {
    config->scale = std::atof(v);
  } else if (const char* v = value("--sweep_reps=")) {
    config->reps = std::atoi(v);
  } else if (const char* v = value("--sweep_max_threads=")) {
    config->max_threads = std::atoi(v);
  } else if (std::strcmp(arg, "--no_sweep") == 0) {
    config->enabled = false;
  } else {
    return false;
  }
  return true;
}

}  // namespace
}  // namespace xmlproj

int main(int argc, char** argv) {
  xmlproj::SweepConfig config;
  // Peel off sweep flags; everything else goes to google-benchmark.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (!xmlproj::ParseSweepFlag(argv[i], &config)) argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (config.enabled) return xmlproj::RunSweep(config);
  return 0;
}
