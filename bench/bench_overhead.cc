// The two bounded overhead arms. Each cost must stay within 5% of the work
// it rides on:
//   request    — request-scoped observability on the service hot path
//                (README "Request-scoped observability"). S is a
//                ProjectionService with metrics only; T adds a
//                TraceCollector, a StructuredLogger writing to a file, an
//                SloTracker and a client-injected traceparent per request.
//                4 XMark documents at scale 0.01 (~0.75 MB each), 1 worker
//                thread, a serial client.
//   checkpoint — checkpoint bookkeeping (README "Checkpoint & resume"). W
//                is a single-thread PruneCorpusPerQuery plus an fsync'd
//                AtomicWriteTextFile per output; D is the same run with a
//                RunCheckpoint, which adds the content hash, the record and
//                one fsync'd append per task. Durable output writes sit in
//                both windows: every durable run pays for them.
//
// Each arm times its two sides in alternating pairs of windows (the cheap
// side first in even pairs, last in odd ones) and reports the median of the
// per-pair overheads with its quartiles. The binary takes no flags. It
// exits 1 when either median exceeds 5%, 2 when a window fails to run.
//
//   ./build/bench/bench_overhead

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/http/http.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "projection/checkpoint.h"
#include "projection/pipeline.h"
#include "service/client.h"
#include "service/service.h"
#include "xmark/corpus.h"
#include "xmark/xmark_dtd.h"

namespace xmlproj {
namespace {

constexpr double kBoundPct = 5.0;
// Sized so that an A/A run (both sides identical) reads within +-2.5% on a
// shared 4-vCPU box, where one pair's overhead spreads over an IQR of ~10
// points: 80 pairs per arm, request windows of 20 passes over the corpus
// (~250 ms), checkpoint windows over 4 documents (~300 ms). One run takes
// ~90 s.
constexpr int kPairs = 80;
constexpr int kRequestPasses = 20;
constexpr int kCheckpointDocs = 4;

// Times one window of a side into `*seconds`; false when it failed.
using Window = std::function<bool(double* seconds)>;

struct ArmResult {
  std::vector<double> overhead_pct;  // one per pair
  std::vector<double> base_seconds, variant_seconds;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Linear-interpolated q-quantile of `values` (sorted in place).
double Quantile(std::vector<double>& values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

// One untimed warm-up window per side, then kPairs pairs.
bool MeasurePairs(const Window& base, const Window& variant, ArmResult* out) {
  double ignored = 0;
  if (!base(&ignored) || !variant(&ignored)) return false;
  for (int pair = 0; pair < kPairs; ++pair) {
    double seconds[2] = {0, 0};  // base, variant
    for (int k = 0; k < 2; ++k) {
      const int side = (pair + k) % 2;
      if (!(side == 0 ? base : variant)(&seconds[side])) return false;
    }
    out->base_seconds.push_back(seconds[0]);
    out->variant_seconds.push_back(seconds[1]);
    out->overhead_pct.push_back(100.0 * (seconds[1] / seconds[0] - 1.0));
  }
  return true;
}

// Prints the arm's line; true when its median overhead is within bound.
bool Report(const char* arm, ArmResult result) {
  const double median = Quantile(result.overhead_pct, 0.5);
  const bool ok = median <= kBoundPct;
  std::printf("%-10s median %+.1f%% (q25 %+.1f%%, q75 %+.1f%%) over %d "
              "pairs, windows %.0f / %.0f ms; bound %.0f%%: %s\n",
              arm, median, Quantile(result.overhead_pct, 0.25),
              Quantile(result.overhead_pct, 0.75), kPairs,
              Quantile(result.base_seconds, 0.5) * 1e3,
              Quantile(result.variant_seconds, 0.5) * 1e3, kBoundPct,
              ok ? "ok" : "OVER");
  return ok;
}

bool MakeScratchDir(const char* what, std::string* dir) {
  char templ[] = "/tmp/xmlproj_bench_overhead_XXXXXX";
  if (mkdtemp(templ) == nullptr) {
    std::fprintf(stderr, "%s: mkdtemp failed\n", what);
    return false;
  }
  *dir = templ;
  return true;
}

// One resident service of the request arm, metrics-only (S) or traced (T).
struct ServiceSide {
  MetricsRegistry registry;
  TraceCollector trace;
  StructuredLogger logger;
  SloTracker slo;
  ProjectionService service;
  std::string workload_id;
  std::string log_dir;
  bool traced = false;

  ServiceSide() = default;
  ServiceSide(const ServiceSide&) = delete;
  ServiceSide& operator=(const ServiceSide&) = delete;
  ~ServiceSide() {
    service.Stop();
    if (!log_dir.empty()) {
      logger.Close();
      std::remove((log_dir + "/access.log").c_str());
      ::rmdir(log_dir.c_str());
    }
  }

  // Starts the service and registers the workload `spec`.
  bool Start(const std::string& spec, std::string* error) {
    if (traced && !(MakeScratchDir("request arm", &log_dir) &&
                    logger.Open(log_dir + "/access.log", error))) {
      return false;
    }
    if (!service.RegisterDtd("xmark", XMarkDtdText(), "site", error)) {
      return false;
    }
    ProjectionServiceOptions options;
    options.metrics = &registry;
    options.limits.worker_threads = 1;
    if (traced) {
      options.trace = &trace;
      options.logger = &logger;
      options.slo = &slo;
    }
    if (!service.Start(options, error)) return false;
    ProjectionClientOptions client_options;
    client_options.port = service.port();
    auto registration = ProjectionClient(client_options).RegisterWorkload(spec);
    if (!registration.ok()) {
      *error = registration.status().ToString();
      return false;
    }
    workload_id = registration->id;
    return true;
  }

  // One window: kRequestPasses serial passes over `corpus`.
  bool TimeWindow(const std::vector<std::string>& corpus, double* seconds) {
    ProjectionClientOptions client_options;
    client_options.port = service.port();
    ProjectionClient client(client_options);
    const auto start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kRequestPasses; ++pass) {
      for (const std::string& doc : corpus) {
        PruneRequestOptions prune_options;
        if (traced) {
          prune_options.traceparent = FormatTraceparent(MintTraceContext());
        }
        auto outcome = client.Prune(workload_id, doc, prune_options);
        if (!outcome.ok()) {
          std::fprintf(stderr, "request arm: prune failed: %s\n",
                       outcome.status().ToString().c_str());
          return false;
        }
      }
    }
    *seconds = SecondsSince(start);
    return true;
  }
};

// T vs S: what request-scoped observability adds to serial /prune calls.
bool RequestArm(ArmResult* result) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 4;
  corpus_options.scale = 0.01;
  const std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  std::string spec;
  for (const BenchmarkQuery& query : XMarkDashboardWorkload()) {
    spec += query.id + '\t' +
            (query.language == QueryLanguage::kXQuery ? "xquery" : "xpath") +
            '\t' + query.text + '\n';
  }
  ServiceSide sides[2];
  sides[1].traced = true;
  for (ServiceSide& side : sides) {
    std::string error;
    if (!side.Start(spec, &error)) {
      std::fprintf(stderr, "request arm: setup failed: %s\n", error.c_str());
      return false;
    }
  }
  auto window = [&corpus](ServiceSide* side) -> Window {
    return [&corpus, side](double* seconds) {
      return side->TimeWindow(corpus, seconds);
    };
  };
  return MeasurePairs(window(&sides[0]), window(&sides[1]), result);
}

// D vs W: what checkpoint bookkeeping adds to durable output writes. Each
// window gets a fresh scratch directory, made and scrubbed outside the
// timed span, so every commit and append hits the disk.
bool CheckpointArm(const Dtd& dtd, ArmResult* result) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = kCheckpointDocs;
  corpus_options.scale = 0.16;
  const std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto projectors = WorkloadProjectors(dtd, XMarkDashboardWorkload());
  if (!projectors.ok()) {
    std::fprintf(stderr, "checkpoint arm: %s\n",
                 projectors.status().ToString().c_str());
    return false;
  }
  PipelineOptions single;
  single.num_threads = 1;
  CheckpointHeader header;
  header.run_id = "bench-overhead";
  header.binding =
      ComputeCorpusBinding(corpus, *projectors, single, header.run_id);

  auto scrub = [](const std::string& dir, size_t outputs) {
    for (size_t i = 0; i < outputs; ++i) {
      std::remove(RunCheckpoint::TaskOutputPath(dir, i).c_str());
    }
    std::remove(RunCheckpoint::PathFor(dir).c_str());
    ::rmdir((dir + "/out").c_str());
    ::rmdir(dir.c_str());
  };
  auto run = [&](const char* side, const PipelineOptions& options,
                 const std::string& dir, bool commit_outputs) {
    auto pruned = PruneCorpusPerQuery(corpus, dtd, *projectors, options);
    if (!pruned.ok()) {
      std::fprintf(stderr, "checkpoint arm %s: %s\n", side,
                   pruned.status().ToString().c_str());
      return false;
    }
    for (size_t i = 0; commit_outputs && i < pruned->results.size(); ++i) {
      std::string error;
      if (!AtomicWriteTextFile(RunCheckpoint::TaskOutputPath(dir, i),
                               pruned->results[i].output,
                               /*fsync_file=*/true, &error)) {
        std::fprintf(stderr, "checkpoint arm %s: %s\n", side, error.c_str());
        return false;
      }
    }
    return true;
  };

  const size_t outputs = corpus.size() * projectors->size();
  Window written = [&](double* seconds) {
    std::string dir;
    if (!MakeScratchDir("checkpoint arm", &dir)) return false;
    ::mkdir((dir + "/out").c_str(), 0777);
    const auto start = std::chrono::steady_clock::now();
    const bool ok = run("W", single, dir, /*commit_outputs=*/true);
    *seconds = SecondsSince(start);
    scrub(dir, outputs);
    return ok;
  };
  Window checkpointed = [&](double* seconds) {
    std::string dir;
    if (!MakeScratchDir("checkpoint arm", &dir)) return false;
    RunCheckpoint checkpoint;
    Status created = checkpoint.Create(dir, header);
    if (!created.ok()) {
      std::fprintf(stderr, "checkpoint arm D: %s\n",
                   created.ToString().c_str());
      scrub(dir, 0);
      return false;
    }
    PipelineOptions durable = single;
    durable.checkpoint = &checkpoint;
    const auto start = std::chrono::steady_clock::now();
    const bool ok = run("D", durable, dir, /*commit_outputs=*/false);
    *seconds = SecondsSince(start);
    scrub(dir, outputs);
    return ok;
  };
  return MeasurePairs(written, checkpointed, result);
}

}  // namespace
}  // namespace xmlproj

int main() {
  using namespace xmlproj;
  auto dtd = LoadXMarkDtd();
  if (!dtd.ok()) {
    std::fprintf(stderr, "%s\n", dtd.status().ToString().c_str());
    return 2;
  }
  ArmResult request, checkpoint;
  if (!RequestArm(&request) || !CheckpointArm(*dtd, &checkpoint)) return 2;
  const bool request_ok = Report("request", request);
  const bool checkpoint_ok = Report("checkpoint", checkpoint);
  return request_ok && checkpoint_ok ? 0 : 1;
}
