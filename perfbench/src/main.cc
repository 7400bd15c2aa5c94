// Repository benchmark binary. One run measures one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt-op K] [--trace-out PATH]
//
// Inputs come from the seed; set-up is repeated and its median reported;
// every operation's output is compared with a reference built by the
// writer-based serializer. Human-readable lines go to stdout first; the
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 0 only when every output was correct.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  uint64_t corrupt_op = 0;
  std::string trace_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload doc_selective|doc_validate|"
               "service_mix|corpus_fanout --seed N --seconds S --trace 0|1 "
               "[--tiny] [--corrupt-op K] [--trace-out PATH]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--corrupt-op") {
      args->corrupt_op = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty();
}

// Which end-to-end metric each layer metric should move, and where.
struct LayerNote {
  const char* name;
  const char* moves;
};
constexpr LayerNote kLayerNotes[] = {
    {"floor.memcpy_mb_s", "nothing (machine floor)"},
    {"floor.memchr_mb_s", "nothing (machine floor; skip-scan target)"},
    {"xml.parse_ms", "prune_mb_s on doc_selective"},
    {"projection.prune_ms", "prune_ms_p50 on doc_selective"},
    {"xml.splice_ms", "prune_ms_p50 on service_mix, doc_validate"},
    {"xml.splice_fallback_events", "- (count)"},
    {"dtd.validate_ms", "prune_mb_s on service_mix, doc_validate"},
    {"projection.pipeline_ms", "prune_ms_p50 on all, most corpus_fanout"},
    {"obs.metrics_tax_pct", "prune_ms_p50 on service_mix"},
    {"http.overhead_ms_p50", "prune_mb_s on service_mix"},
    {"http.overhead_pct", "prune_mb_s on service_mix"},
    {"service.register_ms", "setup_s on service_mix"},
    {"service.cache_hit_pct", "setup_s on service_mix"},
    {"projection.analysis_us", "setup_s on all"},
    {"dtd.load_us", "setup_s on all"},
    {"pool.speedup", "prune_mb_s on corpus_fanout"},
    {"pool.efficiency", "prune_mb_s on corpus_fanout"},
    {"projection.kept_bytes_pct", "- (guards analysis precision)"},
    {"projection.kept_nodes_pct", "- (guards analysis precision)"},
    {"mem.peak_rss_mb", "- (memory; too seed-dependent for a bound)"},
    {"trace.overhead_pct", "- (cost of the traced mode itself)"},
};

const char* MovesFor(const std::string& name) {
  for (const LayerNote& note : kLayerNotes) {
    if (name == note.name) return note.moves;
  }
  return "";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Set-up repetitions before the window and again after each quarter.
constexpr int kSetupReps = 5;

int Run(const Args& args) {
  Inputs inputs;
  if (!MakeInputs(args.workload, args.seed, args.tiny, &inputs)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage();
  }
  std::printf("workload=%s seed=%llu docs=%zu input_bytes=%zu threads=%d\n",
              inputs.name.c_str(), static_cast<unsigned long long>(args.seed),
              inputs.docs.size(), inputs.TotalDocBytes(),
              inputs.kind == Kind::kDocument ? 1 : BenchThreads());

  SpanRecorder recorder;
  SpanRecorder* spans = args.trace ? &recorder : nullptr;
  const MachineFloor floor = MeasureFloor(inputs.DocPointers(), 7);
  std::printf("floor.memcpy_mb_s=%.1f floor.memchr_mb_s=%.1f\n",
              floor.memcpy_mb_s, floor.memchr_mb_s);

  std::string error;
  System system;
  SetupTimes setup;
  if (!SetUp(inputs, kSetupReps, spans, &system, &setup, &error)) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return 1;
  }
  Oracle oracle;
  if (!BuildOracle(inputs, system, &oracle, &error)) {
    std::fprintf(stderr, "oracle failed: %s\n", error.c_str());
    return 1;
  }
  const double kept_bytes_pct = 100.0 * oracle.kept_bytes / oracle.input_bytes;
  const double kept_nodes_pct = 100.0 * oracle.kept_nodes / oracle.input_nodes;
  std::printf("kept_bytes=%llu/%llu (%.4f%%) kept_nodes=%llu/%llu (%.4f%%)\n",
              static_cast<unsigned long long>(oracle.kept_bytes),
              static_cast<unsigned long long>(oracle.input_bytes),
              kept_bytes_pct,
              static_cast<unsigned long long>(oracle.kept_nodes),
              static_cast<unsigned long long>(oracle.input_nodes),
              kept_nodes_pct);

  RunContext ctx;
  ctx.inputs = &inputs;
  ctx.system = &system;
  ctx.oracle = &oracle;
  ctx.next_op = 100;  // set-up repetitions use the ids below
  ctx.corrupt_op = args.corrupt_op;

  // Warm-up: caches, allocator and the service's connections settle.
  WindowResult total = RunWindow(&ctx, args.tiny ? 0.05 : 0.5, nullptr);

  // The timed window runs in quarters. Each quarter's peak RSS growth is
  // taken above the RSS at its start. Between quarters, outside the
  // window, set-up is repeated on a throwaway system so the reported
  // set-up median samples the whole run, not one moment of it. In the
  // traced run the odd quarters record spans and the even ones do not.
  WindowResult plain, traced;
  std::vector<double> peak_mb;
  for (int quarter = 0; quarter < 4; ++quarter) {
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "warning: could not reset VmHWM\n");
    }
    const uint64_t base_kb = ProcStatusKb("VmRSS");
    const bool on = args.trace && quarter % 2 == 1;
    WindowResult w = RunWindow(&ctx, args.seconds / 4, on ? spans : nullptr);
    const uint64_t peak_kb = ProcStatusKb("VmHWM");
    peak_mb.push_back((peak_kb > base_kb ? peak_kb - base_kb : 0) * 1024 /
                      1e6);
    WindowResult& into = on ? traced : plain;
    into.Merge(w);
    into.seconds += w.seconds;
    System spare;
    if (!SetUp(inputs, kSetupReps, nullptr, &spare, &setup, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
  }
  total.Merge(plain);
  total.Merge(traced);
  std::printf("peak_rss_mb=%.3f (median quarter) setup_reps=%zu\n",
              Median(peak_mb), setup.total_s.size());

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::vector<double>& lat = plain.latencies_ms;
    metrics = {
        {"prune_mb_s", plain.mb_per_s(), "MB/s"},
        {"prune_ms_p50", Quantile(lat, 0.5), "ms"},
        {"prune_ms_p90", Quantile(lat, 0.9), "ms"},
        {"setup_s", Median(setup.total_s), "s"},
    };
    std::printf("samples=%zu window_s=%.3f latency_ms:", lat.size(),
                plain.seconds);
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      std::printf(" q%.0f=%.1f", q * 100, Quantile(lat, q));
    }
    std::printf("\n");
  } else {
    std::printf("untraced prune_mb_s=%.2f traced prune_mb_s=%.2f\n",
                plain.mb_per_s(), traced.mb_per_s());
    const double budget = std::max(1.0, args.seconds / 4);
    metrics.push_back({"floor.memcpy_mb_s", floor.memcpy_mb_s, "MB/s"});
    metrics.push_back({"floor.memchr_mb_s", floor.memchr_mb_s, "MB/s"});
    MeasureLadder(&ctx, budget, spans, &metrics);
    System probe;
    const System* served = &system;
    std::vector<double> register_ms = setup.register_ms;
    if (system.service == nullptr) {
      // A loopback service sized for this workload's documents.
      size_t max_doc = 64u << 20;
      for (const std::string& doc : inputs.docs) {
        max_doc = std::max(max_doc, doc.size() + (1u << 20));
      }
      if (!StartService(inputs, max_doc, spans, ctx.next_op.fetch_add(1),
                        &probe, &register_ms, &error)) {
        std::fprintf(stderr, "probe service failed: %s\n", error.c_str());
        return 1;
      }
      served = &probe;
    }
    MeasureHttp(&ctx, *served, budget, register_ms, spans, &metrics);
    MeasurePool(&ctx, budget, spans, &metrics);
    metrics.push_back({"projection.analysis_us", Median(setup.analysis_us),
                       "us"});
    metrics.push_back({"dtd.load_us", Median(setup.dtd_load_us), "us"});
    metrics.push_back({"projection.kept_bytes_pct", kept_bytes_pct, "%"});
    metrics.push_back({"projection.kept_nodes_pct", kept_nodes_pct, "%"});
    metrics.push_back({"mem.peak_rss_mb", Median(peak_mb), "MB"});
    metrics.push_back({"trace.overhead_pct",
                       (plain.mb_per_s() / traced.mb_per_s() - 1) * 100, "%"});
    for (const auto& [layer, ms] : recorder.SelfMsByLayer()) {
      std::printf("self_ms layer=%s %.3f\n", layer.c_str(), ms);
    }
    for (const Metric& m : metrics) {
      std::printf("%-28s %14.4f %-6s moves %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), MovesFor(m.name));
    }
    if (!args.trace_out.empty()) {
      if (!recorder.WriteJsonLines(args.trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
      std::printf("spans=%zu written to %s\n", recorder.size(),
                  args.trace_out.c_str());
    }
  }

  bool correct = total.failed == 0 && ctx.mismatches.load() == 0;
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      correct = false;
      m.value = 0;
    }
  }
  const double error_pct =
      total.attempted == 0 ? 0 : 100.0 * total.failed / total.attempted;
  std::printf("attempted=%llu failed=%llu error_pct=%.4f checks=%llu "
              "mismatches=%llu\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed), error_pct,
              static_cast<unsigned long long>(ctx.checks.load()),
              static_cast<unsigned long long>(ctx.mismatches.load()));
  PrintResult(correct, total.attempted, total.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return perfbench::Usage();
  return perfbench::Run(args);
}
