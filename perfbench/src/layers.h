// Per-layer measurements for the traced mode, all taken from outside by
// timing calls into each layer's public functions on the workload's own
// (document, projector) pairs.

#ifndef XMLPROJ_PERFBENCH_LAYERS_H_
#define XMLPROJ_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The ladder: each rung adds one stage to the pass (parse into a no-op
// handler, +StreamingPruner, +splicing sink, validating instead of
// streaming pruner, PruneDocument, PruneDocument with the /prune metrics
// options). Rungs are interleaved per repetition and layer costs are
// per-repetition differences, reported as the median per operation.
// Repeats at least 3 times and stops after `budget_s`.
void MeasureLadder(RunContext* ctx, double budget_s, SpanRecorder* spans,
                   std::vector<Metric>* out);

// HTTP cost per request: a POST /prune through ProjectionClient against
// `served`, minus an in-process PruneDocument with the options /prune
// uses, on the same pair. Also reports the register round trip and the
// projector cache hit share of `served`.
void MeasureHttp(RunContext* ctx, const System& served, double budget_s,
                 const std::vector<double>& register_ms, SpanRecorder* spans,
                 std::vector<Metric>* out);

// PruneCorpusPerQuery over the workload's documents and projectors at 1
// thread against BenchThreads() threads.
void MeasurePool(RunContext* ctx, double budget_s, SpanRecorder* spans,
                 std::vector<Metric>* out);

}  // namespace perfbench

#endif  // XMLPROJ_PERFBENCH_LAYERS_H_
