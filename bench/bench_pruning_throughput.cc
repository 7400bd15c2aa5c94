// Reproduces the §6 pruning-cost claims: pruning is a single bufferless
// one-pass traversal whose time is linear in the document size (the paper:
// computing the projector ~0.5s, pruning a 60MB document < 10s, constant
// memory), and pruning-while-parsing costs no more than parsing alone.
//
// google-benchmark binary; bytes/sec rates make the linearity visible
// across scales. The repository benchmark (perfbench/) measures the
// pipeline, the pool and the service, and bench/perf_ab.py gates on it.

#include <string>
#include <utility>

#include <benchmark/benchmark.h>

#include "dtd/validator.h"
#include "projection/projection.h"
#include "projection/pruner.h"
#include "xmark/generator.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"

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

}  // namespace
}  // namespace xmlproj

BENCHMARK_MAIN();
