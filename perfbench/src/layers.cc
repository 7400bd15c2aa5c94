#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "projection/pipeline.h"
#include "projection/pruner.h"
#include "service/client.h"
#include "xml/parser.h"
#include "xml/splice.h"

namespace perfbench {

namespace {

class NullHandler : public xmlproj::SaxHandler {
 public:
  xmlproj::Status StartElement(
      std::string_view, const std::vector<xmlproj::SaxAttribute>&) override {
    return xmlproj::Status::Ok();
  }
  xmlproj::Status EndElement(std::string_view) override {
    return xmlproj::Status::Ok();
  }
  xmlproj::Status Characters(std::string_view) override {
    return xmlproj::Status::Ok();
  }
};

enum Rung { kParse, kPrune, kSplice, kValidate, kPipeline, kPipelineObs,
            kRungs };
const char* const kRungSpan[kRungs] = {
    "xml.ParseXmlStream",          "projection.StreamingPruner",
    "xml.SplicingSerializingHandler", "dtd.ValidatingPruner",
    "projection.PruneDocument",    "obs.PruneDocumentWithMetrics"};

// The options /prune passes to PruneDocument besides budgets.
xmlproj::PipelineOptions ServiceOptions(xmlproj::MetricsRegistry* registry) {
  xmlproj::PipelineOptions options;
  options.metrics = registry;
  options.meter_memory = true;
  options.corpus_label = "perfbench";
  return options;
}

// Runs `body` `reps` or more times: at least 3, then until `budget_s` has
// passed, at most 9.
void Repeat(double budget_s, const std::function<void(int)>& body) {
  const uint64_t start = NowNs();
  for (int rep = 0; rep < 9; ++rep) {
    if (rep >= 3 && (NowNs() - start) / 1e9 > budget_s) break;
    body(rep);
  }
}

// One rung over one pair; returns nanoseconds, checks the output of the
// rungs that produce one, and adds the splicer's fallback count.
uint64_t RunRung(RunContext* ctx, Rung rung, size_t pair,
                 xmlproj::MetricsRegistry* registry, SpanRecorder* spans,
                 uint64_t* fallback_events) {
  const Inputs& in = *ctx->inputs;
  const System& sys = *ctx->system;
  const std::string& doc = in.docs[pair / in.specs.size()];
  const xmlproj::NameSet& projector = sys.projectors[pair % in.specs.size()];
  const uint64_t op = ctx->next_op.fetch_add(1);
  NullHandler null;
  std::string out;
  xmlproj::Status status;
  uint64_t t0 = NowNs();
  {
    ScopedSpan span(spans, kRungSpan[rung], op);
    switch (rung) {
      case kParse:
        status = xmlproj::ParseXmlStream(doc, &null);
        break;
      case kPrune: {
        xmlproj::StreamingPruner pruner(sys.dtd, projector, &null);
        status = xmlproj::ParseXmlStream(doc, &pruner);
        break;
      }
      case kSplice:
      case kValidate: {
        xmlproj::SplicingSerializingHandler sink(doc, &out);
        if (rung == kSplice) {
          xmlproj::StreamingPruner pruner(sys.dtd, projector, &sink);
          status = xmlproj::ParseXmlStream(doc, &pruner);
        } else {
          xmlproj::ValidatingPruner pruner(sys.dtd, projector, &sink);
          status = xmlproj::ParseXmlStream(doc, &pruner);
        }
        sink.Finish();
        if (rung == kSplice) *fallback_events += sink.fallback_events();
        break;
      }
      case kPipeline:
      case kPipelineObs: {
        xmlproj::PipelineOptions options = rung == kPipeline
                                               ? xmlproj::PipelineOptions{}
                                               : ServiceOptions(registry);
        options.validate = in.validate;
        xmlproj::Result<xmlproj::PipelineRun> run =
            xmlproj::PruneDocument(doc, sys.dtd, projector, options);
        if (run.ok()) {
          out = std::move(run->results[0].output);
        } else {
          status = run.status();
        }
        break;
      }
      case kRungs:
        break;
    }
  }
  uint64_t elapsed = NowNs() - t0;
  if (!status.ok()) {
    std::fprintf(stderr, "ladder rung %s failed: %s\n", kRungSpan[rung],
                 status.ToString().c_str());
    ctx->mismatches.fetch_add(1);
  } else if (rung >= kSplice) {
    ScopedSpan span(spans, "oracle.compare", op);
    ctx->Check(op, out, pair);
  }
  return elapsed;
}

}  // namespace

void MeasureLadder(RunContext* ctx, double budget_s, SpanRecorder* spans,
                   std::vector<Metric>* out) {
  const Inputs& in = *ctx->inputs;
  const double per_op = static_cast<double>(in.ops_per_pair_set());
  xmlproj::MetricsRegistry registry;
  const Rung top = in.validate ? kValidate : kSplice;
  std::vector<double> parse, prune, splice, validate, pipeline, tax;
  std::vector<double> rung_ms[kRungs];
  uint64_t fallback_events = 0;
  Repeat(budget_s, [&](int) {
    double ms[kRungs];
    fallback_events = 0;
    for (int r = 0; r < kRungs; ++r) {
      uint64_t ns = 0;
      for (size_t pair = 0; pair < in.pairs(); ++pair) {
        ns += RunRung(ctx, static_cast<Rung>(r), pair, &registry, spans,
                      &fallback_events);
      }
      ms[r] = ns / 1e6 / per_op;
      rung_ms[r].push_back(ms[r]);
    }
    parse.push_back(ms[kParse]);
    prune.push_back(ms[kPrune] - ms[kParse]);
    splice.push_back(ms[kSplice] - ms[kPrune]);
    validate.push_back(ms[kValidate] - ms[kSplice]);
    pipeline.push_back(ms[kPipeline] - ms[top]);
    tax.push_back((ms[kPipelineObs] / ms[kPipeline] - 1) * 100);
  });
  const double mb = in.TotalDocBytes() * in.specs.size() / 1e6 / per_op;
  std::printf("ladder (MB/s per rung, median of %zu reps):", parse.size());
  for (int r = 0; r < kRungs; ++r) {
    std::printf(" %s=%.0f", kRungSpan[r], mb / (Median(rung_ms[r]) / 1e3));
  }
  std::printf("\n");
  out->push_back({"xml.parse_ms", Median(parse), "ms"});
  out->push_back({"projection.prune_ms", Median(prune), "ms"});
  out->push_back({"xml.splice_ms", Median(splice), "ms"});
  out->push_back({"xml.splice_fallback_events", fallback_events / per_op,
                  "count"});
  out->push_back({"dtd.validate_ms", Median(validate), "ms"});
  out->push_back({"projection.pipeline_ms", Median(pipeline), "ms"});
  out->push_back({"obs.metrics_tax_pct", Median(tax), "%"});
}

void MeasureHttp(RunContext* ctx, const System& served, double budget_s,
                 const std::vector<double>& register_ms, SpanRecorder* spans,
                 std::vector<Metric>* out) {
  const Inputs& in = *ctx->inputs;
  const System& sys = *ctx->system;
  xmlproj::MetricsRegistry registry;
  xmlproj::ProjectionClientOptions client_options;
  client_options.port = served.service->port();
  xmlproj::ProjectionClient client(client_options);
  std::vector<double> overhead_ms;
  double http_total = 0, inproc_total = 0;
  Repeat(budget_s, [&](int rep) {
    for (size_t pair = 0; pair < in.pairs(); ++pair) {
      const std::string& doc = in.docs[pair / in.specs.size()];
      const size_t p = pair % in.specs.size();
      double http_ms = 0, inproc_ms = 0;
      // Alternate which side goes first so neither gets the warm cache.
      const bool http_first = (rep + pair) % 2 == 0;
      for (int side = 0; side < 2; ++side) {
        const uint64_t op = ctx->next_op.fetch_add(1);
        std::string output;
        bool ok = false;
        uint64_t t0 = NowNs();
        if ((side == 0) == http_first) {
          ScopedSpan span(spans, "service.ProjectionClient.Prune", op);
          auto outcome = client.Prune(served.workload_ids[p], doc);
          http_ms = (NowNs() - t0) / 1e6;
          if ((ok = outcome.ok())) output = std::move(outcome->output);
        } else {
          ScopedSpan span(spans, "projection.PruneDocument", op);
          auto run = xmlproj::PruneDocument(
              doc, sys.dtd, sys.projectors[p],
              ServiceOptions(&registry));
          inproc_ms = (NowNs() - t0) / 1e6;
          if ((ok = run.ok())) output = std::move(run->results[0].output);
        }
        if (!ok) {
          std::fprintf(stderr, "http probe: prune failed\n");
          ctx->mismatches.fetch_add(1);
        } else {
          ctx->Check(op, output, pair);
        }
      }
      overhead_ms.push_back(http_ms - inproc_ms);
      http_total += http_ms;
      inproc_total += inproc_ms;
    }
  });
  const xmlproj::ProjectorCache* cache = served.service->cache();
  const double lookups = static_cast<double>(cache->hits() + cache->misses());
  out->push_back({"http.overhead_ms_p50", Median(overhead_ms), "ms"});
  out->push_back(
      {"http.overhead_pct", (http_total / inproc_total - 1) * 100, "%"});
  out->push_back({"service.register_ms", Median(register_ms), "ms"});
  out->push_back({"service.cache_hit_pct",
                  lookups > 0 ? cache->hits() / lookups * 100 : 0, "%"});
}

void MeasurePool(RunContext* ctx, double budget_s, SpanRecorder* spans,
                 std::vector<Metric>* out) {
  const Inputs& in = *ctx->inputs;
  const System& sys = *ctx->system;
  const int threads = BenchThreads();
  std::vector<double> speedup;
  Repeat(budget_s, [&](int rep) {
    double seconds[2] = {0, 0};  // 1 thread, `threads` threads
    for (int k = 0; k < 2; ++k) {
      const int side = (rep + k) % 2;
      const uint64_t op = ctx->next_op.fetch_add(1);
      xmlproj::PipelineOptions options;
      options.num_threads = side == 0 ? 1 : threads;
      uint64_t t0 = NowNs();
      xmlproj::Result<xmlproj::PipelineRun> run = [&] {
        ScopedSpan span(spans, "common.ThreadPool.PruneCorpusPerQuery", op);
        return xmlproj::PruneCorpusPerQuery(in.docs, sys.dtd, sys.projectors,
                                            options);
      }();
      seconds[side] = (NowNs() - t0) / 1e9;
      if (!run.ok() || run->results.size() != in.pairs()) {
        std::fprintf(stderr, "pool probe: pass failed\n");
        ctx->mismatches.fetch_add(1);
        continue;
      }
      for (size_t i = 0; i < in.pairs(); ++i) {
        ctx->Check(op, run->results[i].output, i);
      }
    }
    speedup.push_back(seconds[0] / seconds[1]);
  });
  out->push_back({"pool.speedup", Median(speedup), "x"});
  out->push_back({"pool.efficiency", Median(speedup) / threads, "ratio"});
}

}  // namespace perfbench
