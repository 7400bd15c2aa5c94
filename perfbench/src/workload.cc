#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "projection/pipeline.h"
#include "projection/pruner.h"
#include "service/client.h"
#include "xmark/corpus.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {

using xmlproj::BenchmarkQuery;
using xmlproj::QueryLanguage;

namespace {

std::string SpecLine(const BenchmarkQuery& query) {
  return query.id + '\t' +
         (query.language == QueryLanguage::kXQuery ? "xquery" : "xpath") +
         '\t' + query.text + '\n';
}

std::string SuiteQuerySpec(const std::vector<BenchmarkQuery>& suite,
                           const std::string& id) {
  for (const BenchmarkQuery& query : suite) {
    if (query.id == id) return SpecLine(query);
  }
  return "";
}

std::string DashboardSpec() {
  std::string spec;
  for (const BenchmarkQuery& query : xmlproj::XMarkDashboardWorkload()) {
    spec += SpecLine(query);
  }
  return spec;
}

// Appends `count` XMark documents at `scale`, each from the next seed of
// `rng`.
void AddDocs(xmlproj::Rng* rng, int count, double scale,
             std::vector<std::string>* docs) {
  for (int i = 0; i < count; ++i) {
    xmlproj::XMarkOptions options;
    options.scale = scale;
    options.seed = rng->Next();
    docs->push_back(xmlproj::GenerateXMarkText(options));
  }
}

}  // namespace

size_t Inputs::TotalDocBytes() const {
  size_t total = 0;
  for (const std::string& doc : docs) total += doc.size();
  return total;
}

std::vector<const std::string*> Inputs::DocPointers() const {
  std::vector<const std::string*> out;
  for (const std::string& doc : docs) out.push_back(&doc);
  return out;
}

bool MakeInputs(const std::string& name, uint64_t seed, bool tiny,
                Inputs* out) {
  out->name = name;
  xmlproj::Rng rng(seed);
  const std::string qm06 = SuiteQuerySpec(xmlproj::XMarkQueries(), "QM06");
  const std::string qp13 = SuiteQuerySpec(xmlproj::XPathMarkQueries(), "QP13");
  if (name == "doc_selective" || name == "doc_validate") {
    out->kind = Kind::kDocument;
    out->validate = name == "doc_validate";
    AddDocs(&rng, 1, tiny ? 0.01 : 1.0, &out->docs);
    out->specs = {out->validate ? DashboardSpec() : qm06};
  } else if (name == "service_mix") {
    out->kind = Kind::kService;
    // Two documents each of ~0.75, ~3 and ~12 MB.
    for (double scale : {0.01, 0.04, 0.16}) {
      AddDocs(&rng, 2, tiny ? scale / 10 : scale, &out->docs);
    }
    out->specs = {qm06, DashboardSpec(), qp13};
    // Every (document, workload) pair four times, one of them validating,
    // in a seeded order that the clients then cycle through.
    for (size_t d = 0; d < out->docs.size(); ++d) {
      for (size_t w = 0; w < out->specs.size(); ++w) {
        for (int v = 0; v < 4; ++v) out->schedule.push_back({d, w, v == 0});
      }
    }
    for (size_t i = out->schedule.size(); i > 1; --i) {
      std::swap(out->schedule[i - 1], out->schedule[rng.Below(i)]);
    }
  } else if (name == "corpus_fanout") {
    out->kind = Kind::kCorpus;
    AddDocs(&rng, tiny ? 8 : 64, tiny ? 0.002 : 0.01, &out->docs);
    for (const BenchmarkQuery& query : xmlproj::XMarkDashboardWorkload()) {
      out->specs.push_back(SpecLine(query));
    }
  } else {
    return false;
  }
  return std::none_of(out->specs.begin(), out->specs.end(),
                      [](const std::string& s) { return s.empty(); });
}

bool StartService(const Inputs& inputs, size_t max_document_bytes,
                  SpanRecorder* spans, uint64_t op, System* system,
                  std::vector<double>* register_ms, std::string* error) {
  system->service.reset();  // stops it before its registry goes
  system->registry = std::make_unique<xmlproj::MetricsRegistry>();
  system->service = std::make_unique<xmlproj::ProjectionService>();
  system->workload_ids.clear();
  {
    ScopedSpan span(spans, "service.Start", op);
    if (!system->service->RegisterDtd("xmark", xmlproj::XMarkDtdText(),
                                      "site", error)) {
      return false;
    }
    xmlproj::ProjectionServiceOptions options;
    options.metrics = system->registry.get();
    options.limits.max_document_bytes = max_document_bytes;
    if (!system->service->Start(options, error)) return false;
  }
  xmlproj::ProjectionClientOptions client_options;
  client_options.port = system->service->port();
  xmlproj::ProjectionClient client(client_options);
  for (const std::string& spec : inputs.specs) {
    uint64_t t0 = NowNs();
    xmlproj::Result<xmlproj::WorkloadRegistration> registration = [&] {
      ScopedSpan span(spans, "service.RegisterWorkload", op);
      return client.RegisterWorkload(spec, "xmark");
    }();
    if (register_ms != nullptr) register_ms->push_back((NowNs() - t0) / 1e6);
    if (!registration.ok()) {
      *error = "POST /workloads: " + registration.status().ToString();
      return false;
    }
    system->workload_ids.push_back(registration->id);
  }
  return true;
}

bool SetUp(const Inputs& inputs, int reps, SpanRecorder* spans,
           System* system, SetupTimes* times, std::string* error) {
  for (int rep = 0; rep < reps; ++rep) {
    // The previous repetition's service stops outside the timed region.
    system->service.reset();
    system->projectors.clear();
    const uint64_t op = static_cast<uint64_t>(rep) + 1;
    // The in-process part moves across CPUs like the document loops; the
    // service starts unpinned, since its workers inherit the mask.
    std::optional<CpuPin> pin(std::in_place, rep);
    ScopedSpan setup_span(spans, "bench.setup", op);
    uint64_t start = NowNs();
    xmlproj::Result<xmlproj::Dtd> dtd = [&] {
      ScopedSpan span(spans, "dtd.LoadXMarkDtd", op);
      return xmlproj::LoadXMarkDtd();
    }();
    uint64_t loaded = NowNs();
    if (!dtd.ok()) {
      *error = "LoadXMarkDtd: " + dtd.status().ToString();
      return false;
    }
    system->dtd = std::move(*dtd);
    times->dtd_load_us.push_back((loaded - start) / 1e3);
    for (const std::string& spec : inputs.specs) {
      uint64_t t0 = NowNs();
      xmlproj::Result<xmlproj::NameSet> projector =
          [&]() -> xmlproj::Result<xmlproj::NameSet> {
        ScopedSpan span(spans, "projection.CompileWorkloadProjector", op);
        XMLPROJ_ASSIGN_OR_RETURN(std::vector<xmlproj::WorkloadQuery> queries,
                                 xmlproj::ParseWorkloadSpec(spec));
        return xmlproj::CompileWorkloadProjector(system->dtd, queries);
      }();
      times->analysis_us.push_back((NowNs() - t0) / 1e3);
      if (!projector.ok()) {
        *error = "CompileWorkloadProjector: " + projector.status().ToString();
        return false;
      }
      system->projectors.push_back(std::move(*projector));
    }
    pin.reset();
    if (inputs.kind == Kind::kService &&
        !StartService(inputs, 64u << 20, spans, op, system,
                      &times->register_ms, error)) {
      return false;
    }
    times->total_s.push_back((NowNs() - start) / 1e9);
  }
  return true;
}

bool BuildOracle(const Inputs& inputs, const System& system, Oracle* oracle,
                 std::string* error) {
  for (size_t d = 0; d < inputs.docs.size(); ++d) {
    for (size_t p = 0; p < system.projectors.size(); ++p) {
      std::string out;
      xmlproj::SerializingHandler writer(&out);
      xmlproj::StreamingPruner pruner(system.dtd, system.projectors[p],
                                      &writer);
      xmlproj::Status status = xmlproj::ParseXmlStream(inputs.docs[d], &pruner);
      if (!status.ok()) {
        *error = "oracle pass: " + status.ToString();
        return false;
      }
      oracle->input_bytes += inputs.docs[d].size();
      oracle->kept_bytes += out.size();
      oracle->input_nodes += pruner.stats().input_nodes;
      oracle->kept_nodes += pruner.stats().kept_nodes;
      oracle->outputs.push_back(std::move(out));
    }
  }
  return true;
}

bool RunContext::Check(uint64_t op, std::string_view output, size_t pair) {
  checks.fetch_add(1, std::memory_order_relaxed);
  const std::string& reference = oracle->outputs[pair];
  bool same;
  if (op == corrupt_op && !output.empty()) {
    std::string corrupted(output);
    corrupted[corrupted.size() / 2] ^= 1;
    same = corrupted == reference;
  } else {
    same = output == reference;
  }
  if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
  return same;
}

void WindowResult::Merge(const WindowResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  input_bytes += other.input_bytes;
  latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                      other.latencies_ms.end());
}

namespace {

void ReportFailure(uint64_t op, const std::string& what) {
  std::fprintf(stderr, "op %llu failed: %s\n",
               static_cast<unsigned long long>(op), what.c_str());
}

// One operation: the timed call, then the oracle comparison.
void RunOp(RunContext* ctx, uint64_t op, xmlproj::ProjectionClient* client,
           SpanRecorder* spans, WindowResult* result) {
  const Inputs& in = *ctx->inputs;
  const System& sys = *ctx->system;
  ScopedSpan op_span(spans, "bench.op", op);
  ++result->attempted;
  bool ok = false;
  uint64_t bytes = 0, t0 = 0, t1 = 0;
  switch (in.kind) {
    case Kind::kDocument: {
      xmlproj::PipelineOptions options;
      options.validate = in.validate;
      t0 = NowNs();
      xmlproj::Result<xmlproj::PipelineRun> run = [&] {
        ScopedSpan span(spans, "projection.PruneDocument", op);
        return xmlproj::PruneDocument(in.docs[0], sys.dtd, sys.projectors[0],
                                      options);
      }();
      t1 = NowNs();
      bytes = in.docs[0].size();
      if (!run.ok()) {
        ReportFailure(op, run.status().ToString());
        break;
      }
      ScopedSpan span(spans, "oracle.compare", op);
      ok = ctx->Check(op, run->results[0].output, 0);
      break;
    }
    case Kind::kService: {
      const Request& req = in.schedule[op % in.schedule.size()];
      xmlproj::PruneRequestOptions options;
      options.validate = req.validate;
      t0 = NowNs();
      xmlproj::Result<xmlproj::PruneOutcome> outcome = [&] {
        ScopedSpan span(spans, "service.ProjectionClient.Prune", op);
        return client->Prune(sys.workload_ids[req.workload],
                             in.docs[req.doc], options);
      }();
      t1 = NowNs();
      bytes = in.docs[req.doc].size();
      if (!outcome.ok()) {
        ReportFailure(op, outcome.status().ToString());
        break;
      }
      ScopedSpan span(spans, "oracle.compare", op);
      ok = ctx->Check(op, outcome->output,
                      req.doc * in.specs.size() + req.workload);
      break;
    }
    case Kind::kCorpus: {
      xmlproj::PipelineOptions options;
      options.num_threads = BenchThreads();
      t0 = NowNs();
      xmlproj::Result<xmlproj::PipelineRun> run = [&] {
        ScopedSpan span(spans, "projection.PruneCorpusPerQuery", op);
        return xmlproj::PruneCorpusPerQuery(in.docs, sys.dtd, sys.projectors,
                                            options);
      }();
      t1 = NowNs();
      bytes = in.TotalDocBytes() * in.specs.size();
      if (!run.ok() || run->results.size() != in.pairs()) {
        ReportFailure(op, run.ok() ? "result count" : run.status().ToString());
        break;
      }
      ScopedSpan span(spans, "oracle.compare", op);
      ok = true;
      for (size_t i = 0; i < in.pairs(); ++i) {
        ok = ctx->Check(op, run->results[i].output, i) && ok;
      }
      break;
    }
  }
  result->latencies_ms.push_back((t1 - t0) / 1e6);
  if (ok) {
    result->input_bytes += bytes;
  } else {
    ++result->failed;
  }
}

}  // namespace

WindowResult RunWindow(RunContext* ctx, double seconds, SpanRecorder* spans) {
  const int threads =
      ctx->inputs->kind == Kind::kService ? BenchThreads() : 1;
  std::vector<WindowResult> per_thread(threads);
  std::vector<uint64_t> last_end(threads);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  auto loop = [&](int t) {
    std::unique_ptr<xmlproj::ProjectionClient> client;
    if (ctx->system->service != nullptr) {
      xmlproj::ProjectionClientOptions options;
      options.port = ctx->system->service->port();
      client = std::make_unique<xmlproj::ProjectionClient>(options);
    }
    std::optional<CpuMigrator> migrator;
    if (ctx->inputs->kind == Kind::kDocument) migrator.emplace(10);
    while (NowNs() < deadline) {
      RunOp(ctx, ctx->next_op.fetch_add(1), client.get(), spans,
            &per_thread[t]);
    }
    migrator.reset();
    last_end[t] = NowNs();
  };
  if (threads == 1) {
    loop(0);
  } else {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) workers.emplace_back(loop, t);
    for (std::thread& worker : workers) worker.join();
  }
  WindowResult total;
  for (const WindowResult& r : per_thread) total.Merge(r);
  total.seconds =
      (*std::max_element(last_end.begin(), last_end.end()) - start) / 1e9;
  return total;
}

}  // namespace perfbench
