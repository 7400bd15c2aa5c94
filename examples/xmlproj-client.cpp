// xmlproj-client: command-line client for the xmlprojd daemon, built on
// the blocking client library (service/client.h). Also a workload/corpus
// utility: `gen` emits XMark documents with the same generator defaults
// as the batch parallel_prune_tool (scale 0.002, seed 20060912 + i), so
// a shell can diff the service's pruned bytes against the batch tool's —
// the parity check the CI service-smoke job runs.
//
//   xmlproj-client gen [--scale=S] [--seed=N] [--doc=I]
//       print XMark document I (generator seed N+I) to stdout
//   xmlproj-client workload-spec --dashboard
//       print the dashboard workload (bids/sellers/cheap/gold) as a
//       POST /workloads spec
//   xmlproj-client register --port=P [--dtd=NAME] [--file=SPEC]
//       register the workload spec (from --file or stdin); prints the
//       response JSON (including the workload id) to stdout
//   xmlproj-client prune --port=P --workload=ID [--validate]
//                  [--max-bytes=N] [--deadline-ms=N] [--file=DOC]
//                  [--traceparent=00-<32hex>-<16hex>-<2hex>]
//       prune the document (from --file or stdin); pruned bytes on
//       stdout, cache disposition on stderr
//   xmlproj-client list --port=P        GET /workloads
//   xmlproj-client health --port=P      GET /healthz
//   xmlproj-client get --port=P PATH    any GET (e.g. /metrics)
//   xmlproj-client dashboard --port=P
//       per-workload request latency: one row per
//       xmlproj_request_duration_seconds series (workload, route,
//       status code, count, p50/p99 in ms) from /metrics.json
//
// Exit codes: 0 success, 1 bad usage, 2 request failed (transport or
// non-2xx; the error is printed to stderr).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "xmark/corpus.h"
#include "xmark/queries.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

bool ReadInput(const std::string& file, std::string* out) {
  if (file.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    *out = buffer.str();
    return true;
  }
  std::ifstream in(file, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: xmlproj-client "
               "gen|workload-spec|register|prune|list|health|get|dashboard "
               "...\n"
               "(see the file comment in examples/xmlproj-client.cpp)\n");
  return 1;
}

// The RED-series latency dashboard: reads the
// xmlproj_request_duration_seconds histograms out of /metrics.json
// (values are raw nanoseconds there — only the Prometheus exposition
// scales to seconds) and prints one row per {workload,route,code} series.
int PrintDashboard(xmlproj::ProjectionClient& client) {
  using xmlproj::JsonReader;
  auto body = client.Get("/metrics.json");
  if (!body.ok()) {
    std::fprintf(stderr, "dashboard failed: %s\n",
                 body.status().ToString().c_str());
    return 2;
  }
  constexpr std::string_view kPrefix = "xmlproj_request_duration_seconds{";
  std::printf("%-22s %-14s %-5s %10s %12s %12s\n", "workload", "route",
              "code", "count", "p50_ms", "p99_ms");
  JsonReader r(*body);
  auto skip_object = [&r] {
    return r.ReadObject([&r](const std::string&) { return r.SkipScalar(); });
  };
  bool any = false;
  bool ok = r.ReadObject([&](const std::string& section) {
    if (section != "histograms") return skip_object();
    return r.ReadObject([&](const std::string& series) {
      uint64_t count = 0, p50 = 0, p99 = 0;
      bool read = r.ReadObject([&](const std::string& field) {
        if (field == "count") return r.ReadU64(&count);
        if (field == "p50") return r.ReadU64(&p50);
        if (field == "p99") return r.ReadU64(&p99);
        if (field == "buckets") return r.ReadArray(skip_object);
        return r.SkipScalar();
      });
      if (!read) return false;
      if (!series.starts_with(kPrefix) || !series.ends_with('}')) return true;
      std::string workload, route, code;
      for (const xmlproj::MetricLabel& label : xmlproj::DecodeMetricLabels(
               std::string_view(series).substr(
                   kPrefix.size(), series.size() - kPrefix.size() - 1))) {
        if (label.key == "workload") workload = label.value;
        if (label.key == "route") route = label.value;
        if (label.key == "code") code = label.value;
      }
      std::printf("%-22s %-14s %-5s %10llu %12.3f %12.3f\n",
                  workload.c_str(), route.c_str(), code.c_str(),
                  static_cast<unsigned long long>(count),
                  static_cast<double>(p50) / 1e6,
                  static_cast<double>(p99) / 1e6);
      any = true;
      return true;
    });
  });
  if (!ok || !r.AtEnd()) {
    std::fprintf(stderr, "dashboard failed: malformed /metrics.json\n");
    return 2;
  }
  if (!any) {
    std::printf("(no xmlproj_request_duration_seconds series yet — "
                "send some requests first)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xmlproj;
  if (argc < 2) return Usage();
  std::string command = argv[1];

  std::string port_str, file, dtd, workload, scale_str = "0.002",
                              seed_str = "20060912", doc_str = "0";
  bool dashboard = false;
  PruneRequestOptions prune_options;
  std::string extra_path;
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--port", &value)) {
      port_str = value;
    } else if (ParseFlag(argv[i], "--file", &value)) {
      file = value;
    } else if (ParseFlag(argv[i], "--dtd", &value)) {
      dtd = value;
    } else if (ParseFlag(argv[i], "--workload", &value)) {
      workload = value;
    } else if (ParseFlag(argv[i], "--scale", &value)) {
      scale_str = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      seed_str = value;
    } else if (ParseFlag(argv[i], "--doc", &value)) {
      doc_str = value;
    } else if (ParseFlag(argv[i], "--max-bytes", &value)) {
      prune_options.max_bytes = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(argv[i], "--deadline-ms", &value)) {
      prune_options.deadline_ms =
          static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(argv[i], "--traceparent", &value)) {
      prune_options.traceparent = value;
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      prune_options.validate = true;
    } else if (std::strcmp(argv[i], "--dashboard") == 0) {
      dashboard = true;
    } else if (argv[i][0] != '-') {
      extra_path = argv[i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  if (command == "gen") {
    // Matches the batch tool's corpus: document I is generated with
    // seed + I, so `gen --doc=I` equals corpus[I] of a --docs=N run.
    XMarkCorpusOptions options;
    options.documents = 1;
    options.scale = std::atof(scale_str.c_str());
    options.seed = static_cast<uint64_t>(std::atoll(seed_str.c_str())) +
                   static_cast<uint64_t>(std::atoll(doc_str.c_str()));
    std::vector<std::string> corpus = GenerateXMarkCorpus(options);
    std::fwrite(corpus[0].data(), 1, corpus[0].size(), stdout);
    return 0;
  }

  if (command == "workload-spec") {
    if (!dashboard) return Usage();
    std::string spec;
    for (const BenchmarkQuery& query : XMarkDashboardWorkload()) {
      spec += query.id;
      spec += '\t';
      spec += query.language == QueryLanguage::kXQuery ? "xquery" : "xpath";
      spec += '\t';
      spec += query.text;
      spec += '\n';
    }
    std::fwrite(spec.data(), 1, spec.size(), stdout);
    return 0;
  }

  if (port_str.empty()) return Usage();
  ProjectionClientOptions client_options;
  client_options.port = static_cast<uint16_t>(std::atoi(port_str.c_str()));
  ProjectionClient client(client_options);

  if (command == "register") {
    std::string spec;
    if (!ReadInput(file, &spec)) {
      std::fprintf(stderr, "cannot read %s\n", file.c_str());
      return 1;
    }
    auto registration = client.RegisterWorkload(spec, dtd);
    if (!registration.ok()) {
      std::fprintf(stderr, "register failed: %s\n",
                   registration.status().ToString().c_str());
      return 2;
    }
    std::fwrite(registration->raw_json.data(), 1,
                registration->raw_json.size(), stdout);
    return 0;
  }

  if (command == "prune") {
    if (workload.empty()) return Usage();
    std::string document;
    if (!ReadInput(file, &document)) {
      std::fprintf(stderr, "cannot read %s\n", file.c_str());
      return 1;
    }
    auto outcome = client.Prune(workload, document, prune_options);
    if (!outcome.ok()) {
      std::fprintf(stderr, "prune failed: %s\n",
                   outcome.status().ToString().c_str());
      return 2;
    }
    std::fwrite(outcome->output.data(), 1, outcome->output.size(), stdout);
    std::fprintf(stderr, "projector cache: %s\n",
                 outcome->cache_hit ? "hit" : "miss");
    if (!outcome->trace_id.empty()) {
      std::fprintf(stderr, "trace: %s request: %s\n",
                   outcome->trace_id.c_str(), outcome->request_id.c_str());
    }
    return 0;
  }

  if (command == "dashboard") return PrintDashboard(client);

  Result<std::string> body = InternalError("unhandled");
  if (command == "list") {
    body = client.ListWorkloads();
  } else if (command == "health") {
    body = client.Healthz();
  } else if (command == "get") {
    if (extra_path.empty()) return Usage();
    body = client.Get(extra_path);
  } else {
    return Usage();
  }
  if (!body.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", command.c_str(),
                 body.status().ToString().c_str());
    return 2;
  }
  std::fwrite(body->data(), 1, body->size(), stdout);
  return 0;
}
