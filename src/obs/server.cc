#include "obs/server.h"

#include <map>

#include "obs/export.h"
#include "obs/json.h"

namespace xmlproj {
namespace {

// Point-in-time view of the unlabeled series, keyed by name — the
// /healthz and /statusz builders read specific metrics out of it. Taken
// via the registry's ForEach* (the only const access path), so it costs
// one pass over the registry per request.
struct RegistrySnapshot {
  struct HistStats {
    uint64_t count = 0;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistStats> histograms;

  explicit RegistrySnapshot(const MetricsRegistry& registry) {
    registry.ForEachCounter([this](const std::string& name,
                                   const std::string& labels,
                                   const Counter& c) {
      if (labels.empty()) counters[name] = c.Value();
    });
    registry.ForEachGauge([this](const std::string& name,
                                 const std::string& labels, const Gauge& g) {
      if (labels.empty()) gauges[name] = g.Value();
    });
    registry.ForEachHistogram([this](const std::string& name,
                                     const std::string& labels,
                                     const Histogram& h) {
      if (labels.empty()) {
        histograms[name] = {h.Count(), h.ApproxPercentile(0.50),
                            h.ApproxPercentile(0.99)};
      }
    });
  }

  uint64_t CounterOr0(const char* name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  int64_t GaugeOr0(const char* name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }
};

// `circuit` is the CircuitState integer from the circuit_state callback,
// or -1 when no breaker is attached (the pre-breaker heuristic then).
void AppendHealthz(const MetricsRegistry& registry, uint64_t uptime_ns,
                   uint64_t requests, int circuit, std::string* out) {
  RegistrySnapshot snap(registry);
  uint64_t isolated = snap.CounterOr0("xmlproj_pipeline_isolated_total");
  uint64_t degraded = snap.CounterOr0("xmlproj_pipeline_degraded_total");
  // Status follows the breaker state machine when one is wired in:
  // closed → ok, half-open → degraded (probing), open → open (and the
  // endpoint returns 503, see MountObsEndpoints).
  const char* status = "ok";
  if (circuit == 1) status = "degraded";
  if (circuit == 2) status = "open";
  out->append("{\"status\":\"");
  out->append(status);
  out->append("\",\"uptime_ms\":");
  AppendU64(uptime_ns / 1000000, out);
  out->append(",\"requests\":");
  AppendU64(requests, out);
  out->append(",\"failures\":{\"errors\":");
  AppendU64(snap.CounterOr0("xmlproj_pipeline_errors_total"), out);
  out->append(",\"isolated\":");
  AppendU64(isolated, out);
  out->append(",\"degraded\":");
  AppendU64(degraded, out);
  out->append(",\"deadline_exceeded\":");
  AppendU64(snap.CounterOr0("xmlproj_pipeline_deadline_exceeded_total"), out);
  out->append(",\"resource_exhausted\":");
  AppendU64(snap.CounterOr0("xmlproj_pipeline_resource_exhausted_total"),
            out);
  out->append("},\"circuit\":\"");
  if (circuit >= 0) {
    // The real state machine (common/circuit.h via the callback).
    out->append(circuit == 0 ? "closed" : circuit == 1 ? "half-open" : "open");
    out->append("\",\"circuit_state\":");
    AppendU64(static_cast<uint64_t>(circuit), out);
    out->append(",\"fast_failed\":");
    AppendU64(snap.CounterOr0("xmlproj_circuit_fast_fail_total"), out);
    out->append("}\n");
    return;
  }
  // No breaker attached: the PR 3 error policies quarantine or degrade
  // rather than trip one; "degrading" reports those paths have fired.
  out->append(isolated != 0 || degraded != 0 ? "degrading" : "closed");
  out->append("\"}\n");
}

void AppendStageStats(const RegistrySnapshot& snap, const char* json_name,
                      const char* metric, bool* first, std::string* out) {
  auto it = snap.histograms.find(metric);
  if (it == snap.histograms.end()) return;
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(json_name);
  out->append("\":{\"count\":");
  AppendU64(it->second.count, out);
  out->append(",\"p50_ns\":");
  AppendU64(it->second.p50, out);
  out->append(",\"p99_ns\":");
  AppendU64(it->second.p99, out);
  out->push_back('}');
}

void AppendStatusz(const MetricsRegistry& registry, uint64_t uptime_ns,
                   const SloTracker* slo, std::string* out) {
  RegistrySnapshot snap(registry);
  out->append("{\"uptime_ms\":");
  AppendU64(uptime_ns / 1000000, out);
  out->append(",\"build\":{\"version\":");
  AppendJsonString(XmlprojVersion(), out);
  out->append(",\"compiler\":");
  AppendJsonString(XmlprojCompiler(), out);
  out->append("},\"threads\":");
  AppendI64(snap.GaugeOr0("xmlproj_pipeline_threads"), out);
  // Progress gauges are updated at task granularity by the pipeline and
  // only add: once no run is in flight, completed + failed == tasks and
  // inflight == 0.
  out->append(",\"progress\":{\"tasks\":");
  AppendI64(snap.GaugeOr0("xmlproj_progress_tasks"), out);
  out->append(",\"completed\":");
  AppendI64(snap.GaugeOr0("xmlproj_progress_completed"), out);
  out->append(",\"failed\":");
  AppendI64(snap.GaugeOr0("xmlproj_progress_failed"), out);
  out->append(",\"inflight\":");
  AppendI64(snap.GaugeOr0("xmlproj_progress_inflight"), out);
  out->append(",\"isolated\":");
  AppendU64(snap.CounterOr0("xmlproj_pipeline_isolated_total"), out);
  out->append(",\"degraded\":");
  AppendU64(snap.CounterOr0("xmlproj_pipeline_degraded_total"), out);
  out->append("},\"checkpoint\":{\"appends\":");
  AppendU64(snap.CounterOr0("xmlproj_checkpoint_appends"), out);
  out->append(",\"tasks_skipped\":");
  AppendU64(snap.CounterOr0("xmlproj_checkpoint_tasks_skipped"), out);
  out->append(",\"resumes\":");
  AppendU64(snap.CounterOr0("xmlproj_checkpoint_resume_total"), out);
  out->append(",\"drained\":");
  AppendU64(snap.CounterOr0("xmlproj_pipeline_drained_total"), out);
  out->append("},\"bytes\":{\"in\":");
  AppendU64(snap.CounterOr0("xmlproj_pipeline_input_bytes_total"), out);
  out->append(",\"out\":");
  AppendU64(snap.CounterOr0("xmlproj_pipeline_output_bytes_total"), out);
  out->append("},\"stages\":{");
  bool first = true;
  AppendStageStats(snap, "task", "xmlproj_stage_task_ns", &first, out);
  AppendStageStats(snap, "queue_wait", "xmlproj_stage_queue_wait_ns", &first,
                   out);
  out->push_back('}');
  if (slo != nullptr) {
    out->append(",\"slo\":");
    slo->AppendSloJson(out);
  }
  out->append("}\n");
}

}  // namespace

void MountObsEndpoints(HttpServer* server, const ObsServerOptions& options) {
  const MetricsRegistry* registry = options.registry;
  const TraceCollector* trace = options.trace;
  const std::function<int()> circuit_state = options.circuit_state;
  const uint64_t start_ns = MonotonicNowNs();

  server->Handle("GET", "/metrics", [registry](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    AppendPrometheusText(*registry, &response.body);
    return response;
  });
  server->Handle("GET", "/metrics.json", [registry](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    AppendMetricsJson(*registry, &response.body);
    return response;
  });
  // `server` outlives its handlers, so requests_served() is safe to read.
  HttpServer* owner = server;
  server->Handle(
      "GET", "/healthz",
      [registry, circuit_state, start_ns, owner](const HttpRequest&) {
        int circuit = circuit_state ? circuit_state() : -1;
        std::string body;
        AppendHealthz(*registry, MonotonicNowNs() - start_ns,
                      owner->requests_served(), circuit, &body);
        // An open breaker is the one condition a load balancer should
        // act on: stop routing until the cooldown lets probes through.
        return JsonResponse(circuit == 2 ? 503 : 200, std::move(body));
      });
  const SloTracker* slo = options.slo;
  server->Handle("GET", "/statusz",
                 [registry, slo, start_ns](const HttpRequest&) {
                   std::string body;
                   AppendStatusz(*registry, MonotonicNowNs() - start_ns, slo,
                                 &body);
                   return JsonResponse(200, std::move(body));
                 });
  server->Handle(
      "GET", "/tracez",
      [trace](const HttpRequest& request) {
        std::string body;
        if (trace != nullptr) {
          trace->AppendRecentSpansJson(kTracezMaxSpans,
                                       request.QueryParam("trace_id"),
                                       request.QueryParam("workload"), &body);
        } else {
          body = "{\"dropped\":0,\"spans\":[]}\n";
        }
        return JsonResponse(200, std::move(body));
      });
}

bool ObsServer::Start(const ObsServerOptions& options, std::string* error) {
  if (http_.running()) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  if (options.registry == nullptr) {
    if (error != nullptr) *error = "ObsServerOptions.registry is required";
    return false;
  }
  if (!mounted_) {
    MountObsEndpoints(&http_, options);
    http_.Handle("GET", "/", [](const HttpRequest&) {
      return TextResponse(
          200,
          "xmlproj obs server\n"
          "endpoints: /metrics /metrics.json /healthz /statusz /tracez\n");
    });
    mounted_ = true;
  }
  HttpServerOptions http_options;
  http_options.port = options.port;
  return http_.Start(http_options, error);
}

void ObsServer::Stop() { http_.Stop(); }

bool HttpGet(uint16_t port, const std::string& path, std::string* status_line,
             std::string* body, int timeout_ms, size_t max_response_bytes) {
  HttpClientOptions options;
  options.timeout_ms = timeout_ms;
  options.max_response_bytes = max_response_bytes;
  HttpClientResult result;
  if (!HttpCall(port, "GET", path, /*body=*/{}, /*content_type=*/{}, &result,
                options)) {
    return false;
  }
  if (status_line != nullptr) *status_line = result.status_line;
  if (body != nullptr) *body = std::move(result.body);
  return true;
}

}  // namespace xmlproj
