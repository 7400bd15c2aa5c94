// Embedded observability HTTP server: a background thread serving the
// live MetricsRegistry / TraceCollector over plain HTTP while a pipeline
// run is in flight. Built on the reusable loopback HTTP core
// (common/http/http.h) and bound to 127.0.0.1: this is an operator
// scrape surface, not an internet-facing service.
//
// Endpoints:
//   /metrics       Prometheus text exposition (version 0.0.4)
//   /metrics.json  the obs/export.h JSON document
//   /healthz       liveness + failure/degradation counters (JSON)
//   /statusz       pipeline progress: task counts, bytes, stage
//                  latencies, uptime (JSON)
//   /tracez        most recent sampled trace spans (JSON)
//
// The endpoints only read: relaxed-atomic metric values under the
// registry's iteration lock, never blocking the hot path beyond what an
// exporter already does. With no server started, instrumented code does
// zero additional socket or clock work — the server is an observer, not
// a participant.
//
// Two deployment shapes:
//  - ObsServer: the standalone scrape server (what the pipeline tool's
//    --serve-metrics runs) — owns an HttpServer with the routes above.
//  - MountObsEndpoints(): registers the same routes onto a router the
//    caller owns, so a service daemon (service/service.h) serves its
//    data plane and this observability plane from one port.

#ifndef XMLPROJ_OBS_SERVER_H_
#define XMLPROJ_OBS_SERVER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/http/http.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace xmlproj {

// Upper bound on the spans one /tracez response returns (the most recent
// ones; the payload reports how many were dropped).
inline constexpr size_t kTracezMaxSpans = 256;

struct ObsServerOptions {
  // TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back from
  // ObsServer::port() after Start).
  uint16_t port = 0;
  // Metrics source; must outlive the server. Required.
  const MetricsRegistry* registry = nullptr;
  // Span source for /tracez; optional (null serves an empty span list).
  // /tracez accepts ?trace_id=<32 hex> and ?workload=<id> filters,
  // applied before the kTracezMaxSpans cut.
  const TraceCollector* trace = nullptr;
  // Per-workload SLO burn rates; optional. When set, /statusz gains an
  // "slo" block (objectives plus 5m/1h burn per workload).
  const SloTracker* slo = nullptr;
  // Live circuit-breaker state for /healthz, as the CircuitState integer
  // (0=closed, 1=half-open, 2=open). A callback rather than a breaker
  // pointer because obs/ sits below common/ (where common/circuit.h
  // lives) in the link order — wire it as
  //   options.circuit_state = [&breaker] { return breaker.state_int(); };
  // With a callback attached /healthz reports the real state machine:
  // status ok/degraded/open following the breaker, HTTP 503 while open
  // so load balancers can act on it. Without one (the default) /healthz
  // keeps the counter-derived heuristic and always returns 200.
  std::function<int()> circuit_state;
};

// Registers the observability endpoints (/metrics, /metrics.json,
// /healthz, /statusz, /tracez) on `server`, which must not have been
// started yet. `options.port` is ignored — the owning router decides
// where to listen. Uptime is measured from the mount. The borrowed
// registry/trace pointers must outlive the server.
void MountObsEndpoints(HttpServer* server, const ObsServerOptions& options);

class ObsServer {
 public:
  ObsServer() = default;
  ~ObsServer() { Stop(); }
  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  // Binds, listens, and launches the serving thread. False on any
  // failure (port in use, no registry, ...) with a description in
  // `*error`; the server is then inert and Start may be retried.
  bool Start(const ObsServerOptions& options, std::string* error);

  // Stops the serving threads promptly: the HTTP core's self-pipe wakes
  // every blocked socket wait immediately, so shutdown latency is not
  // floored by a poll interval. Idempotent.
  void Stop();

  bool running() const { return http_.running(); }
  // The bound port (the chosen one when options.port was 0); 0 before
  // a successful Start.
  uint16_t port() const { return http_.port(); }
  // Requests answered since Start (any status code).
  uint64_t requests_served() const { return http_.requests_served(); }

 private:
  HttpServer http_;
  bool mounted_ = false;  // routes registered (Start may be retried)
};

// Minimal blocking HTTP/1.1 GET against 127.0.0.1:<port> (the scrape
// client used by tests and the bench self-scrape; also handy in tools).
// On success fills `*status_line` (e.g. "HTTP/1.1 200 OK") and `*body`,
// true. False on connect/send/recv failure, after `timeout_ms`, or once
// the response exceeds `max_response_bytes` — a misbehaving server must
// not OOM the caller. Thin wrapper over HttpCall (common/http/http.h),
// which the service client library builds on too.
bool HttpGet(uint16_t port, const std::string& path, std::string* status_line,
             std::string* body, int timeout_ms = 5000,
             size_t max_response_bytes = 64u << 20);

}  // namespace xmlproj

#endif  // XMLPROJ_OBS_SERVER_H_
