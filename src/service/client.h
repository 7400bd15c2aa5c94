// Blocking client library for the projection service (service/service.h):
// the programmatic face of the daemon's HTTP API, built on the capped
// HTTP client in common/http/http.h (the generalization of obs/server.h's
// HttpGet). Used by the xmlproj-client example binary, the service tests,
// and anything that wants to prune documents against a resident daemon
// without hand-rolling HTTP.
//
// Every call is one request/response exchange against 127.0.0.1:<port>
// with a wall-clock timeout and a response-size cap — a wedged or
// misbehaving daemon surfaces as a clean error, never a hang or an OOM.
// Non-2xx responses map back onto Status codes (503 → kUnavailable with
// the Retry-After hint in the message, 404 → kNotFound, 413 and 507 →
// kResourceExhausted, ...), so callers branch on code, not HTTP.

#ifndef XMLPROJ_SERVICE_CLIENT_H_
#define XMLPROJ_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace xmlproj {

struct ProjectionClientOptions {
  uint16_t port = 0;
  // Per-request wall budget (connect + send + full response).
  int timeout_ms = 30000;
  // Response cap; pruned documents can be large but bounded.
  size_t max_response_bytes = 256u << 20;
};

// POST /workloads response, decoded.
struct WorkloadRegistration {
  std::string id;
  bool cache_hit = false;
  uint64_t queries = 0;
  uint64_t projector_names = 0;
  std::string raw_json;  // the full response body
};

// POST /prune response, decoded.
struct PruneOutcome {
  std::string output;     // the projected document bytes
  bool cache_hit = false; // X-Xmlproj-Cache header
  // Request identity echoed by the server: the trace id from the
  // response `traceparent` (the one the caller injected, or the one the
  // server minted) and the `X-Request-Id` header.
  std::string trace_id;
  std::string request_id;
};

// Optional per-prune knobs, mapped onto the service's query params
// (which map onto the pipeline's TaskBudget).
struct PruneRequestOptions {
  bool validate = false;
  size_t max_bytes = 0;      // 0 = server default
  uint64_t deadline_ms = 0;  // 0 = server default
  // W3C trace context to propagate ("00-<32 hex>-<16 hex>-<2 hex>");
  // empty sends none and the server mints a fresh trace.
  std::string traceparent;
};

class ProjectionClient {
 public:
  explicit ProjectionClient(const ProjectionClientOptions& options)
      : options_(options) {}

  // POST /dtds?name=&root= with the DTD text. Returns the response JSON.
  Result<std::string> RegisterDtd(const std::string& name,
                                  const std::string& root,
                                  std::string_view dtd_text);

  // POST /workloads[?dtd=] with the spec ("lang<TAB>query" lines).
  Result<WorkloadRegistration> RegisterWorkload(
      std::string_view spec, const std::string& dtd_name = "");

  // POST /prune?workload=<id> with the document.
  Result<PruneOutcome> Prune(const std::string& workload_id,
                             std::string_view document,
                             const PruneRequestOptions& options = {});

  // GET /workloads (registrations + cache stats), raw JSON.
  Result<std::string> ListWorkloads();

  // GET /healthz, raw JSON; ok() even when the service reports
  // degraded/open (the body says so) — only transport failures and
  // non-healthz HTTP errors are Status errors.
  Result<std::string> Healthz();

  // Any GET, raw body ("/metrics", "/statusz", ...).
  Result<std::string> Get(const std::string& path);

 private:
  ProjectionClientOptions options_;
};

// First-match field lookup in the service's JSON responses: the first
// `"key":` in `json` (for a string, the first one followed by a quote),
// nested objects included — `hits` inside the /workloads `cache` block.
// The value is decoded with the shared reader (obs/json.h), so escapes
// are undone and integers are exact uint64. False when the key is
// absent or its value does not decode.
bool ExtractJsonStringField(std::string_view json, std::string_view key,
                            std::string* out);
bool ExtractJsonU64Field(std::string_view json, std::string_view key,
                         uint64_t* out);

}  // namespace xmlproj

#endif  // XMLPROJ_SERVICE_CLIENT_H_
