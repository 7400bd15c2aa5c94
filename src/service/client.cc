#include "service/client.h"

#include <utility>

#include "common/http/http.h"
#include "obs/json.h"

namespace xmlproj {
namespace {

// Status for a non-2xx service response: the inverse of the service's
// error mapping, with the body (the service's {"error": ...} JSON) as
// the message.
Status StatusFromHttp(int status, const std::string& body) {
  std::string message = "HTTP " + std::to_string(status);
  std::string detail;
  if (ExtractJsonStringField(body, "error", &detail)) {
    message += ": " + detail;
  } else if (!body.empty()) {
    message += ": " + body.substr(0, 200);
  }
  switch (status) {
    case 400:
    case 405:
      return InvalidError(std::move(message));
    case 404:
      return NotFoundError(std::move(message));
    case 408:
    case 504:
      return DeadlineExceededError(std::move(message));
    case 409:
    case 422:
      return InvalidError(std::move(message));
    case 413:
    case 507:
      return ResourceExhaustedError(std::move(message));
    case 503:
      return UnavailableError(std::move(message));
    default:
      return InternalError(std::move(message));
  }
}

}  // namespace

bool ExtractJsonStringField(std::string_view json, std::string_view key,
                            std::string* out) {
  std::string needle = "\"";
  needle.append(key);
  needle.append("\":\"");
  size_t at = json.find(needle);
  if (at == std::string_view::npos) return false;
  // Re-read from the value's opening quote.
  JsonReader reader(json.substr(at + needle.size() - 1));
  std::string value;
  if (!reader.ReadString(&value)) return false;
  *out = std::move(value);
  return true;
}

bool ExtractJsonU64Field(std::string_view json, std::string_view key,
                         uint64_t* out) {
  std::string needle = "\"";
  needle.append(key);
  needle.append("\":");
  size_t at = json.find(needle);
  if (at == std::string_view::npos) return false;
  return JsonReader(json.substr(at + needle.size())).ReadU64(out);
}

namespace {

Result<HttpClientResult> Call(const ProjectionClientOptions& options,
                              const std::string& method,
                              const std::string& target,
                              std::string_view body,
                              const std::string& content_type,
                              const std::string& traceparent = {}) {
  HttpClientOptions client_options;
  client_options.timeout_ms = options.timeout_ms;
  client_options.max_response_bytes = options.max_response_bytes;
  client_options.traceparent = traceparent;
  HttpClientResult result;
  std::string error;
  if (!HttpCall(options.port, method, target, body, content_type, &result,
                client_options, &error)) {
    return UnavailableError("service call failed: " + error);
  }
  return result;
}

}  // namespace

Result<std::string> ProjectionClient::RegisterDtd(const std::string& name,
                                                  const std::string& root,
                                                  std::string_view dtd_text) {
  XMLPROJ_ASSIGN_OR_RETURN(
      HttpClientResult result,
      Call(options_, "POST", "/dtds?name=" + name + "&root=" + root, dtd_text,
           "text/plain"));
  if (result.status < 200 || result.status >= 300) {
    return StatusFromHttp(result.status, result.body);
  }
  return std::move(result.body);
}

Result<WorkloadRegistration> ProjectionClient::RegisterWorkload(
    std::string_view spec, const std::string& dtd_name) {
  std::string target = "/workloads";
  if (!dtd_name.empty()) target += "?dtd=" + dtd_name;
  XMLPROJ_ASSIGN_OR_RETURN(
      HttpClientResult result,
      Call(options_, "POST", target, spec, "text/plain"));
  if (result.status < 200 || result.status >= 300) {
    return StatusFromHttp(result.status, result.body);
  }
  WorkloadRegistration registration;
  registration.raw_json = result.body;
  if (!ExtractJsonStringField(result.body, "workload", &registration.id)) {
    return InternalError("malformed /workloads response: " + result.body);
  }
  std::string cache;
  ExtractJsonStringField(result.body, "cache", &cache);
  registration.cache_hit = cache == "hit";
  ExtractJsonU64Field(result.body, "queries", &registration.queries);
  ExtractJsonU64Field(result.body, "projector_names",
                      &registration.projector_names);
  return registration;
}

Result<PruneOutcome> ProjectionClient::Prune(
    const std::string& workload_id, std::string_view document,
    const PruneRequestOptions& options) {
  std::string target = "/prune?workload=" + workload_id;
  if (options.validate) target += "&validate=1";
  if (options.max_bytes != 0) {
    target += "&max_bytes=" + std::to_string(options.max_bytes);
  }
  if (options.deadline_ms != 0) {
    target += "&deadline_ms=" + std::to_string(options.deadline_ms);
  }
  XMLPROJ_ASSIGN_OR_RETURN(
      HttpClientResult result,
      Call(options_, "POST", target, document, "application/xml",
           options.traceparent));
  if (result.status < 200 || result.status >= 300) {
    return StatusFromHttp(result.status, result.body);
  }
  PruneOutcome outcome;
  outcome.cache_hit = result.Header("x-xmlproj-cache") == "hit";
  TraceContext trace;
  if (ParseTraceparent(result.Header("traceparent"), &trace)) {
    outcome.trace_id = trace.trace_id;
  }
  outcome.request_id = result.Header("x-request-id");
  outcome.output = std::move(result.body);
  return outcome;
}

Result<std::string> ProjectionClient::ListWorkloads() {
  return Get("/workloads");
}

Result<std::string> ProjectionClient::Healthz() {
  XMLPROJ_ASSIGN_OR_RETURN(HttpClientResult result,
                           Call(options_, "GET", "/healthz", {}, {}));
  // /healthz answers 503 while the breaker is open, but the body is the
  // health document the caller asked for.
  if (result.status != 200 && result.status != 503) {
    return StatusFromHttp(result.status, result.body);
  }
  return std::move(result.body);
}

Result<std::string> ProjectionClient::Get(const std::string& path) {
  XMLPROJ_ASSIGN_OR_RETURN(HttpClientResult result,
                           Call(options_, "GET", path, {}, {}));
  if (result.status < 200 || result.status >= 300) {
    return StatusFromHttp(result.status, result.body);
  }
  return std::move(result.body);
}

}  // namespace xmlproj
