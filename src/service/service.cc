#include "service/service.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/strings.h"
#include "dtd/dtd_parser.h"
#include "obs/json.h"
#include "obs/server.h"
#include "projection/pipeline.h"
#include "xquery/path_extraction.h"

namespace xmlproj {
namespace {

std::string HexId(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "w-%016" PRIx64, v);
  return buf;
}

HttpResponse ErrorJson(int status, std::string_view message,
                       std::string_view code = {}) {
  std::string body = "{\"error\":";
  AppendJsonString(message, &body);
  if (!code.empty()) {
    body.append(",\"status\":");
    AppendJsonString(code, &body);
  }
  body.append("}\n");
  return JsonResponse(status, std::move(body));
}

// Parses a non-negative integer query param: digits only, no sign or
// space, no overflow (ParseDecimalU64); false on anything else.
bool ParseU64Param(const HttpRequest& request, std::string_view key,
                   uint64_t* out) {
  std::string value = request.QueryParam(key);
  if (value.empty()) return true;  // absent = keep default
  return ParseDecimalU64(value, out);
}

std::string_view TrimAscii(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

// Route label for the RED series: the fixed route set keeps the label
// cardinality bounded no matter what paths clients probe.
const char* RouteLabel(const std::string& path) {
  static constexpr const char* kRoutes[] = {
      "/",       "/dtds",    "/healthz", "/metrics", "/metrics.json",
      "/prune",  "/statusz", "/tracez",  "/workloads"};
  for (const char* route : kRoutes) {
    if (path == route) return route;
  }
  return "other";
}

}  // namespace

// Mutable per-workload state. Identity fields are immutable after
// registration; stats are atomics so /prune handlers update them without
// the registry lock.
struct ProjectionService::WorkloadEntry {
  std::string id;
  std::shared_ptr<const DtdEntry> dtd;
  std::vector<WorkloadQuery> queries;
  uint64_t fingerprint = 0;
  size_t projector_names = 0;

  std::atomic<uint64_t> prunes{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> input_bytes{0};
  std::atomic<uint64_t> output_bytes{0};
};

Result<std::vector<WorkloadQuery>> ParseWorkloadSpec(std::string_view spec) {
  std::vector<WorkloadQuery> queries;
  size_t line_no = 0;
  while (!spec.empty()) {
    size_t eol = spec.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? spec : spec.substr(0, eol);
    spec.remove_prefix(eol == std::string_view::npos ? spec.size() : eol + 1);
    ++line_no;
    line = TrimAscii(line);
    if (line.empty() || line.front() == '#') continue;

    std::vector<std::string_view> fields;
    while (true) {
      size_t tab = line.find('\t');
      if (tab == std::string_view::npos) {
        fields.push_back(line);
        break;
      }
      fields.push_back(line.substr(0, tab));
      line.remove_prefix(tab + 1);
    }
    WorkloadQuery query;
    if (fields.size() == 2) {
      query.lang = AsciiLower(TrimAscii(fields[0]));
      query.text = std::string(TrimAscii(fields[1]));
    } else if (fields.size() == 3) {
      query.id = std::string(TrimAscii(fields[0]));
      query.lang = AsciiLower(TrimAscii(fields[1]));
      query.text = std::string(TrimAscii(fields[2]));
    } else {
      return InvalidError("workload line " + std::to_string(line_no) +
                          ": expected lang<TAB>query or "
                          "id<TAB>lang<TAB>query");
    }
    if (query.lang != "xpath" && query.lang != "xquery") {
      return InvalidError("workload line " + std::to_string(line_no) +
                          ": unknown language '" + query.lang +
                          "' (want xpath or xquery)");
    }
    if (query.text.empty()) {
      return InvalidError("workload line " + std::to_string(line_no) +
                          ": empty query");
    }
    if (query.id.empty()) query.id = "q" + std::to_string(queries.size() + 1);
    queries.push_back(std::move(query));
  }
  if (queries.empty()) return InvalidError("workload spec has no queries");
  return queries;
}

uint64_t WorkloadFingerprint(const std::vector<WorkloadQuery>& queries) {
  // Canonical form: lang and text only (the optional client label is
  // reporting sugar, not identity), in registration order, separated by
  // bytes that cannot occur inside either field.
  uint64_t h = kFnv1aOffset;
  for (const WorkloadQuery& query : queries) {
    h = Fnv1a64(query.lang, h);
    h = Fnv1a64(std::string_view("\x1f", 1), h);
    h = Fnv1a64(query.text, h);
    h = Fnv1a64(std::string_view("\x1e", 1), h);
  }
  return h;
}

Result<NameSet> CompileWorkloadProjector(
    const Dtd& dtd, const std::vector<WorkloadQuery>& queries) {
  NameSet merged(dtd.name_count());
  merged.Add(dtd.root());
  for (const WorkloadQuery& query : queries) {
    auto projector = InferQueryProjector(
        dtd,
        query.lang == "xpath" ? QueryLanguage::kXPath : QueryLanguage::kXQuery,
        query.text);
    if (!projector.ok()) {
      return Status(projector.status().code(),
                    "query '" + query.id + "': " +
                        projector.status().message());
    }
    merged |= *projector;
  }
  return merged;
}

ProjectionService::ProjectionService() = default;

ProjectionService::~ProjectionService() { Stop(); }

bool ProjectionService::RegisterDtd(const std::string& name,
                                    std::string_view dtd_text,
                                    const std::string& root_tag,
                                    std::string* error) {
  if (name.empty()) {
    if (error != nullptr) *error = "DTD name must be non-empty";
    return false;
  }
  uint64_t hash = Fnv1a64(dtd_text);
  auto registry_full = [&] {
    if (error != nullptr) {
      *error = StringPrintf("DTD registry full: %zu of %zu bytes of text held",
                            dtd_text_bytes_, kServiceMaxDtdTextBytes);
    }
    return false;
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = dtds_.find(name);
    if (it != dtds_.end()) {
      if (it->second->hash == hash && it->second->root == root_tag) {
        return true;  // idempotent re-registration
      }
      if (error != nullptr) {
        *error = "DTD '" + name + "' already registered with different text";
      }
      return false;
    }
    // A new name the cap refuses costs no parse.
    if (dtd_text_bytes_ + dtd_text.size() > kServiceMaxDtdTextBytes) {
      return registry_full();
    }
  }
  Result<Dtd> parsed = ParseDtd(dtd_text, root_tag);
  if (!parsed.ok()) {
    if (error != nullptr) *error = parsed.status().ToString();
    return false;
  }
  auto entry = std::make_shared<DtdEntry>();
  entry->name = name;
  entry->root = root_tag;
  entry->hash = hash;
  entry->dtd = std::move(*parsed);
  std::lock_guard<std::mutex> lock(mu_);
  // Checked again: other registrations may have filled the registry
  // during the parse.
  if (dtds_.count(name) == 0 &&
      dtd_text_bytes_ + dtd_text.size() > kServiceMaxDtdTextBytes) {
    return registry_full();
  }
  auto [it, inserted] = dtds_.emplace(name, std::move(entry));
  if (inserted) dtd_text_bytes_ += dtd_text.size();
  if (!inserted && it->second->hash != hash) {
    // Lost a race to a different registration of the same name.
    if (error != nullptr) {
      *error = "DTD '" + name + "' already registered with different text";
    }
    return false;
  }
  return true;
}

std::shared_ptr<const ProjectionService::DtdEntry> ProjectionService::FindDtd(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!name.empty()) {
    auto it = dtds_.find(name);
    return it == dtds_.end() ? nullptr : it->second;
  }
  // No name: unambiguous only when exactly one DTD is registered.
  if (dtds_.size() == 1) return dtds_.begin()->second;
  return nullptr;
}

std::shared_ptr<ProjectionService::WorkloadEntry>
ProjectionService::FindWorkload(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workloads_.find(id);
  return it == workloads_.end() ? nullptr : it->second;
}

HttpResponse ProjectionService::HandleRegisterDtd(const HttpRequest& request) {
  if (request.body.size() > kServiceMaxSpecBytes) {
    return ErrorJson(413, "DTD text exceeds the spec cap");
  }
  std::string name = request.QueryParam("name");
  std::string root = request.QueryParam("root");
  if (name.empty() || root.empty()) {
    return ErrorJson(400, "POST /dtds requires ?name= and ?root=");
  }
  std::string error;
  if (!RegisterDtd(name, request.body, root, &error)) {
    int status = 400;
    if (error.find("already registered") != std::string::npos) status = 409;
    if (error.starts_with("DTD registry full")) status = 507;
    return ErrorJson(status, error);
  }
  std::shared_ptr<const DtdEntry> entry = FindDtd(name);
  std::string body = "{\"dtd\":";
  AppendJsonString(name, &body);
  body.append(",\"root\":");
  AppendJsonString(root, &body);
  body.append(",\"names\":");
  AppendU64(entry->dtd.name_count(), &body);
  body.append(",\"hash\":");
  AppendJsonString(HexId(entry->hash), &body);
  body.append("}\n");
  return JsonResponse(201, std::move(body));
}

HttpResponse ProjectionService::HandleRegisterWorkload(
    const HttpRequest& request) {
  if (request.body.size() > kServiceMaxSpecBytes) {
    return ErrorJson(413, "workload spec exceeds the spec cap");
  }
  std::shared_ptr<const DtdEntry> dtd = FindDtd(request.QueryParam("dtd"));
  if (dtd == nullptr) {
    if (request.QueryParam("dtd").empty()) {
      return ErrorJson(400,
                       "POST /workloads requires ?dtd= when more than one "
                       "DTD is registered");
    }
    return ErrorJson(404,
                     "unknown DTD '" + request.QueryParam("dtd") + "'");
  }
  Result<std::vector<WorkloadQuery>> queries = ParseWorkloadSpec(request.body);
  if (!queries.ok()) {
    return ErrorJson(400, queries.status().message(),
                     StatusCodeName(queries.status().code()));
  }
  uint64_t fingerprint = WorkloadFingerprint(*queries);
  // The workload id covers both halves of the cache key, so the same
  // queries against two DTDs are two workloads.
  std::string id = HexId(Fnv1a64(HexId(fingerprint), dtd->hash));
  auto registry_full = [this] {
    return ErrorJson(507, StringPrintf(
        "workload registry full: %zu of %zu bytes of text held",
        workload_spec_bytes_, kServiceMaxWorkloadSpecBytes));
  };
  {
    // A new workload the cap refuses costs no compile.
    std::lock_guard<std::mutex> lock(mu_);
    if (workloads_.count(id) == 0 &&
        workload_spec_bytes_ + request.body.size() >
            kServiceMaxWorkloadSpecBytes) {
      return registry_full();
    }
  }

  ProjectorCacheKey key{dtd->hash, fingerprint};
  const Dtd* dtd_ptr = &dtd->dtd;
  const std::vector<WorkloadQuery>* queries_ptr = &*queries;
  bool hit = false;
  Result<std::shared_ptr<const NameSet>> projector = cache_->GetOrCompile(
      key,
      [dtd_ptr, queries_ptr] {
        return CompileWorkloadProjector(*dtd_ptr, *queries_ptr);
      },
      &hit);
  if (!projector.ok()) {
    // The workload parsed but a query failed analysis: unprocessable.
    return ErrorJson(422, projector.status().message(),
                     StatusCodeName(projector.status().code()));
  }

  std::shared_ptr<WorkloadEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workloads_.find(id);
    if (it != workloads_.end()) {
      entry = it->second;  // idempotent re-registration keeps the stats
    } else {
      // Checked again: other registrations may have filled the registry
      // during the compile.
      if (workload_spec_bytes_ + request.body.size() >
          kServiceMaxWorkloadSpecBytes) {
        return registry_full();
      }
      workload_spec_bytes_ += request.body.size();
      entry = std::make_shared<WorkloadEntry>();
      entry->id = id;
      entry->dtd = dtd;
      entry->queries = std::move(*queries);
      entry->fingerprint = fingerprint;
      entry->projector_names = (*projector)->Count();
      workloads_[id] = entry;
    }
  }

  std::string body = "{\"workload\":";
  AppendJsonString(entry->id, &body);
  body.append(",\"dtd\":");
  AppendJsonString(dtd->name, &body);
  body.append(",\"queries\":");
  AppendU64(entry->queries.size(), &body);
  body.append(",\"projector_names\":");
  AppendU64(entry->projector_names, &body);
  body.append(",\"dtd_names\":");
  AppendU64(dtd->dtd.name_count(), &body);
  body.append(",\"cache\":\"");
  body.append(hit ? "hit" : "miss");
  body.append("\"}\n");
  return JsonResponse(200, std::move(body));
}

HttpResponse ProjectionService::HandlePrune(const HttpRequest& request) {
  std::string id = request.QueryParam("workload");
  if (id.empty()) return ErrorJson(400, "POST /prune requires ?workload=");
  std::shared_ptr<WorkloadEntry> entry = FindWorkload(id);
  if (entry == nullptr) return ErrorJson(404, "unknown workload '" + id + "'");

  TaskBudget budget;
  budget.max_bytes = options_.limits.default_max_bytes;
  budget.deadline_ms = options_.limits.default_deadline_ms;
  uint64_t max_bytes = budget.max_bytes;
  uint64_t deadline_ms = budget.deadline_ms;
  if (!ParseU64Param(request, "max_bytes", &max_bytes) ||
      !ParseU64Param(request, "deadline_ms", &deadline_ms)) {
    return ErrorJson(400, "max_bytes/deadline_ms must be integers");
  }
  budget.max_bytes = static_cast<size_t>(max_bytes);
  budget.deadline_ms = deadline_ms;
  std::string validate = request.QueryParam("validate");
  if (!validate.empty() && validate != "0" && validate != "1") {
    return ErrorJson(400, "validate must be 0 or 1");
  }

  // Projector lookup: usually a cache hit; a miss (first prune, or
  // evicted since) recompiles from the registered workload text.
  ProjectorCacheKey key{entry->dtd->hash, entry->fingerprint};
  const WorkloadEntry* entry_ptr = entry.get();
  bool hit = false;
  Result<std::shared_ptr<const NameSet>> projector = cache_->GetOrCompile(
      key,
      [entry_ptr] {
        return CompileWorkloadProjector(entry_ptr->dtd->dtd,
                                        entry_ptr->queries);
      },
      &hit);
  if (!projector.ok()) {
    entry->failures.fetch_add(1, std::memory_order_relaxed);
    return ErrorJson(500, projector.status().message(),
                     StatusCodeName(projector.status().code()));
  }

  // Admission comes last: a request the checks above answer never takes
  // a probe slot. An open breaker fast-fails before any parsing work, and
  // /healthz (same breaker) reports open/503 in agreement.
  if (options_.breaker != nullptr && !options_.breaker->Allow()) {
    HttpResponse response =
        ErrorJson(503, "circuit breaker open; retry after cooldown");
    response.headers.emplace_back("Retry-After", "1");
    return response;
  }
  if (hit) entry->cache_hits.fetch_add(1, std::memory_order_relaxed);

  PipelineOptions popts;
  popts.validate = validate == "1";
  popts.budget = budget;
  popts.metrics = options_.metrics;
  popts.trace = options_.trace;
  popts.corpus_label = entry->id;

  // The pipeline runs inline on this worker thread, so a thread-scoped
  // span context makes its parse/prune/serialize spans children of the
  // request span the HTTP observer records for this same request.
  ScopedSpanContext span_scope(
      request.trace.valid() ? options_.trace : nullptr,
      SpanContext{request.trace.trace_id, request.trace.span_id,
                  request.trace.parent_id, entry->id});

  Result<PipelineRun> run =
      PruneDocument(request.body, entry->dtd->dtd, **projector, popts);
  const char* failure_stage =
      run.ok() ? nullptr : StageForStatus(run.status().code(), popts.validate);
  RecordBreakerOutcome(options_.breaker, failure_stage);
  if (!run.ok()) {
    entry->failures.fetch_add(1, std::memory_order_relaxed);
    const StagePolicy& policy = PolicyForStage(failure_stage);
    if (options_.logger != nullptr) {
      options_.logger->Log(policy.fault == StageFault::kServer
                               ? LogLevel::kError
                               : LogLevel::kWarn,
                           "prune.error",
                           {{"workload", entry->id},
                            {"trace_id", request.trace.trace_id},
                            {"request_id", request.request_id},
                            {"code", StatusCodeName(run.status().code())},
                            {"http_status", policy.http_status},
                            {"input_bytes",
                             static_cast<uint64_t>(request.body.size())}});
    }
    JournalPrune(*entry, /*wall_us=*/0, request.body.size(),
                 /*output_bytes=*/0, /*peak_bytes=*/0, failure_stage);
    return ErrorJson(policy.http_status, run.status().message(),
                     StatusCodeName(run.status().code()));
  }

  const PipelineResult& result = run->results[0];
  entry->prunes.fetch_add(1, std::memory_order_relaxed);
  entry->input_bytes.fetch_add(request.body.size(),
                               std::memory_order_relaxed);
  entry->output_bytes.fetch_add(result.output.size(),
                                std::memory_order_relaxed);
  JournalPrune(*entry,
               static_cast<uint64_t>(run->summary.wall_seconds * 1e6),
               request.body.size(), result.output.size(),
               run->summary.max_task_peak_bytes, /*failure_stage=*/nullptr);

  HttpResponse response;
  response.status = 200;
  response.content_type = "application/xml";
  response.headers.emplace_back("X-Xmlproj-Workload", entry->id);
  response.headers.emplace_back("X-Xmlproj-Cache", hit ? "hit" : "miss");
  response.body = std::move(run->results[0].output);
  return response;
}

HttpResponse ProjectionService::HandleListWorkloads(const HttpRequest&) {
  std::string body = "{\"cache\":{\"capacity\":";
  AppendU64(cache_->capacity(), &body);
  body.append(",\"size\":");
  AppendU64(cache_->size(), &body);
  body.append(",\"hits\":");
  AppendU64(cache_->hits(), &body);
  body.append(",\"misses\":");
  AppendU64(cache_->misses(), &body);
  body.append(",\"evictions\":");
  AppendU64(cache_->evictions(), &body);
  body.append("},\"workloads\":[");
  bool first = true;
  for (const WorkloadInfo& info : ListWorkloads()) {
    if (!first) body.push_back(',');
    first = false;
    body.append("{\"id\":");
    AppendJsonString(info.id, &body);
    body.append(",\"dtd\":");
    AppendJsonString(info.dtd, &body);
    body.append(",\"queries\":");
    AppendU64(info.queries, &body);
    body.append(",\"projector_names\":");
    AppendU64(info.projector_names, &body);
    body.append(",\"prunes\":");
    AppendU64(info.prunes, &body);
    body.append(",\"cache_hits\":");
    AppendU64(info.cache_hits, &body);
    body.append(",\"failures\":");
    AppendU64(info.failures, &body);
    body.append(",\"input_bytes\":");
    AppendU64(info.input_bytes, &body);
    body.append(",\"output_bytes\":");
    AppendU64(info.output_bytes, &body);
    body.append(",\"byte_ratio\":");
    char ratio[32];
    double r = info.input_bytes == 0
                   ? 1.0
                   : static_cast<double>(info.output_bytes) /
                         static_cast<double>(info.input_bytes);
    std::snprintf(ratio, sizeof(ratio), "%.4f", r);
    body.append(ratio);
    body.push_back('}');
  }
  body.append("]}\n");
  return JsonResponse(200, std::move(body));
}

HttpResponse ProjectionService::HandleListDtds(const HttpRequest&) {
  std::vector<std::shared_ptr<const DtdEntry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : dtds_) entries.push_back(entry);
  }
  std::string body = "{\"dtds\":[";
  bool first = true;
  for (const auto& entry : entries) {
    if (!first) body.push_back(',');
    first = false;
    body.append("{\"name\":");
    AppendJsonString(entry->name, &body);
    body.append(",\"root\":");
    AppendJsonString(entry->root, &body);
    body.append(",\"names\":");
    AppendU64(entry->dtd.name_count(), &body);
    body.append(",\"hash\":");
    AppendJsonString(HexId(entry->hash), &body);
    body.push_back('}');
  }
  body.append("]}\n");
  return JsonResponse(200, std::move(body));
}

void ProjectionService::ObserveRequest(const HttpRequest& request,
                                       const HttpResponse& response,
                                       uint64_t start_ns,
                                       uint64_t duration_ns, bool written) {
  const char* route = RouteLabel(request.path);
  // Workload attribution: only /prune carries a tenant, and an id lands
  // in the label set only when it is actually registered — unknown ids
  // fold to "other" so a client probing random ids cannot mint series.
  std::string workload = "none";
  if (request.path == "/prune") {
    std::string id = request.QueryParam("workload");
    workload = !id.empty() && FindWorkload(id) != nullptr ? id : "other";
  }
  char code[8];
  std::snprintf(code, sizeof(code), "%d", response.status);
  if (options_.metrics != nullptr) {
    // Null on a kind conflict with a caller-registered name.
    Histogram* duration = options_.metrics->GetHistogram(
        "xmlproj_request_duration_seconds",
        {{"workload", workload}, {"route", route}, {"code", code}});
    if (duration != nullptr) duration->Record(duration_ns);
  }
  // A response the client never got was not available to it, whatever
  // its status.
  if (options_.slo != nullptr && request.path == "/prune") {
    options_.slo->Record(workload, duration_ns,
                         response.status >= 500 || !written);
  }
  if (options_.trace != nullptr && request.trace.valid()) {
    options_.trace->AddSpanEvent(
        request.method + " " + route, "request", start_ns, duration_ns,
        SpanContext{request.trace.trace_id, request.trace.span_id,
                    request.trace.parent_id, workload},
        {{"status", static_cast<int64_t>(response.status)},
         {"written", written ? 1 : 0}});
  }
  if (options_.logger != nullptr) {
    options_.logger->Log(
        response.status >= 500 ? LogLevel::kError : LogLevel::kInfo,
        "http.access",
        {{"method", request.method},
         {"path", request.path},
         {"status", response.status},
         {"written", written ? 1 : 0},
         {"duration_us", duration_ns / 1000},
         {"bytes", static_cast<uint64_t>(response.body.size())},
         {"trace_id", request.trace.trace_id},
         {"request_id", request.request_id},
         {"workload", workload}});
  }
}

std::vector<WorkloadInfo> ProjectionService::ListWorkloads() const {
  std::vector<std::shared_ptr<WorkloadEntry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, entry] : workloads_) entries.push_back(entry);
  }
  std::vector<WorkloadInfo> infos;
  infos.reserve(entries.size());
  for (const auto& entry : entries) {
    WorkloadInfo info;
    info.id = entry->id;
    info.dtd = entry->dtd->name;
    info.queries = entry->queries.size();
    info.projector_names = entry->projector_names;
    info.prunes = entry->prunes.load(std::memory_order_relaxed);
    info.cache_hits = entry->cache_hits.load(std::memory_order_relaxed);
    info.failures = entry->failures.load(std::memory_order_relaxed);
    info.input_bytes = entry->input_bytes.load(std::memory_order_relaxed);
    info.output_bytes = entry->output_bytes.load(std::memory_order_relaxed);
    infos.push_back(std::move(info));
  }
  return infos;
}

void ProjectionService::JournalPrune(const WorkloadEntry& entry,
                                     uint64_t wall_us, size_t input_bytes,
                                     size_t output_bytes, size_t peak_bytes,
                                     const char* failure_stage) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (journal_ == nullptr) return;
  PendingBatch& batch = pending_[entry.id];
  if (batch.prunes + batch.failed == 0) batch.start_unix_ms = UnixNowMs();
  if (failure_stage != nullptr) {
    ++batch.failed;
    ++batch.quarantine[failure_stage];
  } else {
    ++batch.prunes;
    batch.input_bytes += input_bytes;
    batch.output_bytes += output_bytes;
  }
  batch.wall_us += wall_us;
  if (peak_bytes > batch.peak_bytes) batch.peak_bytes = peak_bytes;
  if (batch.prunes + batch.failed < options_.limits.journal_batch) return;

  std::string error;
  // Advisory: a failed append is not worth failing a served prune over.
  journal_->Append(RecordForBatch(entry.id, batch), &error);
  pending_.erase(entry.id);
}

void ProjectionService::FlushJournal() {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (journal_ == nullptr) return;
  for (auto& [id, batch] : pending_) {
    if (batch.prunes + batch.failed == 0) continue;
    std::string error;
    journal_->Append(RecordForBatch(id, batch), &error);
  }
  pending_.clear();
}

RunRecord ProjectionService::RecordForBatch(const std::string& workload_id,
                                            const PendingBatch& batch) {
  RunRecord record;
  record.run_id = GenerateRunId();
  record.corpus = workload_id;
  record.start_unix_ms = batch.start_unix_ms;
  record.end_unix_ms = UnixNowMs();
  record.wall_seconds = static_cast<double>(batch.wall_us) / 1e6;
  record.tasks = batch.prunes;
  record.failed = batch.failed;
  record.input_bytes = batch.input_bytes;
  record.output_bytes = batch.output_bytes;
  record.peak_memory_bytes = batch.peak_bytes;
  SetQuarantineDigest(batch.quarantine, &record);
  return record;
}

bool ProjectionService::Start(const ProjectionServiceOptions& options,
                              std::string* error) {
  if (http_.running()) {
    if (error != nullptr) *error = "service already running";
    return false;
  }
  if (options.metrics == nullptr) {
    if (error != nullptr) {
      *error = "ProjectionServiceOptions.metrics is required";
    }
    return false;
  }
  options_ = options;
  if (cache_ == nullptr) {
    cache_ = std::make_unique<ProjectorCache>(
        options_.limits.projector_cache_capacity, options_.metrics);
  }
  if (!options_.journal_dir.empty() && journal_ == nullptr) {
    auto journal = std::make_unique<RunJournal>();
    if (!journal->Open(options_.journal_dir, error)) return false;
    std::lock_guard<std::mutex> lock(journal_mu_);
    journal_ = std::move(journal);
  }

  if (!mounted_) {
    http_.Handle("POST", "/dtds",
                 [this](const HttpRequest& r) { return HandleRegisterDtd(r); });
    http_.Handle("GET", "/dtds",
                 [this](const HttpRequest& r) { return HandleListDtds(r); });
    http_.Handle("POST", "/workloads", [this](const HttpRequest& r) {
      return HandleRegisterWorkload(r);
    });
    http_.Handle("GET", "/workloads", [this](const HttpRequest& r) {
      return HandleListWorkloads(r);
    });
    http_.Handle("POST", "/prune",
                 [this](const HttpRequest& r) { return HandlePrune(r); });
    http_.Handle("GET", "/", [](const HttpRequest&) {
      return TextResponse(
          200,
          "xmlproj projection service\n"
          "data plane: POST /dtds POST /workloads POST /prune "
          "GET /workloads GET /dtds\n"
          "obs plane: /metrics /metrics.json /healthz /statusz /tracez\n");
    });

    // Observability plane on the same router — one port, both planes.
    ObsServerOptions obs;
    obs.registry = options_.metrics;
    obs.trace = options_.trace;
    obs.slo = options_.slo;
    if (options_.breaker != nullptr) {
      CircuitBreaker* breaker = options_.breaker;
      obs.circuit_state = [breaker] { return breaker->state_int(); };
    }
    MountObsEndpoints(&http_, obs);
    mounted_ = true;
  }

  options_.metrics->SetHelp(
      "xmlproj_request_duration_seconds",
      "HTTP request duration by workload, route and status code.");
  http_.SetObserver([this](const HttpRequest& request,
                           const HttpResponse& response, uint64_t start_ns,
                           uint64_t duration_ns, bool written) {
    ObserveRequest(request, response, start_ns, duration_ns, written);
  });

  HttpServerOptions http_options;
  http_options.port = options_.port;
  http_options.worker_threads = options_.limits.worker_threads;
  http_options.max_body_bytes = options_.limits.max_document_bytes;
  http_options.connection_deadline_ms = kServiceConnectionDeadlineMs;
  return http_.Start(http_options, error);
}

void ProjectionService::Stop() {
  http_.Stop();
  FlushJournal();
}

}  // namespace xmlproj
