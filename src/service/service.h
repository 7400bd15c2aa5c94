// Projection-as-a-service: the long-lived pruning daemon core.
//
// The batch pipeline (projection/pipeline.h) answers "prune this corpus
// once"; ProjectionService turns the same fused pass into a resident
// server a client talks HTTP to:
//
//   POST /dtds?name=N&root=R        register a DTD (body: DTD text)
//   POST /workloads?dtd=N           register a query workload (body: one
//                                   query per line, "lang<TAB>query" or
//                                   "id<TAB>lang<TAB>query"; lang is
//                                   xpath or xquery) → workload id
//   POST /prune?workload=ID         prune the POSTed document with the
//                                   workload's cached projector → the
//                                   projected XML bytes
//   GET  /workloads                 registrations + per-workload stats
//   GET  /dtds                      registered DTDs
//   GET  /metrics /metrics.json /healthz /statusz /tracez
//                                   the obs plane (obs/server.h), mounted
//                                   on the same router — one port serves
//                                   both planes
//
// /prune runs PruneDocument(): a one-document corpus through the exact
// batch pass, so the bytes a client gets back are byte-identical to what
// the batch tool writes for the same document + workload (the parity the
// service tests and the CI smoke job diff). Per-request query params map
// onto the PR 3 budgets (?max_bytes=, ?deadline_ms=, ?validate=1).
//
// Admission control: when a CircuitBreaker is attached, /prune consults
// Allow() after its own checks and right before pruning — while the
// breaker is open the request fast-fails with 503 + Retry-After, and
// /healthz (same breaker) truthfully reports "open"/503. Every admitted
// prune reports once through the stage table (RecordBreakerOutcome),
// whose row also picks the HTTP status: only server faults (504, 500)
// count as failures — a client sending garbage must not open the
// breaker for everyone.
//
// Persistence: with a journal directory configured the daemon appends
// one RunRecord per `journal_batch` completed prunes per workload (and
// flushes the remainder on Stop), so service traffic lands in the same
// journal the batch pipeline writes and SuggestBudgets()/breaker seeding
// read back.

#ifndef XMLPROJ_SERVICE_SERVICE_H_
#define XMLPROJ_SERVICE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/circuit.h"
#include "common/http/http.h"
#include "common/status.h"
#include "dtd/dtd.h"
#include "dtd/name_set.h"
#include "obs/journal.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "service/projector_cache.h"

namespace xmlproj {

// One parsed workload query line.
struct WorkloadQuery {
  std::string id;    // optional client-chosen label ("" = positional)
  std::string lang;  // "xpath" | "xquery"
  std::string text;
};

// Parses the POST /workloads body: one query per line, tab-separated
// "lang<TAB>query" or "id<TAB>lang<TAB>query"; blank lines and
// #-comments skipped. Errors on empty specs and unknown languages.
Result<std::vector<WorkloadQuery>> ParseWorkloadSpec(std::string_view spec);

// The workload fingerprint: an FNV-1a chain over the canonical query
// lines (lang + text, in registration order). Together with the DTD
// hash this keys the projector cache — identical workload text against
// the same DTD always lands on the same compiled projector.
uint64_t WorkloadFingerprint(const std::vector<WorkloadQuery>& queries);

// Compiles a workload into its merged type projector against `dtd`:
// per-query inference (InferQueryProjector in xquery/path_extraction.h,
// which materializes results since the service returns serialized bytes),
// union over the workload (projectors are closed under union, §1.2), plus
// the document root.
Result<NameSet> CompileWorkloadProjector(
    const Dtd& dtd, const std::vector<WorkloadQuery>& queries);

// Cap on a POST /workloads or /dtds body (413 beyond it).
inline constexpr size_t kServiceMaxSpecBytes = 1u << 20;
// Caps on the text the registries keep for the daemon's lifetime (XMark's
// DTD counts); past one a new registration gets 507. DESIGN.md
// "Projection as a service" gives the resident memory at the caps.
inline constexpr size_t kServiceMaxDtdTextBytes = 4u << 20;
inline constexpr size_t kServiceMaxWorkloadSpecBytes = 4u << 20;
// Per-connection read deadline (header + body), milliseconds: the HTTP
// server's 2 s default is raised for large documents.
inline constexpr int kServiceConnectionDeadlineMs = 10000;

struct ServiceLimits {
  // Cap on a POSTed document (the HTTP server's body cap; larger
  // documents get 413 before the body is read).
  size_t max_document_bytes = 64u << 20;
  // HTTP worker threads (concurrent in-flight requests).
  int worker_threads = 4;
  // Compiled projectors kept by the LRU cache.
  size_t projector_cache_capacity = 64;
  // Completed prunes per workload folded into one journal RunRecord.
  // The remainder flushes on Stop.
  size_t journal_batch = 32;
  // Default per-request budgets when the client sends none (0 = none).
  size_t default_max_bytes = 0;
  uint64_t default_deadline_ms = 0;
};

struct ProjectionServiceOptions {
  // TCP port on 127.0.0.1; 0 picks an ephemeral port (port() after
  // Start).
  uint16_t port = 0;
  // Required; must outlive the service. The pipeline publishes its
  // metrics here, the cache its counters, and /metrics serves it.
  MetricsRegistry* metrics = nullptr;
  // Optional trace collector for /tracez and per-prune spans.
  TraceCollector* trace = nullptr;
  // Optional admission breaker; must outlive the service. Wired into
  // /healthz via ObsServerOptions::circuit_state automatically.
  CircuitBreaker* breaker = nullptr;
  // Optional structured log (obs/log.h): one "http.access" line per
  // parsed request, "prune.error" on failed prunes. Borrowed.
  StructuredLogger* logger = nullptr;
  // Optional per-workload SLO tracker (obs/slo.h): every /prune response
  // feeds it (5xx burns availability budget), and /statusz gains the
  // "slo" block. Borrowed.
  SloTracker* slo = nullptr;
  // Optional journal directory ("" = no journal).
  std::string journal_dir;
  ServiceLimits limits;
};

// Per-workload registration + live stats, as GET /workloads reports.
struct WorkloadInfo {
  std::string id;
  std::string dtd;
  size_t queries = 0;
  size_t projector_names = 0;
  uint64_t prunes = 0;       // completed prunes
  uint64_t cache_hits = 0;   // prunes served by a cached projector
  uint64_t failures = 0;     // prunes that returned an error
  uint64_t input_bytes = 0;  // over completed prunes
  uint64_t output_bytes = 0;
};

class ProjectionService {
 public:
  ProjectionService();
  ~ProjectionService();
  ProjectionService(const ProjectionService&) = delete;
  ProjectionService& operator=(const ProjectionService&) = delete;

  // Programmatic DTD registration (what the daemon uses for the builtin
  // "xmark" DTD); POST /dtds is the remote equivalent. Re-registering a
  // name with identical text is idempotent; with different text it
  // fails, and so does a new name past kServiceMaxDtdTextBytes. May be
  // called before or after Start.
  bool RegisterDtd(const std::string& name, std::string_view dtd_text,
                   const std::string& root_tag, std::string* error);

  // Binds and serves. False with a description in *error (bad options,
  // port in use, journal unopenable); Start may then be retried.
  bool Start(const ProjectionServiceOptions& options, std::string* error);

  // Drains in-flight requests, flushes pending journal batches, stops.
  // Idempotent.
  void Stop();

  bool running() const { return http_.running(); }
  uint16_t port() const { return http_.port(); }
  uint64_t requests_served() const { return http_.requests_served(); }

  // Introspection for tests and GET /workloads.
  std::vector<WorkloadInfo> ListWorkloads() const;
  const ProjectorCache* cache() const { return cache_.get(); }

 private:
  struct DtdEntry {
    std::string name;
    std::string root;
    uint64_t hash = 0;  // Fnv1a64 over the DTD text
    Dtd dtd;
  };
  struct WorkloadEntry;

  std::shared_ptr<const DtdEntry> FindDtd(const std::string& name) const;
  std::shared_ptr<WorkloadEntry> FindWorkload(const std::string& id) const;

  // The HttpServer observer: per-request RED histogram sample, SLO
  // record (/prune only), request span, and the access-log line. The
  // span and the log line carry `written`: 0 when the response never
  // fully reached the client.
  void ObserveRequest(const HttpRequest& request,
                      const HttpResponse& response, uint64_t start_ns,
                      uint64_t duration_ns, bool written);

  HttpResponse HandleRegisterDtd(const HttpRequest& request);
  HttpResponse HandleRegisterWorkload(const HttpRequest& request);
  HttpResponse HandlePrune(const HttpRequest& request);
  HttpResponse HandleListWorkloads(const HttpRequest& request);
  HttpResponse HandleListDtds(const HttpRequest& request);

  // Folds one finished prune (`failure_stage` null when it completed)
  // into the workload's pending journal batch, appending a RunRecord once
  // the batch fills. FlushJournal writes out whatever is pending for
  // every workload.
  void JournalPrune(const WorkloadEntry& entry, uint64_t wall_us,
                    size_t input_bytes, size_t output_bytes,
                    size_t peak_bytes, const char* failure_stage);
  void FlushJournal();

  ProjectionServiceOptions options_;
  HttpServer http_;
  bool mounted_ = false;
  std::unique_ptr<ProjectorCache> cache_;

  mutable std::mutex mu_;  // guards the registries and their byte counts
  std::map<std::string, std::shared_ptr<const DtdEntry>> dtds_;
  std::map<std::string, std::shared_ptr<WorkloadEntry>> workloads_;
  size_t dtd_text_bytes_ = 0;       // against kServiceMaxDtdTextBytes
  size_t workload_spec_bytes_ = 0;  // against kServiceMaxWorkloadSpecBytes

  std::mutex journal_mu_;
  std::unique_ptr<RunJournal> journal_;
  struct PendingBatch {
    uint64_t start_unix_ms = 0;
    uint64_t prunes = 0;
    uint64_t failed = 0;
    uint64_t wall_us = 0;
    uint64_t input_bytes = 0;
    uint64_t output_bytes = 0;
    uint64_t peak_bytes = 0;
    std::map<std::string, uint64_t> quarantine;  // stage → count
  };
  std::map<std::string, PendingBatch> pending_;  // workload id → batch

  static RunRecord RecordForBatch(const std::string& workload_id,
                                  const PendingBatch& batch);
};

}  // namespace xmlproj

#endif  // XMLPROJ_SERVICE_SERVICE_H_
