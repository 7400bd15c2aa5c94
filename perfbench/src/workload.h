// The benchmark's four workloads: seeded inputs, the system under test
// (DTD + compiled projectors, plus a loopback ProjectionService for
// service_mix), the output oracle, and the closed-loop timed window.
//
// An operation is one call into the workload's entry point:
//   doc_selective / doc_validate  one PruneDocument of the large document
//   service_mix                   one POST /prune through ProjectionClient
//   corpus_fanout                 one PruneCorpusPerQuery pass

#ifndef XMLPROJ_PERFBENCH_WORKLOAD_H_
#define XMLPROJ_PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "dtd/dtd.h"
#include "dtd/name_set.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace perfbench {

enum class Kind { kDocument, kService, kCorpus };

// One service_mix request: which document, which registered workload.
struct Request {
  size_t doc = 0;
  size_t workload = 0;
  bool validate = false;
};

// Everything a run derives from its workload name and seed. Generating
// these stays outside set-up and outside every timed window.
struct Inputs {
  std::string name;
  Kind kind = Kind::kDocument;
  bool validate = false;              // doc_validate
  std::vector<std::string> docs;
  // One POST /workloads body per projector, "id<TAB>lang<TAB>query"
  // lines. corpus_fanout has one single-query spec per dashboard query.
  std::vector<std::string> specs;
  std::vector<Request> schedule;      // service_mix request order

  // Every (document, projector) pair, document-major: the order of
  // PruneCorpusPerQuery results and of the oracle's references.
  size_t pairs() const { return docs.size() * specs.size(); }
  // Operations the full pair set stands for: one request per pair for
  // service_mix, one document or pass otherwise. Layer times are
  // reported per operation.
  size_t ops_per_pair_set() const {
    return kind == Kind::kService ? pairs() : 1;
  }
  size_t TotalDocBytes() const;
  std::vector<const std::string*> DocPointers() const;
};

// Generates the inputs for `name` from `seed`; `tiny` shrinks every
// document for the self-test. False for an unknown workload name.
bool MakeInputs(const std::string& name, uint64_t seed, bool tiny,
                Inputs* out);

// The system under test after set-up.
struct System {
  xmlproj::Dtd dtd;
  std::vector<xmlproj::NameSet> projectors;  // aligned with Inputs::specs
  // service_mix only.
  std::unique_ptr<xmlproj::MetricsRegistry> registry;
  std::unique_ptr<xmlproj::ProjectionService> service;
  std::vector<std::string> workload_ids;  // aligned with Inputs::specs
};

// Per-call timings gathered across set-up repetitions.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> dtd_load_us;
  std::vector<double> analysis_us;   // one CompileWorkloadProjector
  std::vector<double> register_ms;   // one POST /workloads round trip
};

// Starts a ProjectionService on an ephemeral loopback port with the
// XMark DTD registered and every spec POSTed to /workloads; appends the
// register round trips to *register_ms (nullable).
bool StartService(const Inputs& inputs, size_t max_document_bytes,
                  SpanRecorder* spans, uint64_t op, System* system,
                  std::vector<double>* register_ms, std::string* error);

// Runs set-up `reps` times (DTD load + projector compile, plus service
// start and registration for service_mix) and keeps the last system.
bool SetUp(const Inputs& inputs, int reps, SpanRecorder* spans,
           System* system, SetupTimes* times, std::string* error);

// Reference outputs, built once with the writer-based SerializingHandler
// pass (not the splicer the system uses), indexed like Inputs pairs.
struct Oracle {
  std::vector<std::string> outputs;
  uint64_t input_bytes = 0;  // over all pairs
  uint64_t kept_bytes = 0;
  uint64_t input_nodes = 0;
  uint64_t kept_nodes = 0;
};
bool BuildOracle(const Inputs& inputs, const System& system, Oracle* oracle,
                 std::string* error);

// Shared state of one run's operations.
struct RunContext {
  const Inputs* inputs = nullptr;
  const System* system = nullptr;
  const Oracle* oracle = nullptr;
  std::atomic<uint64_t> next_op{1};
  // Self-test hook: the output of this operation is compared with one
  // byte flipped, so the oracle must count it as a failure. 0 = none.
  uint64_t corrupt_op = 0;
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> mismatches{0};

  // Compares one output with the reference for pair `pair`, outside any
  // timed call; counts a mismatch.
  bool Check(uint64_t op, std::string_view output, size_t pair);
};

struct WindowResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t input_bytes = 0;  // of operations whose output was correct
  double seconds = 0;
  std::vector<double> latencies_ms;

  double mb_per_s() const {
    return seconds > 0 ? input_bytes / 1e6 / seconds : 0;
  }
  void Merge(const WindowResult& other);
};

// Closed loop for `seconds`: one thread for the document and corpus
// workloads, BenchThreads() clients (each with its own ProjectionClient)
// for service_mix. The document workloads' single thread moves to the
// next CPU every 10 ms (CpuMigrator). Each operation's output
// is checked against the oracle after its latency is taken. With `spans`
// set every operation records a bench.op span with the layer call and the
// oracle comparison under it.
WindowResult RunWindow(RunContext* ctx, double seconds, SpanRecorder* spans);

}  // namespace perfbench

#endif  // XMLPROJ_PERFBENCH_WORKLOAD_H_
