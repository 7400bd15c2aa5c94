// Deterministic fault injection for the chaos test suite and for staging
// drills against the pruning pipeline.
//
// A *failpoint* is a named checkpoint compiled into production code
// (parser, pruner, pipeline). Disarmed — the universal
// default — a checkpoint costs one null-pointer compare; armed, it can
// return an injected Status (parse errors, allocation failures, I/O
// faults, …) and/or sleep to simulate a slow task. Firing is driven
// by the repo's SplitMix64 RNG (common/rng.h), seeded per failpoint from
// the injector seed and the failpoint name, so a chaos run replays
// identically for a fixed seed and arm configuration.
//
// Checkpoints compiled into this tree (see README "Fault tolerance"):
//   xml.parse      — xml/parser.cc, once per element start tag, including
//                    the start tags crossed inside a skipped element
//   prune.element  — projection/pruner.cc, both pruners, per StartElement
//                    that reaches the pruner (never inside a skipped
//                    element)
//   pool.task      — projection/pipeline.cc, once per task a worker claims,
//                    before it runs (every thread count)
//   pipeline.task  — projection/pipeline.cc, at the start of each pass
//   pipeline.commit — projection/pipeline.cc, before the atomic output
//                     commit of a checkpointed task
//   checkpoint.append — projection/pipeline.cc, before the completed-task
//                     checkpoint record is appended
//
// Compile-time kill switch: building with -DXMLPROJ_NO_FAULT_INJECTION
// turns every XMLPROJ_FAULT_HIT into a literal Status::Ok() so the hot
// path carries no trace of the machinery (CMake option of the same name).

#ifndef XMLPROJ_COMMON_FAULT_H_
#define XMLPROJ_COMMON_FAULT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/status.h"

namespace xmlproj {

// What an armed failpoint does on each hit.
struct FaultSpec {
  // Status code to inject. kOk makes a delay-only failpoint (a slow task,
  // not a failing one).
  StatusCode code = StatusCode::kInternal;
  // Chance each hit fires, rolled on the failpoint's own deterministic RNG.
  double probability = 1.0;
  // Stop firing after this many fires; -1 = unlimited.
  int max_fires = -1;
  // Sleep this long on every fire (before returning the status, if any).
  uint64_t delay_ms = 0;
  // Optional message override for the injected Status.
  std::string message;
};

// A registry of armed failpoints. Thread-safe; one injector is typically
// shared by a whole pipeline run (PipelineOptions::fault). Hit order across
// pipeline workers is scheduling-dependent, so probabilistic chaos runs are
// deterministic in distribution, not in which exact task fails; arm with
// probability 1 (or max_fires) for bit-reproducible scenarios.
class FaultInjector {
 public:
  static constexpr uint64_t kDefaultSeed = 0x584d4c50524f4aULL;  // "XMLPROJ"

  explicit FaultInjector(uint64_t seed = kDefaultSeed) : seed_(seed) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void Arm(std::string_view failpoint, FaultSpec spec);
  void Disarm(std::string_view failpoint);
  void DisarmAll();

  // Arms failpoints from a comma-separated spec string, the syntax of the
  // XMLPROJ_FAILPOINTS environment variable and the tools' --failpoints
  // flag:
  //
  //   name:code[:probability[:max_fires[:delay_ms]]]
  //
  // code ∈ {parse, invalid, unsupported, notfound, cancelled, resource,
  // deadline, unavailable, internal, delay} — "delay" injects no error
  // (pair it with delay_ms). Example:
  //   XMLPROJ_FAILPOINTS="xml.parse:parse:0.01,pool.task:delay:1:-1:25"
  Status ArmFromSpec(std::string_view spec_text);

  // The checkpoint. Returns OK when the failpoint is disarmed or the roll
  // does not fire; sleeps and/or returns the injected Status when it does.
  Status MaybeFail(std::string_view failpoint);

  // Telemetry for tests and reports: checkpoint passes / actual fires.
  uint64_t HitCount(std::string_view failpoint) const;
  uint64_t FireCount(std::string_view failpoint) const;

  // Process-wide injector armed from $XMLPROJ_FAILPOINTS, or nullptr when
  // the variable is unset or empty. Malformed entries are reported to
  // stderr once and skipped. Intended for tools and CI chaos drills;
  // library code only consults injectors handed to it explicitly.
  static FaultInjector* FromEnv();

 private:
  struct ArmedPoint {
    FaultSpec spec;
    Rng rng{0};
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  uint64_t SeedFor(std::string_view failpoint) const;

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, ArmedPoint, std::less<>> points_;
};

// Checkpoint macro: evaluates to an injected Status when `injector` is
// non-null and the named failpoint fires, Status::Ok() otherwise. With
// XMLPROJ_NO_FAULT_INJECTION defined it compiles to a literal OK.
#if defined(XMLPROJ_NO_FAULT_INJECTION)
#define XMLPROJ_FAULT_HIT(injector, name) (::xmlproj::Status::Ok())
#else
#define XMLPROJ_FAULT_HIT(injector, name)      \
  ((injector) == nullptr ? ::xmlproj::Status::Ok() \
                         : (injector)->MaybeFail(name))
#endif

}  // namespace xmlproj

#endif  // XMLPROJ_COMMON_FAULT_H_
