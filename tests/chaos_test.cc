// Chaos suite for the fault-tolerance layer: the deterministic fault
// injector itself (common/fault.h), and the pipeline's error policies
// under injected parse errors, allocation failures, transient worker
// faults, slow tasks, and deadline blowouts (projection/pipeline.h).
//
// The load-bearing properties:
//  - kFailFast surfaces the injected error as the run status (PR 1
//    behavior, unchanged);
//  - kIsolate quarantines exactly the failing documents into structured
//    TaskFailure reports while the survivors' outputs stay byte-identical
//    to a fault-free sequential run;
//  - kRetry recovers from transient (kUnavailable) faults and quarantines
//    only after exhausting its attempts;
//  - degrade_on_invalid answers with the identity (no-prune) pass when
//    the document does not fit the DTD.

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/circuit.h"
#include "common/fault.h"
#include "dtd/dtd_parser.h"
#include "obs/metrics.h"
#include "projection/pipeline.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlproj {
namespace {

// --- FaultInjector unit tests -------------------------------------------

TEST(FaultInjectorTest, DisarmedFailpointIsAlwaysOk) {
  FaultInjector fault;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(fault.MaybeFail("never.armed").ok());
  }
  EXPECT_EQ(fault.HitCount("never.armed"), 0u);
  EXPECT_EQ(fault.FireCount("never.armed"), 0u);
  // Volatile keeps gcc from const-folding the null into the macro's
  // dead branch and tripping -Wnonnull under -Werror.
  FaultInjector* volatile no_injector = nullptr;
  EXPECT_TRUE(XMLPROJ_FAULT_HIT(no_injector, "anything").ok());
}

TEST(FaultInjectorTest, ProbabilisticFiringIsDeterministicPerSeed) {
  auto pattern = [](uint64_t seed) {
    FaultInjector fault(seed);
    FaultSpec spec;
    spec.code = StatusCode::kUnavailable;
    spec.probability = 0.5;
    fault.Arm("p", spec);
    std::string bits;
    for (int i = 0; i < 256; ++i) {
      bits.push_back(fault.MaybeFail("p").ok() ? '0' : '1');
    }
    return bits;
  };
  std::string a = pattern(42);
  EXPECT_EQ(a, pattern(42));          // replayable
  EXPECT_NE(a, pattern(43));          // seed actually matters
  EXPECT_NE(a.find('0'), std::string::npos);  // and p=0.5 is not 0 or 1
  EXPECT_NE(a.find('1'), std::string::npos);
}

TEST(FaultInjectorTest, MaxFiresStopsInjectingButKeepsCounting) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kParseError;
  spec.max_fires = 3;
  spec.message = "injected parse failure";
  fault.Arm("xml.parse", spec);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    Status status = fault.MaybeFail("xml.parse");
    if (!status.ok()) {
      ++failures;
      EXPECT_EQ(status.code(), StatusCode::kParseError);
      EXPECT_EQ(status.message(), "injected parse failure");
    }
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(fault.HitCount("xml.parse"), 10u);
  EXPECT_EQ(fault.FireCount("xml.parse"), 3u);
}

TEST(FaultInjectorTest, DelayOnlyFailpointSleepsAndReturnsOk) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kOk;
  spec.delay_ms = 20;
  fault.Arm("slow", spec);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(fault.MaybeFail("slow").ok());
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 15);
}

TEST(FaultInjectorTest, DisarmRestoresOkAndRearmResetsTheRng) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  fault.Arm("x", spec);
  EXPECT_FALSE(fault.MaybeFail("x").ok());
  fault.Disarm("x");
  EXPECT_TRUE(fault.MaybeFail("x").ok());
  fault.Arm("x", spec);
  EXPECT_FALSE(fault.MaybeFail("x").ok());
  fault.DisarmAll();
  EXPECT_TRUE(fault.MaybeFail("x").ok());
}

TEST(FaultInjectorTest, ArmFromSpecParsesTheEnvSyntax) {
  FaultInjector fault;
  ASSERT_TRUE(fault
                  .ArmFromSpec("xml.parse:parse:1:2, pool.task:delay:1:-1:5")
                  .ok());
  EXPECT_EQ(fault.MaybeFail("xml.parse").code(), StatusCode::kParseError);
  EXPECT_EQ(fault.MaybeFail("xml.parse").code(), StatusCode::kParseError);
  EXPECT_TRUE(fault.MaybeFail("xml.parse").ok());  // max_fires=2 spent
  EXPECT_TRUE(fault.MaybeFail("pool.task").ok());  // delay-only
}

TEST(FaultInjectorTest, ArmFromSpecRejectsMalformedEntries) {
  FaultInjector fault;
  EXPECT_FALSE(fault.ArmFromSpec("justaname").ok());       // no code
  EXPECT_FALSE(fault.ArmFromSpec("p:nosuchcode").ok());    // unknown code
  EXPECT_FALSE(fault.ArmFromSpec(":parse").ok());          // empty name
  EXPECT_FALSE(fault.ArmFromSpec("p:parse:notanum").ok()); // bad probability
  EXPECT_FALSE(fault.ArmFromSpec("p:parse:1:x").ok());     // bad max_fires
}

// --- Pipeline chaos ------------------------------------------------------

// Each task is timed once, around all of its attempts and any fallback:
// the task latency histogram holds one sample per task, both unlabeled
// and in the run's {corpus="chaos"} slice.
void ExpectOneTaskSamplePerTask(MetricsRegistry& registry, size_t tasks) {
  EXPECT_EQ(registry.GetHistogram("xmlproj_stage_task_ns")->Count(), tasks);
  EXPECT_EQ(
      registry.GetHistogram("xmlproj_stage_task_ns", {{"corpus", "chaos"}})
          ->Count(),
      tasks);
}

constexpr const char* kDtdText = R"(
<!ELEMENT root (item*)>
<!ELEMENT item (keep?, drop?)>
<!ELEMENT keep (#PCDATA)>
<!ELEMENT drop (#PCDATA)>
)";

class PipelineChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dtd = ParseDtd(kDtdText, "root");
    ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
    dtd_ = std::make_unique<Dtd>(std::move(*dtd));
    projector_ = NameSet(dtd_->name_count());
    projector_.Add(dtd_->NameOfTag("root"));
    projector_.Add(dtd_->NameOfTag("item"));
    NameId keep = dtd_->NameOfTag("keep");
    projector_.Add(keep);
    projector_.Add(dtd_->StringNameOf(keep));
    for (int d = 0; d < 8; ++d) {
      std::string doc = "<root>";
      for (int i = 0; i <= d; ++i) {
        doc += "<item><keep>k" + std::to_string(i) + "</keep><drop>x</drop>"
               "</item>";
      }
      doc += "</root>";
      corpus_.push_back(std::move(doc));
    }
  }

  // Fault-free sequential reference for document i.
  std::string Reference(size_t i) const {
    PipelineOptions sequential;
    sequential.num_threads = 1;
    auto run = PruneCorpus(std::span(&corpus_[i], 1), *dtd_, projector_,
                           sequential);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run->results[0].output;
  }

  std::unique_ptr<Dtd> dtd_;
  NameSet projector_;
  std::vector<std::string> corpus_;
};

TEST_F(PipelineChaosTest, FailFastSurfacesInjectedParseError) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kParseError;
  spec.max_fires = 1;
  spec.message = "injected parse failure";
  fault.Arm("xml.parse", spec);

  PipelineOptions options;
  options.num_threads = 4;
  options.fault = &fault;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kParseError);
  EXPECT_NE(run.status().message().find("pipeline task"), std::string::npos);
  EXPECT_NE(run.status().message().find("injected parse failure"),
            std::string::npos);
}

TEST_F(PipelineChaosTest, IsolateQuarantinesTheFailingDocumentOnly) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kInvalid;  // e.g. a poisoned allocation path
  spec.max_fires = 1;
  fault.Arm("prune.element", spec);

  MetricsRegistry registry;
  PipelineOptions options;
  options.num_threads = 4;
  options.policy = ErrorPolicy::kIsolate;
  options.fault = &fault;
  options.metrics = &registry;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failures.size(), 1u);
  const TaskFailure& failure = run->failures[0];
  EXPECT_EQ(failure.status.code(), StatusCode::kInvalid);
  EXPECT_EQ(failure.stage, "prune");
  EXPECT_TRUE(run->results[failure.task].output.empty());
  EXPECT_EQ(run->summary.failed, 1u);
  EXPECT_EQ(run->summary.tasks, corpus_.size() - 1);
  for (size_t i = 0; i < corpus_.size(); ++i) {
    if (i == failure.task) continue;
    EXPECT_EQ(run->results[i].output, Reference(i)) << "survivor " << i;
  }
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_isolated_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_errors_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_tasks_total")->Value(),
            corpus_.size());
}

TEST_F(PipelineChaosTest, IsolateSurvivorsMatchSequentialUnderHeavyFaults) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;  // injected allocation failure
  spec.probability = 0.4;
  fault.Arm("pipeline.task", spec);

  PipelineOptions options;
  options.num_threads = 4;
  options.policy = ErrorPolicy::kIsolate;
  options.fault = &fault;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<bool> failed(corpus_.size(), false);
  for (const TaskFailure& f : run->failures) {
    EXPECT_EQ(f.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(f.stage, "budget");
    failed[f.task] = true;
  }
  EXPECT_EQ(run->summary.failed, run->failures.size());
  for (size_t i = 0; i < corpus_.size(); ++i) {
    if (failed[i]) {
      EXPECT_TRUE(run->results[i].output.empty());
    } else {
      EXPECT_EQ(run->results[i].output, Reference(i)) << "survivor " << i;
    }
  }
}

TEST_F(PipelineChaosTest, RetryRecoversFromTransientFaults) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.max_fires = 2;
  spec.message = "transient I/O fault";
  fault.Arm("pipeline.task", spec);

  MetricsRegistry registry;
  PipelineOptions options;
  options.num_threads = 4;
  options.policy = ErrorPolicy::kRetry;
  options.retry.max_attempts = 3;
  options.retry.backoff_ms = 1;
  options.fault = &fault;
  options.metrics = &registry;
  options.corpus_label = "chaos";
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->failures.empty());
  EXPECT_EQ(run->summary.tasks, corpus_.size());
  EXPECT_EQ(run->summary.retries, 2u);  // one extra attempt per fire
  for (size_t i = 0; i < corpus_.size(); ++i) {
    EXPECT_EQ(run->results[i].output, Reference(i)) << "document " << i;
  }
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_retries_total")->Value(),
            2u);
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_errors_total")->Value(),
            0u);
  // One latency sample per task, however many attempts it took.
  ExpectOneTaskSamplePerTask(registry, corpus_.size());
}

TEST_F(PipelineChaosTest, RetryExhaustionQuarantinesWithAttemptCount) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;  // permanent "transient" fault
  fault.Arm("pipeline.task", spec);

  PipelineOptions options;
  options.num_threads = 2;
  options.policy = ErrorPolicy::kRetry;
  options.retry.max_attempts = 2;
  options.retry.backoff_ms = 0;
  options.fault = &fault;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failures.size(), corpus_.size());
  for (const TaskFailure& f : run->failures) {
    EXPECT_EQ(f.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(f.stage, "io");
    EXPECT_EQ(f.attempts, 2);
  }
  EXPECT_EQ(run->summary.tasks, 0u);
  EXPECT_EQ(run->summary.failed, corpus_.size());
}

TEST_F(PipelineChaosTest, RetryDoesNotRetryNonTransientFaults) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kParseError;
  spec.max_fires = 1;
  fault.Arm("xml.parse", spec);

  PipelineOptions options;
  options.num_threads = 1;
  options.policy = ErrorPolicy::kRetry;
  options.retry.max_attempts = 5;
  options.fault = &fault;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failures.size(), 1u);
  EXPECT_EQ(run->failures[0].task, 0u);  // sequential: first doc fails
  EXPECT_EQ(run->failures[0].attempts, 1);  // parse errors are permanent
  EXPECT_EQ(run->failures[0].stage, "parse");
  EXPECT_EQ(run->summary.retries, 0u);
}

TEST_F(PipelineChaosTest, DegradesToIdentityPassWhenDocumentOffGrammar) {
  // Well-formed but off-grammar: <rogue> is not declared in the DTD, so
  // type-based projection is inapplicable (kInvalid from the pruner).
  std::vector<std::string> corpus = corpus_;
  corpus[3] = "<root><item><rogue>data</rogue></item></root>";

  MetricsRegistry registry;
  PipelineOptions options;
  options.num_threads = 1;
  options.policy = ErrorPolicy::kIsolate;
  options.degrade_on_invalid = true;
  options.metrics = &registry;
  options.corpus_label = "chaos";
  auto run = PruneCorpus(corpus, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->failures.empty());
  EXPECT_TRUE(run->results[3].degraded);
  // The degraded output is the *unprojected* document.
  std::string identity;
  {
    SerializingHandler sink(&identity);
    ASSERT_TRUE(ParseXmlStream(corpus[3], &sink).ok());
  }
  EXPECT_EQ(run->results[3].output, identity);
  EXPECT_EQ(run->results[3].stats.input_nodes,
            run->results[3].stats.kept_nodes);
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (i == 3) continue;
    EXPECT_FALSE(run->results[i].degraded);
    EXPECT_EQ(run->results[i].output, Reference(i));
  }
  EXPECT_EQ(run->summary.degraded, 1u);
  EXPECT_EQ(run->summary.tasks, corpus.size());
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_degraded_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_errors_total")->Value(),
            0u);
  // The failed pruning pass and its identity fallback are one task: one
  // latency sample, not two.
  ExpectOneTaskSamplePerTask(registry, corpus.size());
}

TEST_F(PipelineChaosTest, DegradedPeakCoversTheIdentityPass) {
  // The pruning attempt fails at the root's first child, so its peak is
  // tiny; the identity fallback then materializes the whole document.
  // The task's peak — and the journal's auto-tuned cap built from it —
  // must cover the pass that produced the output, with or without a
  // budget guard in the chain.
  std::string doc = "<root><rogue/>";
  for (int i = 0; i < 64; ++i) {
    doc += "<item><keep>k" + std::to_string(i) + "</keep></item>";
  }
  doc += "</root>";
  for (uint64_t deadline_ms : {uint64_t{0}, uint64_t{60000}}) {
    MetricsRegistry registry;
    PipelineOptions options;
    options.num_threads = 1;
    options.policy = ErrorPolicy::kIsolate;
    options.degrade_on_invalid = true;
    options.budget.deadline_ms = deadline_ms;
    options.metrics = &registry;
    auto run = PruneCorpus(std::span(&doc, 1), *dtd_, projector_, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run->results[0].degraded) << "deadline " << deadline_ms;
    const size_t output_bytes = run->results[0].output.size();
    EXPECT_GE(run->summary.max_task_peak_bytes, output_bytes)
        << "deadline " << deadline_ms;
    EXPECT_GE(registry.GetGauge("xmlproj_memory_peak_bytes")->Value(),
              static_cast<int64_t>(output_bytes))
        << "deadline " << deadline_ms;
  }
}

TEST_F(PipelineChaosTest, DegradationDoesNotMaskParseErrors) {
  // A truncated document fails the identity pass too: degradation must
  // not claim to answer it.
  std::vector<std::string> corpus = corpus_;
  corpus[2] = "<root><item><keep>chopped";

  PipelineOptions options;
  options.num_threads = 1;
  options.policy = ErrorPolicy::kIsolate;
  options.degrade_on_invalid = true;
  auto run = PruneCorpus(corpus, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failures.size(), 1u);
  EXPECT_EQ(run->failures[0].task, 2u);
  EXPECT_EQ(run->failures[0].stage, "parse");
  EXPECT_EQ(run->summary.degraded, 0u);
}

TEST_F(PipelineChaosTest, DeadlineBlowoutSurfacesAsDeadlineExceeded) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kOk;  // delay-only: a wedged, not failing, task
  spec.delay_ms = 30;
  fault.Arm("prune.element", spec);

  MetricsRegistry registry;
  PipelineOptions options;
  options.num_threads = 1;
  options.policy = ErrorPolicy::kIsolate;
  options.budget.deadline_ms = 5;
  options.fault = &fault;
  options.metrics = &registry;
  std::vector<std::string> one = {corpus_.back()};
  auto run = PruneCorpus(one, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failures.size(), 1u);
  EXPECT_EQ(run->failures[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(run->failures[0].stage, "deadline");
  EXPECT_EQ(
      registry.GetCounter("xmlproj_pipeline_deadline_exceeded_total")->Value(),
      1u);
}

TEST_F(PipelineChaosTest, SlowWorkersStillProduceCorrectOutput) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kOk;
  spec.delay_ms = 5;
  fault.Arm("pool.task", spec);  // every worker dispatch is slow

  PipelineOptions options;
  options.num_threads = 4;
  options.fault = &fault;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (size_t i = 0; i < corpus_.size(); ++i) {
    EXPECT_EQ(run->results[i].output, Reference(i)) << "document " << i;
  }
  EXPECT_GE(fault.FireCount("pool.task"), corpus_.size());
}

TEST_F(PipelineChaosTest, PoolLevelFaultsAreQuarantinedUnderIsolate) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.max_fires = 1;
  fault.Arm("pool.task", spec);  // task never runs; future carries the fault

  PipelineOptions options;
  options.num_threads = 4;
  options.policy = ErrorPolicy::kIsolate;
  options.fault = &fault;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failures.size(), 1u);
  EXPECT_EQ(run->failures[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(run->failures[0].stage, "io");
  for (size_t i = 0; i < corpus_.size(); ++i) {
    if (i == run->failures[0].task) continue;
    EXPECT_EQ(run->results[i].output, Reference(i)) << "survivor " << i;
  }
}

// --- Circuit breaker in the pipeline ------------------------------------

TEST_F(PipelineChaosTest, OpenBreakerFastFailsAdmissionUnderIsolate) {
  CircuitBreaker breaker;
  breaker.Seed(0, 32);  // journal-style seed from a melting prior run
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);

  MetricsRegistry registry;
  PipelineOptions options;
  options.num_threads = 2;
  options.policy = ErrorPolicy::kIsolate;
  options.breaker = &breaker;
  options.metrics = &registry;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failures.size(), corpus_.size());
  for (const TaskFailure& failure : run->failures) {
    EXPECT_EQ(failure.stage, "circuit");
    EXPECT_EQ(failure.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(run->results[failure.task].output.empty());
  }
  // Fast-failed tasks never executed: no completed-task accounting.
  EXPECT_EQ(run->summary.tasks, 0u);
  EXPECT_EQ(run->summary.failed, corpus_.size());
  EXPECT_EQ(breaker.denied(), corpus_.size());
  EXPECT_EQ(registry.GetCounter("xmlproj_pipeline_tasks_total")->Value(), 0u);
}

TEST_F(PipelineChaosTest, BreakerTripsMidRunAndQuarantinesTheRest) {
  FaultInjector fault;
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  fault.Arm("pipeline.task", spec);  // every executed task fails

  CircuitBreakerOptions breaker_options;
  breaker_options.window = 4;
  breaker_options.min_samples = 2;
  breaker_options.cooldown_ms = 60 * 1000;  // never recovers mid-test
  CircuitBreaker breaker(breaker_options);

  PipelineOptions options;
  options.num_threads = 1;  // deterministic admission order
  options.policy = ErrorPolicy::kIsolate;
  options.fault = &fault;
  options.breaker = &breaker;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failures.size(), corpus_.size());
  // The first min_samples failures executed (stage "io" for
  // kUnavailable); once the ratio tripped, the rest fast-failed at
  // admission with stage "circuit".
  size_t executed = 0, fast_failed = 0;
  for (const TaskFailure& failure : run->failures) {
    if (failure.stage == "circuit") {
      ++fast_failed;
    } else {
      EXPECT_EQ(failure.stage, "io");
      ++executed;
    }
  }
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fast_failed, corpus_.size() - 2);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.opened(), 1u);
}

TEST_F(PipelineChaosTest, BreakerIsIgnoredUnderFailFast) {
  // kFailFast already stops at the first failure — admission control
  // would only distort its semantics, so the pipeline drops the breaker.
  CircuitBreaker breaker;
  breaker.Seed(0, 32);
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);

  PipelineOptions options;
  options.num_threads = 2;
  options.breaker = &breaker;  // policy stays kFailFast
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (size_t i = 0; i < corpus_.size(); ++i) {
    EXPECT_EQ(run->results[i].output, Reference(i)) << "document " << i;
  }
  EXPECT_EQ(breaker.denied(), 0u);
}

TEST_F(PipelineChaosTest, HealthySuccessesFeedTheBreakerWindow) {
  CircuitBreakerOptions breaker_options;
  breaker_options.window = 4;
  breaker_options.min_samples = 2;
  CircuitBreaker breaker(breaker_options);

  PipelineOptions options;
  options.num_threads = 2;
  options.policy = ErrorPolicy::kIsolate;
  options.breaker = &breaker;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->failures.empty());
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  // A healthy run must leave the breaker ready to trip on real signal,
  // not half-filled: the window saw every outcome.
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
}

TEST_F(PipelineChaosTest, MeterMemoryPopulatesPeakWithoutABudget) {
  MetricsRegistry registry;
  PipelineOptions options;
  options.num_threads = 2;
  options.meter_memory = true;  // no caps — metering only
  options.metrics = &registry;
  auto run = PruneCorpus(corpus_, *dtd_, projector_, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->summary.max_task_peak_bytes, 0u);
  EXPECT_GT(registry.GetGauge("xmlproj_memory_peak_bytes")->Value(), 0);
  // Metering must not perturb output.
  for (size_t i = 0; i < corpus_.size(); ++i) {
    EXPECT_EQ(run->results[i].output, Reference(i)) << "document " << i;
  }
}

}  // namespace
}  // namespace xmlproj
