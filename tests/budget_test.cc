// Resource-budget accounting tests (PipelineOptions::budget): the byte
// cap trips with bounded overshoot, an inactive budget is free and
// transparent, a deadline too large to represent means no deadline,
// kIsolate runs produce byte-identical output for the surviving
// documents compared to a sequential run without the failing ones, and
// the task memory peak read after the pass agrees with a per-event
// meter (differential oracle).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_meter.h"
#include "projection/pipeline.h"
#include "random_xml.h"
#include "xmark/corpus.h"
#include "xmark/queries.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/splice.h"

namespace xmlproj {
namespace {

using testing_random::DocGenerator;
using testing_random::RandomDtd;

std::string Serialize(const Document& doc) { return SerializeDocument(doc); }

// Property: across randomized grammars and documents, a byte cap set
// below the document's metered footprint yields kResourceExhausted with
// the metered peak within 10% of the cap — the guard checks at SAX-event
// granularity, so the overshoot is bounded by one event's output plus one
// stack frame, far under 10% of any non-toy cap.
TEST(BudgetTest, ResourceExhaustedFiresWithinTenPercentOfCap) {
  int checked = 0;
  for (uint64_t seed = 1; seed <= 300 && checked < 8; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    DocGenerator gen(dtd, seed * 31 + 7);
    auto doc = gen.Generate();
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    std::vector<std::string> corpus = {Serialize(*doc)};
    if (corpus[0].size() < 3000) continue;  // need a non-toy cap
    NameSet projector = dtd.AllNames();

    PipelineOptions options;
    options.num_threads = 1;
    options.policy = ErrorPolicy::kIsolate;
    options.budget.max_bytes = corpus[0].size() / 2;
    auto run = PruneCorpus(corpus, dtd, projector, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->failures.size(), 1u) << "seed " << seed;
    const TaskFailure& failure = run->failures[0];
    EXPECT_EQ(failure.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(failure.stage, "budget");
    EXPECT_GT(failure.peak_bytes, options.budget.max_bytes) << "seed " << seed;
    EXPECT_LE(failure.peak_bytes,
              options.budget.max_bytes + options.budget.max_bytes / 10)
        << "seed " << seed;
    EXPECT_TRUE(run->results[0].output.empty());
    ++checked;
  }
  EXPECT_GE(checked, 5) << "generator produced too few large documents";
}

// A cap above the metered footprint must be invisible: same bytes as the
// unbudgeted pass, no failures, despite the guard filter being in place.
TEST(BudgetTest, GenerousBudgetIsTransparent) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    std::vector<std::string> corpus;
    for (uint64_t d = 0; d < 4; ++d) {
      DocGenerator gen(dtd, seed * 100 + d);
      auto doc = gen.Generate();
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      corpus.push_back(Serialize(*doc));
    }
    NameSet projector = dtd.AllNames();

    PipelineOptions sequential;
    sequential.num_threads = 1;
    auto unbudgeted = PruneCorpus(corpus, dtd, projector, sequential);
    ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();

    PipelineOptions options;
    options.num_threads = 2;
    options.policy = ErrorPolicy::kIsolate;
    size_t largest = 0;
    for (const std::string& text : corpus) {
      largest = std::max(largest, text.size());
    }
    options.budget.max_bytes = largest * 4 + (1 << 16);
    options.budget.deadline_ms = 60000;
    auto budgeted = PruneCorpus(corpus, dtd, projector, options);
    ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
    EXPECT_TRUE(budgeted->failures.empty());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(budgeted->results[i].output, unbudgeted->results[i].output)
          << "seed " << seed << " document " << i;
    }
  }
}

// An all-zero budget keeps the guard out of the pass entirely (no filter,
// no clock reads); outputs are the reference bytes.
TEST(BudgetTest, ZeroBudgetMeansUnlimited) {
  int name_count = 0;
  Dtd dtd = RandomDtd(3, &name_count);
  DocGenerator gen(dtd, 77);
  auto doc = gen.Generate();
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::vector<std::string> corpus = {Serialize(*doc)};
  NameSet projector = dtd.AllNames();

  PipelineOptions options;
  options.num_threads = 1;
  EXPECT_FALSE(options.budget.active());
  auto reference = PruneCorpus(corpus, dtd, projector, options);
  ASSERT_TRUE(reference.ok());

  options.policy = ErrorPolicy::kIsolate;  // still no budget
  auto run = PruneCorpus(corpus, dtd, projector, options);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->failures.empty());
  EXPECT_EQ(run->results[0].output, reference->results[0].output);
}

// The satellite property: a kIsolate run over a corpus with some
// documents doomed to fail produces byte-identical output for the
// surviving documents compared to a sequential run over the corpus with
// the failing documents removed.
TEST(BudgetTest, IsolateSurvivorsMatchSequentialRunWithoutTheFailures) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    std::vector<std::string> corpus;
    for (uint64_t d = 0; d < 10; ++d) {
      DocGenerator gen(dtd, seed * 1000 + d);
      auto doc = gen.Generate();
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      corpus.push_back(Serialize(*doc));
    }
    // Doom every third document: truncation makes the parse fail.
    std::vector<bool> doomed(corpus.size(), false);
    for (size_t i = 0; i < corpus.size(); i += 3) {
      corpus[i].resize(corpus[i].size() / 2);
      doomed[i] = true;
    }
    NameSet projector = dtd.AllNames();

    PipelineOptions isolate;
    isolate.num_threads = 4;
    isolate.policy = ErrorPolicy::kIsolate;
    auto run = PruneCorpus(corpus, dtd, projector, isolate);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    std::vector<bool> reported(corpus.size(), false);
    for (const TaskFailure& f : run->failures) reported[f.task] = true;
    // Truncation *can* leave a well-formed prefix; every doomed document
    // that did fail must be reported, and no healthy one may be.
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (!doomed[i]) {
        EXPECT_FALSE(reported[i]) << "seed " << seed << " document " << i;
      }
    }

    // Sequential run over the survivors only.
    std::vector<std::string> survivors;
    std::vector<size_t> survivor_index;
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (reported[i]) continue;
      survivors.push_back(corpus[i]);
      survivor_index.push_back(i);
    }
    PipelineOptions sequential_options;
    sequential_options.num_threads = 1;
    auto sequential =
        PruneCorpus(survivors, dtd, projector, sequential_options);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    for (size_t s = 0; s < survivors.size(); ++s) {
      EXPECT_EQ(run->results[survivor_index[s]].output,
                sequential->results[s].output)
          << "seed " << seed << " survivor " << survivor_index[s];
    }
    EXPECT_EQ(run->summary.tasks, survivors.size());
    EXPECT_EQ(run->summary.output_bytes, sequential->summary.output_bytes);
  }
}

// Budgets are per task: one oversized document trips its own cap without
// taking down its siblings (the per-task MemoryMeter starts fresh).
TEST(BudgetTest, BudgetsAreScopedPerTask) {
  // Find one grammar that generates both a big and a small document (the
  // two tasks must share the DTD and projector).
  std::optional<Dtd> chosen;
  std::string big;
  std::string small;
  for (uint64_t seed = 1; seed <= 40 && !chosen.has_value(); ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    std::string candidate_big;
    std::string candidate_small;
    for (uint64_t d = 0; d < 32; ++d) {
      DocGenerator gen(dtd, seed * 500 + d);
      auto doc = gen.Generate();
      ASSERT_TRUE(doc.ok());
      std::string text = Serialize(*doc);
      if (text.size() >= 3072 && candidate_big.empty()) {
        candidate_big = std::move(text);
      } else if (text.size() < 1024 && candidate_small.empty()) {
        candidate_small = std::move(text);
      }
      if (!candidate_big.empty() && !candidate_small.empty()) {
        chosen.emplace(std::move(dtd));
        big = std::move(candidate_big);
        small = std::move(candidate_small);
        break;
      }
    }
  }
  ASSERT_TRUE(chosen.has_value()) << "no grammar produced both sizes";
  const Dtd& dtd = *chosen;
  std::vector<std::string> corpus = {small, big, small, big, small};
  NameSet projector = dtd.AllNames();

  PipelineOptions options;
  options.num_threads = 2;
  options.policy = ErrorPolicy::kIsolate;
  options.budget.max_bytes = 2048;  // small fits, big cannot
  auto run = PruneCorpus(corpus, dtd, projector, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->failures.size(), 2u);
  EXPECT_EQ(run->failures[0].task, 1u);
  EXPECT_EQ(run->failures[1].task, 3u);
  for (size_t i : {size_t{0}, size_t{2}, size_t{4}}) {
    EXPECT_FALSE(run->results[i].output.empty()) << "document " << i;
  }
}

// Deadlines too large to represent in nanoseconds mean "no deadline":
// the guard's and the watchdog's arithmetic saturate instead of wrapping
// around to a deadline that has already passed.
TEST(BudgetTest, HugeDeadlinesSaturateToNoDeadline) {
  int name_count = 0;
  Dtd dtd = RandomDtd(3, &name_count);
  std::vector<std::string> corpus;
  for (uint64_t d = 0; d < 4; ++d) {
    DocGenerator gen(dtd, 300 + d);
    auto doc = gen.Generate();
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    corpus.push_back(Serialize(*doc));
  }
  NameSet projector = dtd.AllNames();

  PipelineOptions plain;
  plain.num_threads = 1;
  auto reference = PruneCorpus(corpus, dtd, projector, plain);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (uint64_t deadline_ms : {UINT64_MAX, uint64_t{9223372036854775807}}) {
    for (double watchdog_factor : {0.0, 2.0}) {
      PipelineOptions options;
      options.num_threads = 2;
      options.policy = ErrorPolicy::kIsolate;
      options.budget.deadline_ms = deadline_ms;
      options.watchdog_factor = watchdog_factor;
      auto run = PruneCorpus(corpus, dtd, projector, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(run->failures.empty())
          << "deadline " << deadline_ms << " watchdog " << watchdog_factor
          << ": " << run->failures[0].status.ToString();
      for (size_t i = 0; i < corpus.size(); ++i) {
        EXPECT_EQ(run->results[i].output, reference->results[i].output)
            << "deadline " << deadline_ms << " watchdog " << watchdog_factor
            << " document " << i;
      }
    }
  }
}

// --- Differential oracle for the task memory peak -----------------------
//
// The pipeline reads a task's peak after each pass: the sink's produced
// bytes plus the parser's open-element high-water mark. The oracle is a
// SAX filter that meters per event instead — a MemoryMeter fed the
// growth of the sink's produced bytes after every event, plus tag bytes
// + kOpenElementBytes per open element. Output only grows, so the two
// readings differ by at most the open-element high-water mark, and the
// after-the-pass reading is never the smaller one.
class PerEventMeter : public SaxHandler {
 public:
  PerEventMeter(SaxHandler* downstream, const SplicingSerializingHandler* sink)
      : downstream_(downstream), sink_(sink) {}

  size_t peak() const { return meter_.peak(); }
  size_t open_bytes_peak() const { return open_bytes_peak_; }

  void SetLocator(const SaxLocator* locator) override {
    downstream_->SetLocator(locator);
  }
  Status StartDocument() override {
    XMLPROJ_RETURN_IF_ERROR(downstream_->StartDocument());
    return Account(0, 0);
  }
  Status EndDocument() override {
    XMLPROJ_RETURN_IF_ERROR(downstream_->EndDocument());
    return Account(0, 0);
  }
  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override {
    XMLPROJ_RETURN_IF_ERROR(downstream_->StartElement(tag, attributes));
    return Account(tag.size() + kOpenElementBytes, 0);
  }
  Status EndElement(std::string_view tag) override {
    XMLPROJ_RETURN_IF_ERROR(downstream_->EndElement(tag));
    return Account(0, tag.size() + kOpenElementBytes);
  }
  Status Characters(std::string_view text) override {
    XMLPROJ_RETURN_IF_ERROR(downstream_->Characters(text));
    return Account(0, 0);
  }
  Status Doctype(std::string_view name,
                 std::string_view internal_subset) override {
    XMLPROJ_RETURN_IF_ERROR(downstream_->Doctype(name, internal_subset));
    return Account(0, 0);
  }

 private:
  Status Account(size_t add_bytes, size_t sub_bytes) {
    meter_.Add(add_bytes);
    open_bytes_ += add_bytes;
    open_bytes_peak_ = std::max(open_bytes_peak_, open_bytes_);
    meter_.Sub(sub_bytes);
    open_bytes_ -= sub_bytes;
    const size_t produced = sink_->produced_bytes();
    if (produced > accounted_output_) {
      meter_.Add(produced - accounted_output_);
      accounted_output_ = produced;
    }
    return Status::Ok();
  }

  SaxHandler* downstream_;
  const SplicingSerializingHandler* sink_;
  MemoryMeter meter_;
  size_t open_bytes_ = 0;
  size_t open_bytes_peak_ = 0;
  size_t accounted_output_ = 0;
};

struct OracleReading {
  size_t peak = 0;
  size_t open_bytes_peak = 0;
  std::string output;
};

// One task through the oracle: the pruning pass and, when it fails and
// `degrade` is set, the identity fallback. Peaks fold over both passes.
OracleReading OracleTask(const std::string& xml, const Dtd& dtd,
                         const NameSet& projector, bool validate,
                         bool degrade) {
  OracleReading reading;
  auto pass = [&](bool identity) {
    reading.output.clear();
    SplicingSerializingHandler sink(xml, &reading.output);
    Status status;
    auto run = [&](SaxHandler* root) {
      PerEventMeter meter(root, &sink);
      status = ParseXmlStream(xml, &meter);
      sink.Finish();
      reading.peak = std::max(reading.peak, meter.peak());
      reading.open_bytes_peak =
          std::max(reading.open_bytes_peak, meter.open_bytes_peak());
    };
    if (identity) {
      run(&sink);
    } else if (validate) {
      ValidatingPruner pruner(dtd, projector, &sink);
      run(&pruner);
    } else {
      StreamingPruner pruner(dtd, projector, &sink);
      run(&pruner);
    }
    return status;
  };
  Status status = pass(/*identity=*/false);
  if (!status.ok() && degrade) status = pass(/*identity=*/true);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return reading;
}

void ExpectPeakMatchesOracle(const std::string& xml, const Dtd& dtd,
                             const NameSet& projector, bool validate,
                             bool degrade, const std::string& label) {
  SCOPED_TRACE(label);
  OracleReading oracle = OracleTask(xml, dtd, projector, validate, degrade);

  PipelineOptions options;
  options.validate = validate;
  options.degrade_on_invalid = degrade;
  auto bare = PruneDocument(xml, dtd, projector, options);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare->results[0].degraded, degrade);
  EXPECT_EQ(bare->results[0].output, oracle.output);
  const size_t reading = bare->summary.max_task_peak_bytes;
  EXPECT_GE(reading, oracle.peak);
  EXPECT_LE(reading - std::min(reading, oracle.peak), oracle.open_bytes_peak)
      << "reading " << reading << " oracle " << oracle.peak;

  // A generous budget puts the guard in the chain; neither the bytes nor
  // the reading may move.
  options.budget.max_bytes = xml.size() * 4 + (1 << 16);
  options.budget.deadline_ms = 60000;
  auto budgeted = PruneDocument(xml, dtd, projector, options);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_EQ(budgeted->results[0].output, bare->results[0].output);
  EXPECT_EQ(budgeted->summary.max_task_peak_bytes, reading);
}

const Dtd& XmarkDtd() {
  static const Dtd* dtd = new Dtd(std::move(LoadXMarkDtd()).value());
  return *dtd;
}

NameSet XmarkQueryProjector(const std::string& id) {
  for (const BenchmarkQuery& query : AllBenchmarkQueries()) {
    if (query.id != id) continue;
    auto projector = WorkloadProjector(XmarkDtd(), std::span(&query, 1));
    EXPECT_TRUE(projector.ok()) << projector.status().ToString();
    return std::move(projector).value();
  }
  ADD_FAILURE() << "no benchmark query " << id;
  return NameSet(XmarkDtd().name_count());
}

std::string XmarkDoc(double scale) {
  XMarkCorpusOptions options;
  options.documents = 1;
  options.scale = scale;
  return GenerateXMarkCorpus(options)[0];
}

TEST(PeakOracleTest, RandomGrammars) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    DocGenerator gen(dtd, seed * 7919 + 3);
    auto doc = gen.Generate();
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    // Odd seeds keep everything; even seeds thin the projector (even
    // names plus the root) so dropped subtrees open gaps in the output.
    NameSet projector = dtd.AllNames();
    if (seed % 2 == 0) {
      NameSet thinned(dtd.name_count());
      projector.ForEach([&](NameId n) {
        if (n % 2 == 0) thinned.Add(n);
      });
      thinned.Add(dtd.root());
      projector = std::move(thinned);
    }
    ExpectPeakMatchesOracle(Serialize(*doc), dtd, projector,
                            /*validate=*/false, /*degrade=*/false,
                            "seed " + std::to_string(seed));
  }
}

TEST(PeakOracleTest, XMarkQueriesWithAndWithoutValidation) {
  for (double scale : {0.001, 0.01}) {
    std::string xml = XmarkDoc(scale);
    for (const char* id : {"QM06", "QP13"}) {
      NameSet projector = XmarkQueryProjector(id);
      for (bool validate : {false, true}) {
        ExpectPeakMatchesOracle(xml, XmarkDtd(), projector, validate,
                                /*degrade=*/false,
                                std::string(id) + " scale " +
                                    std::to_string(scale) + " validate " +
                                    std::to_string(validate));
      }
    }
  }
}

TEST(PeakOracleTest, DegradedIdentityPass) {
  // An undeclared first child of the root fails the pruning pass at once;
  // the identity fallback then carries the task's peak.
  std::string xml = XmarkDoc(0.001);
  const size_t root = xml.find("<site");
  ASSERT_NE(root, std::string::npos);
  xml.insert(xml.find('>', root) + 1, "<bogus/>");
  ExpectPeakMatchesOracle(xml, XmarkDtd(), XmarkQueryProjector("QM06"),
                          /*validate=*/false, /*degrade=*/true, "degraded");
}

}  // namespace
}  // namespace xmlproj
