// Robustness fuzzing: randomly corrupted XML, DTD and query inputs must
// produce Status errors — never crashes, hangs, or accepted garbage that
// breaks downstream invariants — and the skip-scanning parser must agree
// with a full parse wherever the full parse succeeds. Runs a few thousand
// mutations per seed.

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "full_stream.h"
#include "projection/pipeline.h"
#include "projection/pruner.h"
#include "random_xml.h"
#include "xmark/corpus.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/splice.h"
#include "xpath/parser.h"
#include "xquery/parser.h"

namespace xmlproj {
namespace {

std::string Mutate(const std::string& input, Rng* rng) {
  std::string out = input;
  int edits = rng->IntIn(1, 4);
  for (int e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = rng->Below(out.size());
    switch (rng->IntIn(0, 3)) {
      case 0:  // flip to a random interesting byte
        out[pos] = "<>&\"'/=[]{}()\0x"[rng->Below(14)];
        break;
      case 1:  // delete a span
        out.erase(pos, rng->IntIn(1, 8));
        break;
      case 2:  // duplicate a span
        out.insert(pos, out.substr(pos, rng->IntIn(1, 8)));
        break;
      default:  // truncate
        out.resize(pos);
        break;
    }
  }
  return out;
}

TEST(XmlFuzz, ParserNeverCrashesOnMutatedDocuments) {
  const std::string base =
      "<site><people><person id=\"p0\"><name>Alice &amp; Co</name>"
      "<emailaddress>a@x</emailaddress><profile income=\"90.5\">"
      "<interest category=\"c1\"/><business>No</business></profile>"
      "</person></people><open_auctions><open_auction id=\"o1\">"
      "<initial>12.50</initial><bidder><date>01/02/1999</date>"
      "<time>10:11:12</time><personref person=\"p0\"/>"
      "<increase>3.00</increase></bidder><current>20</current>"
      "<itemref item=\"i4\"/><seller person=\"p0\"/><annotation>"
      "<author person=\"p0\"/><description><text>gold "
      "<keyword>ring</keyword> lot</text></description>"
      "<happiness>7</happiness></annotation><quantity>1</quantity>"
      "<type>Regular</type><interval><start>a</start><end>b</end>"
      "</interval></open_auction></open_auctions></site>";
  Rng rng(0xf00d);
  int parsed_ok = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = Mutate(base, &rng);
    auto result = ParseXml(mutated);
    if (result.ok()) {
      ++parsed_ok;
      // Anything accepted must round-trip through the serializer.
      auto again = ParseXml(SerializeDocument(*result));
      EXPECT_TRUE(again.ok());
    }
  }
  // Some mutations (inside text content) stay well-formed.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, 2000);
}

TEST(XmlFuzz, DtdParserNeverCrashesOnMutatedDtds) {
  std::string base(XMarkDtdText());
  Rng rng(0xbeef);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = Mutate(base, &rng);
    auto result = ParseDtd(mutated, "site");
    if (result.ok()) {
      // An accepted grammar must be internally consistent.
      EXPECT_LE(result->root(), static_cast<NameId>(result->name_count()));
    }
  }
}

TEST(XmlFuzz, QueryParsersNeverCrashOnMutatedQueries) {
  const std::string base_xpath =
      "/site/people/person[profile/@income > 5000 and "
      "count(watches/watch) >= 2]/name/text()";
  const std::string base_xquery =
      "for $p in /site/people/person where $p/age > 30 "
      "return <x n=\"{$p/name/text()}\">{count($p/watches/watch)}</x>";
  Rng rng(0xcafe);
  for (int i = 0; i < 2000; ++i) {
    (void)ParseXPathExpr(Mutate(base_xpath, &rng));
    (void)ParseXQuery(Mutate(base_xquery, &rng));
  }
}

TEST(XmlFuzz, ValidatorNeverCrashesOnWellFormedGarbage) {
  // Well-formed documents with shuffled structure: validation must reject
  // or accept without crashing, on the real XMark grammar.
  Dtd dtd = std::move(LoadXMarkDtd()).value();
  Rng rng(0xd00d);
  XMarkOptions options;
  options.scale = 0.0005;
  std::string base = GenerateXMarkText(options);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = Mutate(base, &rng);
    auto doc = ParseXml(mutated);
    if (!doc.ok()) continue;
    (void)Validate(*doc, dtd);
  }
}

// Skip-scanning under mutation: the parser crosses rejected elements
// without tokenizing them, so it accepts some defects a full parse
// rejects (xml/parser.h, "Skip contract"). It must never crash, and
// whenever the full pass — the same pruner behind FullStream, which
// tokenizes everything — succeeds, the skip pass must succeed with the
// same bytes.
void FuzzSkipAgainstFull(const std::string& base, const Dtd& dtd,
                         const NameSet& projector, uint64_t seed) {
  Rng rng(seed);
  int full_ok = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string mutated = Mutate(base, &rng);
    std::string full_out;
    SplicingSerializingHandler full_sink(mutated, &full_out);
    StreamingPruner full_pruner(dtd, projector, &full_sink);
    testing_skip::FullStream full(&full_pruner);
    const Status full_status = ParseXmlStream(mutated, &full);
    full_sink.Finish();

    std::string skip_out;
    SplicingSerializingHandler skip_sink(mutated, &skip_out);
    StreamingPruner skip_pruner(dtd, projector, &skip_sink);
    const Status skip_status = ParseXmlStream(mutated, &skip_pruner);
    skip_sink.Finish();
    EXPECT_NE(skip_status.code(), StatusCode::kSkipSubtree);
    if (!full_status.ok()) continue;
    ++full_ok;
    ASSERT_TRUE(skip_status.ok())
        << "mutation " << i << ": " << skip_status.ToString();
    ASSERT_EQ(skip_out, full_out) << "mutation " << i;
  }
  EXPECT_GT(full_ok, 0);
}

TEST(XmlFuzz, SkipScanMatchesFullParse) {
  Dtd xmark = std::move(LoadXMarkDtd()).value();
  const BenchmarkQuery* qm06 = nullptr;
  const std::vector<BenchmarkQuery> queries = AllBenchmarkQueries();
  for (const BenchmarkQuery& query : queries) {
    if (query.id == "QM06") qm06 = &query;
  }
  ASSERT_NE(qm06, nullptr);
  auto projector = WorkloadProjector(xmark, std::span(qm06, 1));
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();
  XMarkOptions options;
  options.scale = 0.0005;
  FuzzSkipAgainstFull(GenerateXMarkText(options), xmark, *projector, 0x5c1b);

  int name_count = 0;
  Dtd random = testing_random::RandomDtd(7, &name_count);
  testing_random::DocGenerator gen(random, 7 * 7919 + 3);
  auto doc = gen.Generate();
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  NameSet thinned(random.name_count());
  random.AllNames().ForEach([&](NameId n) {
    if (n % 2 == 0) thinned.Add(n);
  });
  thinned.Add(random.root());
  FuzzSkipAgainstFull(SerializeDocument(*doc), random, thinned, 0x5c1c);
}

// Shared passes under mutation: PruneCorpusPerQuery runs a document's
// tasks as one parse that skips only what every projector drops, so a
// defect one projector skips and another parses meets the shared parse.
// Each task must still end as its own one-task pass does: the same
// output bytes, or a failure at the same stage with the same code.
TEST(XmlFuzz, SharedPassMatchesPerTaskOutcomes) {
  Dtd xmark = std::move(LoadXMarkDtd()).value();
  std::vector<NameSet> projectors;
  for (const char* id : {"QM06", "QP13", "QM01"}) {
    for (const BenchmarkQuery& query : AllBenchmarkQueries()) {
      if (query.id != id) continue;
      auto projector = WorkloadProjector(xmark, std::span(&query, 1));
      ASSERT_TRUE(projector.ok()) << projector.status().ToString();
      projectors.push_back(std::move(projector).value());
    }
  }
  ASSERT_EQ(projectors.size(), 3u);
  XMarkOptions options;
  options.scale = 0.0005;
  const std::string base = GenerateXMarkText(options);
  Rng rng(0x5c1d);
  std::vector<std::string> corpus;
  for (int i = 0; i < 400; ++i) corpus.push_back(Mutate(base, &rng));
  for (bool validate : {false, true}) {
    PipelineOptions pipeline;
    pipeline.policy = ErrorPolicy::kIsolate;
    pipeline.validate = validate;
    pipeline.num_threads = 4;
    auto shared = PruneCorpusPerQuery(corpus, xmark, projectors, pipeline);
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    std::vector<const TaskFailure*> failures(shared->results.size());
    for (const TaskFailure& f : shared->failures) failures[f.task] = &f;
    int mixed = 0;  // documents some projectors prune and others fail
    for (size_t d = 0; d < corpus.size(); ++d) {
      int ok = 0;
      for (size_t q = 0; q < projectors.size(); ++q) {
        const size_t task = d * projectors.size() + q;
        pipeline.num_threads = 1;
        auto alone = PruneCorpus(std::span(&corpus[d], 1), xmark,
                                 projectors[q], pipeline);
        ASSERT_TRUE(alone.ok()) << alone.status().ToString();
        if (alone->failures.empty()) {
          ++ok;
          ASSERT_EQ(failures[task], nullptr)
              << "task " << task << ": " << failures[task]->status.ToString();
          ASSERT_EQ(shared->results[task].output, alone->results[0].output)
              << "task " << task;
        } else {
          ASSERT_NE(failures[task], nullptr) << "task " << task;
          EXPECT_EQ(failures[task]->stage, alone->failures[0].stage);
          EXPECT_EQ(failures[task]->status.code(),
                    alone->failures[0].status.code());
        }
      }
      if (ok > 0 && ok < static_cast<int>(projectors.size())) ++mixed;
    }
    if (!validate) {
      EXPECT_GT(mixed, 0);
    }
  }
}

}  // namespace
}  // namespace xmlproj
