// Skip-scanning (xml/parser.h, "Skip contract"): when StreamingPruner
// rejects an element, the parser crosses its bytes without tokenizing
// them. This suite pins the fast path three ways:
//
//  - a differential oracle: each pass through the skipping parser agrees
//    with the same pass behind FullStream (tests/full_stream.h), where
//    the parser tokenizes everything. Output bytes, the open-element
//    high-water mark, the "xml.parse" failpoint's hit count and the kept
//    stats must match; input_nodes and skipped_bytes must differ by
//    exactly what FullStream dropped. PruneViaStreaming, whose replay
//    skips too, must match the DOM-level PruneDocument;
//  - a hostile-input gallery: what a skip accepts (defects the skip does
//    not look at) and what it still rejects, inside a rejected element
//    and inside an emptied one (a kept element whose DTD children the
//    projector all rejects, whose content the pruner skips too);
//  - emptied elements against the DOM-level Def 2.7 pruning;
//  - the verdict contract of both producers and the budget guard's polls
//    inside a skip.

#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "full_stream.h"
#include "obs/metrics.h"
#include "projection/pipeline.h"
#include "projection/pruner.h"
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
using testing_skip::FullStream;

const Dtd& XmarkDtd() {
  static const Dtd* dtd = new Dtd(std::move(LoadXMarkDtd()).value());
  return *dtd;
}

std::string XmarkDoc(double scale) {
  XMarkCorpusOptions options;
  options.documents = 1;
  options.scale = scale;
  return GenerateXMarkCorpus(options)[0];
}

// --- Differential oracle -------------------------------------------------

struct PassReading {
  Status status;
  std::string output;
  size_t open_bytes_peak = 0;
  uint64_t parse_hits = 0;
  PruneStats stats;
  // FullStream passes only.
  size_t dropped_elements = 0;
  size_t dropped_bytes = 0;
};

// One fused parse → prune → splice pass, as the pipeline runs it. With
// `full` the pruner's verdicts are taken by FullStream, so the parser
// never skips.
PassReading Pass(std::string_view xml, const Dtd& dtd,
                 const NameSet& projector, bool full) {
  PassReading reading;
  FaultInjector fault;
  FaultSpec count_only;
  count_only.max_fires = 0;
  fault.Arm("xml.parse", count_only);
  XmlParseOptions options;
  options.fault = &fault;
  SplicingSerializingHandler sink(xml, &reading.output);
  StreamingPruner pruner(dtd, projector, &sink);
  FullStream full_stream(&pruner);
  SaxHandler* top = full ? static_cast<SaxHandler*>(&full_stream) : &pruner;
  reading.status = ParseXmlStream(xml, top, options, &reading.open_bytes_peak);
  sink.Finish();
  reading.parse_hits = fault.HitCount("xml.parse");
  reading.stats = pruner.stats();
  reading.dropped_elements = full_stream.dropped_elements();
  reading.dropped_bytes = full_stream.dropped_bytes();
  return reading;
}

// Returns the skip pass's skipped_bytes, so callers can check that their
// inputs exercise the skip at all.
size_t ExpectSkipMatchesFull(std::string_view xml, const Dtd& dtd,
                             const NameSet& projector,
                             const std::string& label) {
  SCOPED_TRACE(label);
  PassReading skip = Pass(xml, dtd, projector, /*full=*/false);
  PassReading full = Pass(xml, dtd, projector, /*full=*/true);
  EXPECT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_TRUE(skip.status.ok()) << skip.status.ToString();
  EXPECT_EQ(skip.output, full.output);
  EXPECT_EQ(skip.open_bytes_peak, full.open_bytes_peak);
  EXPECT_EQ(skip.parse_hits, full.parse_hits);
  EXPECT_EQ(skip.stats.kept_nodes, full.stats.kept_nodes);
  EXPECT_EQ(skip.stats.kept_text_bytes, full.stats.kept_text_bytes);
  EXPECT_EQ(skip.stats.input_text_bytes, full.stats.input_text_bytes);
  EXPECT_EQ(skip.stats.input_nodes,
            full.stats.input_nodes + full.dropped_elements);
  EXPECT_EQ(skip.stats.skipped_bytes, full.dropped_bytes);
  EXPECT_EQ(full.stats.skipped_bytes, 0u);
  return skip.stats.skipped_bytes;
}

// PruneViaStreaming replays the DOM and skips by subtree_end; it must
// give the DOM-level Def 2.7 pruning, node for node.
void ExpectReplayMatchesDom(const Document& doc, const Dtd& dtd,
                            const NameSet& projector,
                            const std::string& label) {
  SCOPED_TRACE(label);
  auto interp = Validate(doc, dtd);
  ASSERT_TRUE(interp.ok()) << interp.status().ToString();
  PruneStats dom_stats;
  auto dom = PruneDocument(doc, *interp, projector, &dom_stats);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  PruneStats replay_stats;
  auto replay = PruneViaStreaming(doc, dtd, projector, &replay_stats);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(SerializeDocument(*replay), SerializeDocument(*dom));
  EXPECT_EQ(replay_stats.kept_nodes, dom_stats.kept_nodes);
  EXPECT_EQ(replay_stats.kept_text_bytes, dom_stats.kept_text_bytes);
  EXPECT_LE(replay_stats.input_nodes, dom_stats.input_nodes);
  EXPECT_EQ(replay_stats.skipped_bytes, 0u);
}

// Every XMark and XPathMark query, the dashboard union, and the four
// per-query dashboard projectors.
std::vector<std::pair<std::string, NameSet>> XmarkProjectors() {
  std::vector<std::pair<std::string, NameSet>> out;
  for (const BenchmarkQuery& query : AllBenchmarkQueries()) {
    auto projector = WorkloadProjector(XmarkDtd(), std::span(&query, 1));
    EXPECT_TRUE(projector.ok()) << projector.status().ToString();
    out.emplace_back(query.id, std::move(projector).value());
  }
  const std::vector<BenchmarkQuery>& dashboard = XMarkDashboardWorkload();
  auto merged = WorkloadProjector(XmarkDtd(), dashboard);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  out.emplace_back("dashboard", std::move(merged).value());
  auto per_query = WorkloadProjectors(XmarkDtd(), dashboard);
  EXPECT_TRUE(per_query.ok()) << per_query.status().ToString();
  for (size_t i = 0; i < per_query->size(); ++i) {
    out.emplace_back("dashboard/" + dashboard[i].id, (*per_query)[i]);
  }
  return out;
}

TEST(SkipOracleTest, XMarkEveryQueryAndDashboardProjector) {
  const auto projectors = XmarkProjectors();
  ASSERT_GE(projectors.size(), 40u);
  for (double scale : {0.001, 0.01}) {
    const std::string xml = XmarkDoc(scale);
    size_t skipping = 0;
    for (const auto& [id, projector] : projectors) {
      const size_t skipped = ExpectSkipMatchesFull(
          xml, XmarkDtd(), projector,
          id + " scale " + std::to_string(scale));
      if (skipped > 0) ++skipping;
    }
    // Most projectors reject something; QP13-style full keeps do not.
    EXPECT_GT(skipping, projectors.size() / 2) << "scale " << scale;
  }
}

TEST(SkipOracleTest, XMarkReplayMatchesDomPruning) {
  auto doc = ParseXml(XmarkDoc(0.001));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  for (const auto& [id, projector] : XmarkProjectors()) {
    ExpectReplayMatchesDom(*doc, XmarkDtd(), projector, id);
  }
}

// Thinning projectors over the shared random grammars: even names plus
// the root, odd names plus the root, and the root alone.
std::vector<NameSet> ThinningProjectors(const Dtd& dtd) {
  std::vector<NameSet> out;
  for (int keep : {0, 1, 2}) {
    NameSet thinned(dtd.name_count());
    if (keep < 2) {
      dtd.AllNames().ForEach([&](NameId n) {
        if (static_cast<int>(n % 2) == keep) thinned.Add(n);
      });
    }
    thinned.Add(dtd.root());
    out.push_back(std::move(thinned));
  }
  return out;
}

TEST(SkipOracleTest, RandomGrammars) {
  size_t skipping = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    DocGenerator gen(dtd, seed * 7919 + 3);
    auto doc = gen.Generate();
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const std::string xml = SerializeDocument(*doc);
    int variant = 0;
    for (const NameSet& projector : ThinningProjectors(dtd)) {
      const std::string label =
          "seed " + std::to_string(seed) + " projector " +
          std::to_string(variant++);
      if (ExpectSkipMatchesFull(xml, dtd, projector, label) > 0) ++skipping;
      ExpectReplayMatchesDom(*doc, dtd, projector, label);
    }
  }
  EXPECT_GT(skipping, 40u);
}

// --- Emptied elements -------------------------------------------------------

// The tags of the names in π none of whose DTD children (element names
// and the text name) is in π, worked out here from the rule itself.
std::set<std::string> EmptiedTags(const Dtd& dtd, const NameSet& pi) {
  std::set<std::string> tags;
  pi.ForEach([&](NameId name) {
    if (dtd.IsStringName(name) || name == dtd.document_name()) return;
    bool any_child_kept = false;
    dtd.ChildrenOf(name).ForEach(
        [&](NameId child) { any_child_kept |= pi.Contains(child); });
    const NameId text = dtd.StringNameOf(name);
    if (text != kNoName && pi.Contains(text)) any_child_kept = true;
    if (!any_child_kept) tags.insert(dtd.production(name).tag);
  });
  return tags;
}

// Sits between the parser and the pruner and counts, among the elements
// whose tag `tags` names, those that reached the pruner and those it
// answered with the skip verdict.
class EmptiedSpy : public SaxHandler {
 public:
  EmptiedSpy(std::set<std::string> tags, SaxHandler* downstream)
      : tags_(std::move(tags)), downstream_(downstream) {}

  void SetLocator(const SaxLocator* locator) override {
    downstream_->SetLocator(locator);
  }
  Status StartDocument() override { return downstream_->StartDocument(); }
  Status EndDocument() override { return downstream_->EndDocument(); }
  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override {
    const bool emptied = tags_.count(std::string(tag)) != 0;
    if (emptied) ++starts;
    Status verdict = downstream_->StartElement(tag, attributes);
    if (emptied && verdict.code() == StatusCode::kSkipSubtree) ++skips;
    return verdict;
  }
  Status EndElement(std::string_view tag) override {
    return downstream_->EndElement(tag);
  }
  Status Characters(std::string_view text) override {
    return downstream_->Characters(text);
  }
  Status Doctype(std::string_view name,
                 std::string_view internal_subset) override {
    return downstream_->Doctype(name, internal_subset);
  }

  size_t starts = 0;
  size_t skips = 0;

 private:
  std::set<std::string> tags_;
  SaxHandler* downstream_;
};

struct EmptiedReading {
  std::string output;
  PruneStats stats;
  size_t emptied_starts = 0;
  size_t emptied_skips = 0;
};

// One parse → prune → splice pass, with the spy in front of the pruner.
EmptiedReading EmptiedPass(std::string_view xml, const Dtd& dtd,
                           const NameSet& pi) {
  EmptiedReading reading;
  SplicingSerializingHandler sink(xml, &reading.output);
  StreamingPruner pruner(dtd, pi, &sink);
  EmptiedSpy spy(EmptiedTags(dtd, pi), &pruner);
  Status status = ParseXmlStream(xml, &spy);
  EXPECT_TRUE(status.ok()) << status.ToString();
  sink.Finish();
  reading.stats = pruner.stats();
  reading.emptied_starts = spy.starts;
  reading.emptied_skips = spy.skips;
  return reading;
}

// The pass's bytes are the DOM-level Def 2.7 pruning's, and the pruner
// answered every emptied element it met with the skip verdict. Returns
// how many emptied elements the document holds.
size_t ExpectEmptiedPrunesLikeDom(std::string_view xml, const Dtd& dtd,
                                  const NameSet& pi,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  auto doc = ParseXml(xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return 0;
  auto interp = Validate(*doc, dtd);
  EXPECT_TRUE(interp.ok()) << interp.status().ToString();
  if (!interp.ok()) return 0;
  PruneStats dom_stats;
  auto dom = PruneDocument(*doc, *interp, pi, &dom_stats);
  EXPECT_TRUE(dom.ok()) << dom.status().ToString();
  if (!dom.ok()) return 0;
  EmptiedReading pass = EmptiedPass(xml, dtd, pi);
  EXPECT_EQ(pass.output, SerializeDocument(*dom));
  EXPECT_EQ(pass.stats.kept_nodes, dom_stats.kept_nodes);
  EXPECT_EQ(pass.stats.kept_text_bytes, dom_stats.kept_text_bytes);
  EXPECT_EQ(pass.emptied_skips, pass.emptied_starts);
  return pass.emptied_starts;
}

NameSet XmarkProjector(const std::string& id) {
  for (auto& [name, projector] : XmarkProjectors()) {
    if (name == id) return projector;
  }
  ADD_FAILURE() << "no projector " << id;
  return NameSet(XmarkDtd().name_count());
}

TEST(SkipEmptiedTest, XMarkProjectorsPruneLikeTheDom) {
  struct Case {
    const char* id;
    std::set<std::string> emptied;
  };
  const Case cases[] = {
      {"QM06", {"item"}},
      // <annotation> holds a <description>, which QM07 keeps.
      {"QM07", {"description", "emailaddress"}},
      {"dashboard/bids", {"bidder"}},
  };
  for (double scale : {0.001, 0.01}) {
    const std::string xml = XmarkDoc(scale);
    for (const Case& c : cases) {
      const NameSet pi = XmarkProjector(c.id);
      EXPECT_EQ(EmptiedTags(XmarkDtd(), pi), c.emptied) << c.id;
      EXPECT_GT(ExpectEmptiedPrunesLikeDom(
                    xml, XmarkDtd(), pi,
                    std::string(c.id) + " scale " + std::to_string(scale)),
                0u);
    }
  }
}

// QM06 keeps every <item> and none of its children, so the parser skips
// the items' content as well as the subtrees QM06 rejects: at least 99%
// of the input. QM07's text lies only inside the elements it empties, so
// the pass tokenizes none.
TEST(SkipEmptiedTest, XMarkStatsCountTheSkippedContent) {
  const std::string xml = XmarkDoc(0.01);
  EmptiedReading qm06 = EmptiedPass(xml, XmarkDtd(), XmarkProjector("QM06"));
  EXPECT_GE(qm06.stats.skipped_bytes * 100, xml.size() * 99)
      << qm06.stats.skipped_bytes << " of " << xml.size();
  EmptiedReading qm07 = EmptiedPass(xml, XmarkDtd(), XmarkProjector("QM07"));
  EXPECT_GT(qm07.stats.kept_nodes, 0u);
  EXPECT_EQ(qm07.stats.input_text_bytes, 0u);
}

// The root-only thinning projector keeps the root and empties it unless
// the grammar lets the root contain itself.
TEST(SkipEmptiedTest, RandomGrammarsEmptyTheirRoot) {
  size_t emptied_roots = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    DocGenerator gen(dtd, seed * 7919 + 3);
    auto doc = gen.Generate();
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const NameSet root_only = ThinningProjectors(dtd)[2];
    const std::string label = "seed " + std::to_string(seed);
    const size_t emptied = ExpectEmptiedPrunesLikeDom(
        SerializeDocument(*doc), dtd, root_only, label);
    if (EmptiedTags(dtd, root_only).count(
            dtd.production(dtd.root()).tag) != 0) {
      EXPECT_EQ(emptied, 1u) << label;
      ++emptied_roots;
    }
  }
  EXPECT_GT(emptied_roots, 20u);
}

// What an emptied element does to an invalid document: <b> is not
// allowed in <host>, so π = {r, host, b} empties <host>, and the <b>
// inside it goes with the rest of <host>'s content. A pass that
// tokenized <host>'s content would keep it, since <b> is in π.
TEST(SkipEmptiedTest, InvalidChildInsideAnEmptiedHostIsDropped) {
  auto parsed = ParseDtd(R"(
    <!ELEMENT r (host, b)>
    <!ELEMENT host (a)*>
    <!ELEMENT a EMPTY>
    <!ELEMENT b EMPTY>
  )",
                         "r");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Dtd& dtd = *parsed;
  NameSet pi(dtd.name_count());
  for (const char* tag : {"r", "host", "b"}) pi.Add(dtd.NameOfTag(tag));
  const std::string xml = "<r><host><b/></host><b/></r>";
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(Validate(*doc, dtd).ok());
  EmptiedReading pass = EmptiedPass(xml, dtd, pi);
  EXPECT_EQ(pass.output, "<r><host/><b/></r>");
  // <host> and the outer <b/>: a kept EMPTY element is emptied too.
  EXPECT_EQ(pass.emptied_starts, 2u);
  EXPECT_EQ(pass.emptied_skips, 2u);
}

// --- Hostile input inside skipped elements --------------------------------

// <drop> is rejected, so everything inside it is skipped; the tags there
// are undeclared, which a skip never looks at either.
const Dtd& GalleryDtd() {
  static const Dtd* dtd = new Dtd(std::move(ParseDtd(R"(
    <!ELEMENT r (keep, drop, keep)>
    <!ELEMENT keep (#PCDATA)>
    <!ELEMENT drop (#PCDATA)>
  )",
                                                     "r"))
                                        .value());
  return *dtd;
}

NameSet GalleryProjector() {
  const Dtd& dtd = GalleryDtd();
  NameSet pi(dtd.name_count());
  pi.Add(dtd.root());
  pi.Add(dtd.NameOfTag("keep"));
  pi.Add(dtd.StringNameOf(dtd.NameOfTag("keep")));
  return pi;
}

// Keeps <drop> but not its text: <drop> is emptied, so its content is
// skipped although <drop> itself is kept.
NameSet EmptiedHostProjector() {
  NameSet pi = GalleryProjector();
  pi.Add(GalleryDtd().NameOfTag("drop"));
  return pi;
}

std::string GalleryDoc(std::string_view drop_content) {
  return "<r><keep>one</keep><drop>" + std::string(drop_content) +
         "</drop><keep>two</keep></r>";
}

Result<std::string> SkipPrune(std::string_view xml,
                              const NameSet& pi = GalleryProjector()) {
  std::string out;
  SplicingSerializingHandler sink(xml, &out);
  StreamingPruner pruner(GalleryDtd(), pi, &sink);
  XMLPROJ_RETURN_IF_ERROR(ParseXmlStream(xml, &pruner));
  sink.Finish();
  return out;
}

struct GalleryCase {
  const char* name;
  const char* hostile;   // content of <drop>
  const char* repaired;  // the same content, well-formed
};

// gtest_discover_tests puts the printed parameter into the ctest name. The
// default printer dumps the struct's pointer bytes, which change from run
// to run under ASLR; print the case name so the test IDs stay stable.
void PrintTo(const GalleryCase& c, std::ostream* os) { *os << c.name; }

class SkipAcceptsTest : public ::testing::TestWithParam<GalleryCase> {};

// The skip does not look at these defects: the document prunes to the
// repaired document's bytes, although a full parse rejects it.
TEST_P(SkipAcceptsTest, PrunesLikeTheRepairedDocument) {
  const std::string hostile = GalleryDoc(GetParam().hostile);
  const std::string repaired = GalleryDoc(GetParam().repaired);
  auto full = ParseXml(hostile);
  ASSERT_FALSE(full.ok()) << "the gallery case must be malformed";
  EXPECT_EQ(full.status().code(), StatusCode::kParseError);
  auto expected = SkipPrune(repaired);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto pruned = SkipPrune(hostile);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(*pruned, *expected);
  EXPECT_EQ(*pruned, "<r><keep>one</keep><keep>two</keep></r>");
}

// The same defects inside an emptied element go unseen too.
TEST_P(SkipAcceptsTest, EmptiedHostPrunesLikeTheRepairedDocument) {
  const NameSet pi = EmptiedHostProjector();
  auto expected = SkipPrune(GalleryDoc(GetParam().repaired), pi);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto pruned = SkipPrune(GalleryDoc(GetParam().hostile), pi);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(*pruned, *expected);
  EXPECT_EQ(*pruned, "<r><keep>one</keep><drop/><keep>two</keep></r>");
}

INSTANTIATE_TEST_SUITE_P(
    Gallery, SkipAcceptsTest,
    ::testing::Values(
        GalleryCase{"BadAttributeSyntax", "<y a=1 b/>", "<y a=\"1\"/>"},
        GalleryCase{"LtInQuotedValue", "<y a=\"<\">t</y>",
                    "<y a=\"&lt;\">t</y>"},
        GalleryCase{"UnknownEntity", "a&nbsp;b", "a&amp;nbsp;b"},
        GalleryCase{"IllegalCharRef", "<y>&#xD800;</y>", "<y>x</y>"}),
    [](const ::testing::TestParamInfo<GalleryCase>& info) {
      return info.param.name;
    });

struct RejectCase {
  const char* name;
  const char* document;
};

void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.name; }

class SkipRejectsTest : public ::testing::TestWithParam<RejectCase> {};

// What a skip still checks: nesting, end-tag names, termination. Each
// case fails with kParseError with and without skipping.
TEST_P(SkipRejectsTest, FailsWithParseError) {
  const std::string xml = GetParam().document;
  auto full = ParseXml(xml);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kParseError);
  auto pruned = SkipPrune(xml);
  ASSERT_FALSE(pruned.ok()) << *pruned;
  EXPECT_EQ(pruned.status().code(), StatusCode::kParseError)
      << pruned.status().ToString();
}

TEST_P(SkipRejectsTest, EmptiedHostFailsWithParseError) {
  auto pruned = SkipPrune(GetParam().document, EmptiedHostProjector());
  ASSERT_FALSE(pruned.ok()) << *pruned;
  EXPECT_EQ(pruned.status().code(), StatusCode::kParseError)
      << pruned.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Gallery, SkipRejectsTest,
    ::testing::Values(
        RejectCase{"MismatchedEndTagTwoLevelsDown",
                   "<r><keep>one</keep><drop><y><z>t</y></z></drop>"
                   "<keep>two</keep></r>"},
        RejectCase{"EndTagNamePrefix",
                   "<r><keep>one</keep><drop><yy>t</y></drop>"
                   "<keep>two</keep></r>"},
        RejectCase{"EndTagNameLonger",
                   "<r><keep>one</keep><drop><y>t</yy></drop>"
                   "<keep>two</keep></r>"},
        RejectCase{"EndOfInput", "<r><keep>one</keep><drop><y>text"},
        RejectCase{"UnterminatedComment",
                   "<r><keep>one</keep><drop><!-- c </drop><keep>two</keep>"
                   "</r>"},
        RejectCase{"UnterminatedCdata",
                   "<r><keep>one</keep><drop><![CDATA[ c </drop>"
                   "<keep>two</keep></r>"},
        RejectCase{"UnterminatedPi",
                   "<r><keep>one</keep><drop><?pi c </drop><keep>two</keep>"
                   "</r>"},
        RejectCase{"UnterminatedQuotedValue",
                   "<r><keep>one</keep><drop><y a=\"v></y></drop>"
                   "<keep>two</keep></r>"},
        RejectCase{"UnterminatedStartTag",
                   "<r><keep>one</keep><drop><y a=\"v\""},
        RejectCase{"BangWithoutName",
                   "<r><keep>one</keep><drop><!X></drop><keep>two</keep>"
                   "</r>"}),
    [](const ::testing::TestParamInfo<RejectCase>& info) {
      return info.param.name;
    });

// --- The verdict contract -------------------------------------------------

// Records events; returns the skip verdict for one tag.
class Recorder : public SaxHandler {
 public:
  explicit Recorder(std::string skip_tag) : skip_tag_(std::move(skip_tag)) {}

  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>&) override {
    events += "<";
    events += tag;
    events += ">";
    if (tag == skip_tag_) return SkipSubtree();
    return Status::Ok();
  }
  Status EndElement(std::string_view tag) override {
    events += "</" + std::string(tag) + ">";
    return Status::Ok();
  }
  Status Characters(std::string_view text) override {
    events += std::string(text);
    return Status::Ok();
  }

  std::string events;

 private:
  std::string skip_tag_;
};

TEST(SkipVerdictTest, SkippedRootGivesEmptyOutput) {
  const std::string xml = GalleryDoc("<y>t</y>");
  std::string out;
  SplicingSerializingHandler sink(xml, &out);
  NameSet none(GalleryDtd().name_count());
  StreamingPruner pruner(GalleryDtd(), none, &sink);
  size_t peak = 0;
  Status status = ParseXmlStream(xml, &pruner, {}, &peak);
  sink.Finish();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, "");
  EXPECT_EQ(pruner.stats().kept_nodes, 0u);
  EXPECT_EQ(pruner.stats().input_nodes, 5u);  // r, keep, drop, y, keep
  EXPECT_EQ(pruner.stats().skipped_bytes, xml.size() - 3);  // all but <r>
  // The skipped elements are charged as if parsed: r, drop, y open.
  EXPECT_EQ(peak, 3 * kOpenElementBytes + 1 + 4 + 1);
}

TEST(SkipVerdictTest, SkippedSelfClosingElementGetsNoEndElement) {
  Recorder recorder("a");
  Status status = ParseXmlStream("<r><a/><b/>t</r>", &recorder);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(recorder.events, "<r><a><b></b>t</r>");
}

TEST(SkipVerdictTest, SkippedElementContentIsInvisible) {
  Recorder recorder("a");
  Status status =
      ParseXmlStream("<r>x<a>y<b>z</b><a>w</a></a>v</r>", &recorder);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(recorder.events, "<r>x<a>v</r>");
}

TEST(SkipVerdictTest, ProducersNeverReturnTheVerdict) {
  for (const char* xml : {"<a/>", "<a><b/></a>", "<r><a>t</a></r>"}) {
    Recorder recorder("a");
    Status status = ParseXmlStream(xml, &recorder);
    EXPECT_TRUE(status.ok()) << xml << ": " << status.ToString();
    auto doc = ParseXml(xml);
    ASSERT_TRUE(doc.ok());
    Recorder replayed("a");
    status = ReplayAsSax(*doc, &replayed);
    EXPECT_TRUE(status.ok()) << xml << ": " << status.ToString();
    EXPECT_EQ(replayed.events, recorder.events) << xml;
  }
}

// An armed failpoint that sleeps inside a skip: the budget guard's Poll
// sees the deadline pass although the skip delivers no events.
TEST(SkipVerdictTest, DeadlineFiresInsideSkip) {
  std::string drop;
  for (int i = 0; i < 40; ++i) drop += "<y>t</y>";
  const std::string xml = GalleryDoc(drop);
  FaultInjector fault;
  FaultSpec slow;
  slow.code = StatusCode::kOk;
  slow.delay_ms = 5;
  fault.Arm("xml.parse", slow);
  PipelineOptions options;
  options.num_threads = 1;
  options.fault = &fault;
  options.budget.deadline_ms = 50;
  NameSet pi = GalleryProjector();
  auto run = PruneDocument(xml, GalleryDtd(), pi, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status().ToString();
  // The skip stopped at the deadline, well before the 40th start tag.
  EXPECT_LT(fault.HitCount("xml.parse"), 30u);
}

TEST(SkipVerdictTest, PipelinePublishesSkippedBytes) {
  const std::string xml = GalleryDoc("text");
  NameSet pi = GalleryProjector();
  for (bool validate : {false, true}) {
    SCOPED_TRACE(validate ? "validate" : "prune");
    MetricsRegistry registry;
    PipelineOptions options;
    options.metrics = &registry;
    options.validate = validate;
    auto run = PruneDocument(xml, GalleryDtd(), pi, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->results[0].output,
              "<r><keep>one</keep><keep>two</keep></r>");
    // Validation must see its input, so it never skips.
    const size_t skipped =
        validate ? 0 : std::string("text</drop>").size();
    EXPECT_EQ(run->results[0].stats.skipped_bytes, skipped);
    EXPECT_EQ(
        registry.GetCounter("xmlproj_pipeline_skipped_bytes_total")->Value(),
        skipped);
  }
}

}  // namespace
}  // namespace xmlproj
