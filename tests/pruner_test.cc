#include "projection/pruner.h"

#include <gtest/gtest.h>

#include "dtd/dtd_parser.h"
#include "projection/projection.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlproj {
namespace {

constexpr char kBookDtd[] = R"(
  <!ELEMENT library (book*)>
  <!ELEMENT book (title, author+, year?)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT year (#PCDATA)>
  <!ATTLIST book isbn CDATA #IMPLIED>
)";

constexpr char kLibraryXml[] =
    R"(<library><book isbn="1"><title>Inferno</title><author>Dante</author>)"
    R"(<year>1313</year></book><book isbn="2"><title>Decameron</title>)"
    R"(<author>Boccaccio</author></book></library>)";

struct Fixture {
  Dtd dtd;
  Document doc;
  Interpretation interp;
};

Fixture Load() {
  Fixture f{std::move(ParseDtd(kBookDtd, "library")).value(),
            std::move(ParseXml(kLibraryXml)).value(),
            {}};
  f.interp = std::move(Validate(f.doc, f.dtd)).value();
  return f;
}

NameSet ProjectorFor(const Dtd& dtd, std::string_view query) {
  auto analysis = AnalyzeXPathQuery(dtd, query);
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  return analysis->projector;
}

TEST(PruneDocument, DropsUnprojectedSubtrees) {
  Fixture f = Load();
  NameSet pi = ProjectorFor(f.dtd, "/library/book/author");
  PruneStats stats;
  auto pruned = PruneDocument(f.doc, f.interp, pi, &stats);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(
      R"(<library><book isbn="1"><author>Dante</author></book>)"
      R"(<book isbn="2"><author>Boccaccio</author></book></library>)",
      SerializeDocument(*pruned));
  EXPECT_LT(stats.kept_nodes, stats.input_nodes);
  EXPECT_EQ(f.doc.content_node_count(), stats.input_nodes);
  EXPECT_EQ(pruned->content_node_count(), stats.kept_nodes);
}

TEST(PruneDocument, ProjectionIsSmaller) {
  Fixture f = Load();
  NameSet pi = ProjectorFor(f.dtd, "/library/book/year");
  auto pruned = PruneDocument(f.doc, f.interp, pi);
  ASSERT_TRUE(pruned.ok());
  EXPECT_LT(pruned->MemoryBytes(), f.doc.MemoryBytes());
  EXPECT_EQ(R"(<library><book isbn="1"><year>1313</year></book>)"
            R"(<book isbn="2"/></library>)",
            SerializeDocument(*pruned));
}

TEST(PruneDocument, NewToOldMapping) {
  Fixture f = Load();
  NameSet pi = ProjectorFor(f.dtd, "/library/book/author");
  std::vector<NodeId> new_to_old;
  auto pruned = PruneDocument(f.doc, f.interp, pi, nullptr, &new_to_old);
  ASSERT_TRUE(pruned.ok());
  ASSERT_EQ(pruned->size(), new_to_old.size());
  for (NodeId id = 1; id < pruned->size(); ++id) {
    NodeId old_id = new_to_old[id];
    EXPECT_EQ(pruned->kind(id), f.doc.kind(old_id));
    if (pruned->kind(id) == NodeKind::kElement) {
      EXPECT_EQ(pruned->tag_name(id), f.doc.tag_name(old_id));
    } else if (pruned->kind(id) == NodeKind::kText) {
      EXPECT_EQ(pruned->text(id), f.doc.text(old_id));
    }
  }
}

TEST(StreamingPruner, MatchesDomPruner) {
  Fixture f = Load();
  for (const char* query :
       {"/library/book/author", "/library/book[year]/title",
        "//year", "/library/book/@isbn", "//author/text()"}) {
    NameSet pi = ProjectorFor(f.dtd, query);
    auto dom_pruned = PruneDocument(f.doc, f.interp, pi);
    ASSERT_TRUE(dom_pruned.ok()) << query;
    PruneStats stream_stats;
    auto stream_pruned =
        PruneViaStreaming(f.doc, f.dtd, pi, &stream_stats);
    ASSERT_TRUE(stream_pruned.ok()) << query;
    EXPECT_EQ(SerializeDocument(*dom_pruned),
              SerializeDocument(*stream_pruned))
        << query;
    EXPECT_EQ(stream_pruned->content_node_count(),
              stream_stats.kept_nodes);
  }
}

TEST(StreamingPruner, PruneWhileParsing) {
  Fixture f = Load();
  NameSet pi = ProjectorFor(f.dtd, "/library/book/title");
  PruneStats stats;
  auto pruned = ParseAndPrune(kLibraryXml, f.dtd, pi, &stats);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(
      R"(<library><book isbn="1"><title>Inferno</title></book>)"
      R"(<book isbn="2"><title>Decameron</title></book></library>)",
      SerializeDocument(*pruned));
  // The rejected subtrees were crossed untokenized, so their text is in
  // skipped_bytes, not input_text_bytes.
  EXPECT_GT(stats.skipped_bytes, 0u);
}

TEST(StreamingPruner, UndeclaredElementFails) {
  Fixture f = Load();
  NameSet pi = f.dtd.AllNames();
  auto result = ParseAndPrune("<library><ghost/></library>", f.dtd, pi);
  EXPECT_FALSE(result.ok());
}

TEST(StreamingPruner, FullProjectorIsIdentity) {
  Fixture f = Load();
  NameSet all = f.dtd.AllNames();
  auto pruned = PruneViaStreaming(f.doc, f.dtd, all);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(SerializeDocument(f.doc), SerializeDocument(*pruned));
}

TEST(StreamingPruner, SkipsNestedPrunedSubtrees) {
  Dtd dtd = std::move(ParseDtd(R"(
    <!ELEMENT r (keep, drop)>
    <!ELEMENT keep (#PCDATA)>
    <!ELEMENT drop (keep*)>
  )",
                               "r"))
                .value();
  // Projector without 'drop': the keep-elements *inside* drop must not
  // resurface (the skip counter must cover nested kept-name elements).
  NameSet pi(dtd.name_count());
  pi.Add(dtd.root());
  pi.Add(dtd.NameOfTag("keep"));
  pi.Add(dtd.StringNameOf(dtd.NameOfTag("keep")));
  auto pruned = ParseAndPrune(
      "<r><keep>a</keep><drop><keep>b</keep><keep>c</keep></drop></r>", dtd,
      pi);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ("<r><keep>a</keep></r>", SerializeDocument(*pruned));
}

TEST(Lemma28, ProjectionIsSmallerOrEqual) {
  // Lemma 2.8: t\π ≤ t — the projection never adds nodes and every kept
  // node existed in t (checked via the id mapping's monotonicity).
  Fixture f = Load();
  for (const char* query : {"//author", "//book", "/library"}) {
    NameSet pi = ProjectorFor(f.dtd, query);
    std::vector<NodeId> new_to_old;
    auto pruned = PruneDocument(f.doc, f.interp, pi, nullptr, &new_to_old);
    ASSERT_TRUE(pruned.ok());
    EXPECT_LE(pruned->size(), f.doc.size());
    for (size_t i = 2; i < new_to_old.size(); ++i) {
      EXPECT_LT(new_to_old[i - 1], new_to_old[i]);  // order preserved
    }
  }
}

}  // namespace
}  // namespace xmlproj
