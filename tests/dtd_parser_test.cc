#include "dtd/dtd_parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/nesting.h"

namespace xmlproj {
namespace {

Dtd MustParse(std::string_view text, std::string_view root) {
  auto result = ParseDtd(text, root);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(DtdParser, SimpleGrammar) {
  Dtd dtd = MustParse(R"(
    <!ELEMENT book (title, author+, year?)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT author (#PCDATA)>
    <!ELEMENT year (#PCDATA)>
  )",
                      "book");
  // 4 elements + 3 per-element String names + the synthetic #document.
  EXPECT_EQ(8u, dtd.name_count());
  NameId book = dtd.NameOfTag("book");
  ASSERT_NE(kNoName, book);
  EXPECT_EQ(book, dtd.root());
  NameId title = dtd.NameOfTag("title");
  EXPECT_TRUE(dtd.ChildrenOf(book).Contains(title));
  EXPECT_NE(kNoName, dtd.StringNameOf(title));
  EXPECT_EQ(kNoName, dtd.StringNameOf(book));
}

TEST(DtdParser, StringNamesAreDistinctPerElement) {
  // The §6 heuristic: every Y -> String occurs on exactly one RHS.
  Dtd dtd = MustParse(R"(
    <!ELEMENT a (b, c)>
    <!ELEMENT b (#PCDATA)>
    <!ELEMENT c (#PCDATA)>
  )",
                      "a");
  NameId b_text = dtd.StringNameOf(dtd.NameOfTag("b"));
  NameId c_text = dtd.StringNameOf(dtd.NameOfTag("c"));
  ASSERT_NE(kNoName, b_text);
  ASSERT_NE(kNoName, c_text);
  EXPECT_NE(b_text, c_text);
  EXPECT_TRUE(dtd.IsStringName(b_text));
  EXPECT_EQ("b#text", dtd.production(b_text).name);
}

TEST(DtdParser, MixedContent) {
  Dtd dtd = MustParse(R"(
    <!ELEMENT p (#PCDATA | bold | emph)*>
    <!ELEMENT bold (#PCDATA)>
    <!ELEMENT emph (#PCDATA)>
  )",
                      "p");
  NameId p = dtd.NameOfTag("p");
  EXPECT_TRUE(dtd.ChildrenOf(p).Contains(dtd.NameOfTag("bold")));
  EXPECT_TRUE(dtd.ChildrenOf(p).Contains(dtd.StringNameOf(p)));
}

TEST(DtdParser, MixedContentRequiresStarWithNames) {
  auto result = ParseDtd("<!ELEMENT p (#PCDATA | b)>\n<!ELEMENT b EMPTY>",
                         "p");
  EXPECT_FALSE(result.ok());
}

TEST(DtdParser, EmptyAndAny) {
  Dtd dtd = MustParse(R"(
    <!ELEMENT a (b, c)>
    <!ELEMENT b EMPTY>
    <!ELEMENT c ANY>
  )",
                      "a");
  NameId b = dtd.NameOfTag("b");
  NameId c = dtd.NameOfTag("c");
  EXPECT_TRUE(dtd.ChildrenOf(b).Empty());
  // ANY reaches every element name.
  EXPECT_TRUE(dtd.ChildrenOf(c).Contains(dtd.NameOfTag("a")));
  EXPECT_TRUE(dtd.ChildrenOf(c).Contains(b));
}

TEST(DtdParser, Attlist) {
  Dtd dtd = MustParse(R"(
    <!ELEMENT item (name)>
    <!ELEMENT name (#PCDATA)>
    <!ATTLIST item
              id ID #REQUIRED
              featured CDATA #IMPLIED
              kind (big|small) "small">
  )",
                      "item");
  const Production& item = dtd.production(dtd.NameOfTag("item"));
  ASSERT_EQ(3u, item.attributes.size());
  EXPECT_EQ("id", item.attributes[0].name);
  EXPECT_TRUE(item.attributes[0].required);
  EXPECT_FALSE(item.attributes[1].required);
  EXPECT_EQ("kind", item.attributes[2].name);
}

TEST(DtdParser, SkipsCommentsEntitiesNotations) {
  Dtd dtd = MustParse(R"(
    <!-- a comment with <!ELEMENT fake (x)> inside -->
    <!ENTITY amp2 "&#38;">
    <!NOTATION vrml PUBLIC "VRML 1.0">
    <!ELEMENT a EMPTY>
  )",
                      "a");
  EXPECT_EQ(2u, dtd.name_count());  // 'a' + #document
}

TEST(DtdParser, ForwardReferences) {
  // b is referenced before it is declared.
  Dtd dtd = MustParse("<!ELEMENT a (b)>\n<!ELEMENT b EMPTY>", "a");
  EXPECT_TRUE(dtd.ChildrenOf(dtd.root()).Contains(dtd.NameOfTag("b")));
}

TEST(DtdParser, UndeclaredReferenceFails) {
  auto result = ParseDtd("<!ELEMENT a (ghost)>", "a");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("ghost"), std::string::npos);
}

TEST(DtdParser, DuplicateElementFails) {
  auto result = ParseDtd("<!ELEMENT a EMPTY>\n<!ELEMENT a EMPTY>", "a");
  EXPECT_FALSE(result.ok());
}

TEST(DtdParser, UnknownRootFails) {
  auto result = ParseDtd("<!ELEMENT a EMPTY>", "zzz");
  EXPECT_FALSE(result.ok());
}

TEST(DtdParser, NestedGroupsWithOccurrences) {
  Dtd dtd = MustParse(R"(
    <!ELEMENT a ((b, c)+ | d*)>
    <!ELEMENT b EMPTY>
    <!ELEMENT c EMPTY>
    <!ELEMENT d EMPTY>
  )",
                      "a");
  const ContentMatcher& m = dtd.MatcherOf(dtd.root());
  NameId b = dtd.NameOfTag("b");
  NameId c = dtd.NameOfTag("c");
  NameId d = dtd.NameOfTag("d");
  EXPECT_TRUE(m.Matches(std::vector<NameId>{b, c, b, c}));
  EXPECT_TRUE(m.Matches(std::vector<NameId>{d, d}));
  EXPECT_TRUE(m.Matches(std::vector<NameId>{}));  // d* allows empty
  EXPECT_FALSE(m.Matches(std::vector<NameId>{b}));
  EXPECT_FALSE(m.Matches(std::vector<NameId>{b, c, d}));
}

TEST(DtdParser, ReachabilityRelations) {
  Dtd dtd = MustParse(R"(
    <!ELEMENT a (b)>
    <!ELEMENT b (c*)>
    <!ELEMENT c (#PCDATA)>
    <!ELEMENT orphan EMPTY>
  )",
                      "a");
  NameId a = dtd.NameOfTag("a");
  NameId b = dtd.NameOfTag("b");
  NameId c = dtd.NameOfTag("c");
  NameId orphan = dtd.NameOfTag("orphan");
  EXPECT_TRUE(dtd.DescendantsOf(a).Contains(c));
  EXPECT_TRUE(dtd.DescendantsOf(a).Contains(dtd.StringNameOf(c)));
  EXPECT_FALSE(dtd.DescendantsOf(a).Contains(orphan));
  EXPECT_TRUE(dtd.AncestorsOf(c).Contains(a));
  EXPECT_TRUE(dtd.ParentsOf(c).Contains(b));
  EXPECT_FALSE(dtd.ParentsOf(c).Contains(a));
  EXPECT_TRUE(dtd.ReachableFromRoot().Contains(c));
  EXPECT_FALSE(dtd.ReachableFromRoot().Contains(orphan));
}

TEST(DtdParser, StructuralProperties) {
  // Recursive DTD.
  Dtd rec = MustParse("<!ELEMENT a (a*)>", "a");
  EXPECT_TRUE(rec.IsRecursive());
  EXPECT_TRUE(rec.IsStarGuarded());

  // The paper's non-*-guarded example: X -> c[Y | Z].
  Dtd guarded = MustParse(R"(
    <!ELEMENT c (a | b)>
    <!ELEMENT a (a*)>
    <!ELEMENT b (#PCDATA)>
  )",
                          "c");
  EXPECT_FALSE(guarded.IsStarGuarded());
  EXPECT_TRUE(guarded.IsRecursive());

  // Parent-ambiguous: Z is a child of X and a grandchild via Y
  // (the §4.1 example {X -> a[Y,Z], Y -> b[Z], Z -> c[]}).
  Dtd amb = MustParse(R"(
    <!ELEMENT a (b, c)>
    <!ELEMENT b (c)>
    <!ELEMENT c EMPTY>
  )",
                      "a");
  EXPECT_FALSE(amb.IsParentUnambiguous());
  EXPECT_FALSE(amb.IsRecursive());

  Dtd unamb = MustParse(R"(
    <!ELEMENT a (b)>
    <!ELEMENT b (c)>
    <!ELEMENT c EMPTY>
  )",
                        "a");
  EXPECT_TRUE(unamb.IsParentUnambiguous());
}

// `depth` nested groups around one name: <!ELEMENT a ((((b))))>.
std::string NestedGroups(int depth) {
  return "<!ELEMENT a " + std::string(static_cast<size_t>(depth), '(') +
         "b" + std::string(static_cast<size_t>(depth), ')') +
         ">\n<!ELEMENT b EMPTY>";
}

TEST(DtdParser, NestingPastTheLimitIsAnError) {
  // Each group costs the parser stack frames: unbounded, 100,000 of them
  // overflow its stack.
  auto deep = ParseDtd(NestedGroups(100000), "a");
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(StatusCode::kParseError, deep.status().code());
  EXPECT_NE(deep.status().message().find("nests deeper than 256 groups"),
            std::string::npos)
      << deep.status().ToString();

  Dtd dtd = MustParse(NestedGroups(kMaxParseDepth), "a");
  EXPECT_TRUE(dtd.MatcherOf(dtd.root()).Matches(
      std::vector<NameId>{dtd.NameOfTag("b")}));
}

// ((a|b)*, a, (a|b), ..., (a|b)) with k trailing (a|b): "the (k+1)-th
// child from the end is an a". Its deterministic automaton must remember
// the last k+1 children, so it has 2^(k+1) states.
std::string SubsetBlowUp(int k) {
  std::string text = "<!ELEMENT r ((a|b)*, a";
  for (int i = 0; i < k; ++i) text += ", (a|b)";
  return text + ")>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>";
}

TEST(DtdParser, AutomatonBudgetRejectsBlowUps) {
  Dtd small = MustParse(SubsetBlowUp(3), "r");
  NameId a = small.NameOfTag("a");
  NameId b = small.NameOfTag("b");
  const ContentMatcher& m = small.MatcherOf(small.root());
  EXPECT_TRUE(m.Matches(std::vector<NameId>{a, b, b, b}));
  EXPECT_TRUE(m.Matches(std::vector<NameId>{b, b, a, a, a, b}));
  EXPECT_FALSE(m.Matches(std::vector<NameId>{b, b, b, b}));
  EXPECT_FALSE(m.Matches(std::vector<NameId>{a, a, a}));

  // (b|b|...|b)* makes every position follow every other: 4,000
  // alternatives would take 16M entries.
  std::string wide = "<!ELEMENT a (b";
  for (int i = 1; i < 4000; ++i) wide += "|b";
  wide += ")*>\n<!ELEMENT b EMPTY>";

  for (const auto& [text, root] :
       {std::pair<std::string, const char*>{SubsetBlowUp(20), "r"},
        std::pair<std::string, const char*>{wide, "a"}}) {
    auto result = ParseDtd(text, root);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(StatusCode::kInvalid, result.status().code());
    EXPECT_NE(result.status().message().find(
                  "content model of element '" + std::string(root) + "'"),
              std::string::npos)
        << result.status().ToString();
  }
}

// Only a non-deterministic model makes merged states, and a DTD's
// automata may make at most kMaxDtdMergedStates of them, so a subset
// blow-up is refused after ~2^12 states instead of at the entry budget:
// k = 11 (2^12 DFA states) loads, k = 12 and k = 16 do not.
TEST(DtdParser, MergedStateBudgetRejectsSubsetBlowUpsEarly) {
  Dtd loaded = MustParse(SubsetBlowUp(11), "r");
  NameId a = loaded.NameOfTag("a");
  NameId b = loaded.NameOfTag("b");
  std::vector<NameId> children(12, b);
  children[0] = a;
  EXPECT_TRUE(loaded.MatcherOf(loaded.root()).Matches(children));
  children[0] = b;
  EXPECT_FALSE(loaded.MatcherOf(loaded.root()).Matches(children));
  for (int k : {12, 16}) {
    auto result = ParseDtd(SubsetBlowUp(k), "r");
    ASSERT_FALSE(result.ok()) << "k = " << k;
    EXPECT_EQ(StatusCode::kInvalid, result.status().code());
    EXPECT_NE(result.status().message().find("merged states"),
              std::string::npos)
        << result.status().ToString();
  }
}

// The axis relations are dense n-by-n bitsets, so the name count is
// bounded: 4,095 EMPTY elements and the document name load, one more
// element does not.
TEST(DtdParser, NamesPastTheLimitAreAnError) {
  std::string text;
  for (size_t i = 0; i + 1 < kMaxDtdNames; ++i) {
    text += "<!ELEMENT e" + std::to_string(i) + " EMPTY>\n";
  }
  EXPECT_EQ(kMaxDtdNames, MustParse(text, "e0").name_count());
  auto result = ParseDtd(text + "<!ELEMENT past EMPTY>", "e0");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kInvalid, result.status().code());
  EXPECT_NE(result.status().message().find("grammar names"),
            std::string::npos)
      << result.status().ToString();
}

// The budget bounds entries, not states: a long deterministic model
// costs one entry per name and loads.
TEST(DtdParser, LongDeterministicModelLoads) {
  const int length = 200000;
  std::string text = "<!ELEMENT a (b";
  for (int i = 1; i < length; ++i) text += ",b";
  Dtd dtd = MustParse(text + ")>\n<!ELEMENT b EMPTY>", "a");
  std::vector<NameId> children(length, dtd.NameOfTag("b"));
  const ContentMatcher& m = dtd.MatcherOf(dtd.root());
  EXPECT_TRUE(m.Matches(children));
  children.pop_back();
  EXPECT_FALSE(m.Matches(children));
}

TEST(DtdParser, ParameterEntitiesRejected) {
  auto result = ParseDtd("%ent;\n<!ELEMENT a EMPTY>", "a");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace xmlproj
