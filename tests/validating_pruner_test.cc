#include <gtest/gtest.h>

#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "projection/projection.h"
#include "projection/pruner.h"
#include "random_xml.h"
#include "xmark/generator.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlproj {
namespace {

using testing_random::DocGenerator;
using testing_random::RandomDtd;

constexpr char kBookDtd[] = R"(
  <!ELEMENT library (book*)>
  <!ELEMENT book (title, author+, year?)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT year (#PCDATA)>
  <!ATTLIST book isbn CDATA #REQUIRED>
)";

constexpr char kValidXml[] =
    R"(<library><book isbn="1"><title>T</title><author>A</author>)"
    R"(<year>1313</year></book></library>)";

Dtd BookDtd() { return std::move(ParseDtd(kBookDtd, "library")).value(); }

TEST(ValidatingPruner, AcceptsValidAndPrunes) {
  Dtd dtd = BookDtd();
  auto analysis = AnalyzeXPathQuery(dtd, "/library/book/author");
  ASSERT_TRUE(analysis.ok());
  PruneStats stats;
  auto pruned =
      ParseValidateAndPrune(kValidXml, dtd, analysis->projector, &stats);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(
      R"(<library><book isbn="1"><author>A</author></book></library>)",
      SerializeDocument(*pruned));
  EXPECT_LT(stats.kept_nodes, stats.input_nodes);
}

struct InvalidCase {
  const char* name;
  const char* xml;
  const char* message_fragment;
};

// gtest_discover_tests puts the printed parameter into the ctest name. The
// default printer dumps the struct's pointer bytes, which change from run
// to run under ASLR; print the case name so the test IDs stay stable.
void PrintTo(const InvalidCase& c, std::ostream* os) { *os << c.name; }

class ValidatingPrunerRejects
    : public ::testing::TestWithParam<InvalidCase> {};

TEST_P(ValidatingPrunerRejects, InvalidInput) {
  Dtd dtd = BookDtd();
  NameSet all = dtd.AllNames();
  auto result = ParseValidateAndPrune(GetParam().xml, dtd, all);
  ASSERT_FALSE(result.ok()) << GetParam().xml;
  EXPECT_NE(result.status().message().find(GetParam().message_fragment),
            std::string::npos)
      << result.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ValidatingPrunerRejects,
    ::testing::Values(
        InvalidCase{"WrongRoot", "<book isbn='1'><title>T</title>"
                                 "<author>A</author></book>",
                    "root element"},
        InvalidCase{"MissingAuthor",
                    "<library><book isbn='1'><title>T</title></book>"
                    "</library>",
                    "content model"},
        InvalidCase{"WrongOrder",
                    "<library><book isbn='1'><author>A</author>"
                    "<title>T</title></book></library>",
                    "content model"},
        InvalidCase{"Undeclared",
                    "<library><ghost/></library>", "undeclared"},
        InvalidCase{"MissingRequiredAttr",
                    "<library><book><title>T</title><author>A</author>"
                    "</book></library>",
                    "isbn"},
        InvalidCase{"TextWhereForbidden",
                    "<library>loose<book isbn='1'><title>T</title>"
                    "<author>A</author></book></library>",
                    "text content"},
        InvalidCase{"TooManyYears",
                    "<library><book isbn='1'><title>T</title>"
                    "<author>A</author><year>1</year><year>2</year>"
                    "</book></library>",
                    "content model"}),
    [](const ::testing::TestParamInfo<InvalidCase>& info) {
      return info.param.name;
    });

TEST(ValidatingPruner, ErrorsEarlyInsideDeadContent) {
  // The incremental matcher reports a violation at the offending child,
  // even though the subtree continues afterwards.
  Dtd dtd = BookDtd();
  NameSet all = dtd.AllNames();
  auto result = ParseValidateAndPrune(
      "<library><book isbn='1'><year>1</year><title>T</title>"
      "<author>A</author></book></library>",
      dtd, all);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("at child 'year'"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ValidatingPruner, AgreesWithBatchValidatorOnRandomInputs) {
  for (uint64_t seed = 300; seed < 330; ++seed) {
    int tag_count = 0;
    Dtd dtd = RandomDtd(seed, &tag_count);
    DocGenerator doc_gen(dtd, seed * 3 + 1);
    Document doc = std::move(doc_gen.Generate()).value();
    if (doc.root() == kNullNode) continue;
    std::string xml = SerializeDocument(doc);
    NameSet all = dtd.AllNames();
    // Batch validator accepts, so the streaming one must too, and the
    // identity projection must round-trip the document.
    ASSERT_TRUE(Validate(doc, dtd).ok());
    auto pruned = ParseValidateAndPrune(xml, dtd, all);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    EXPECT_EQ(xml, SerializeDocument(*pruned));
  }
}

TEST(ValidatingPruner, MatchesPlainStreamingPrunerOutput) {
  Dtd dtd = std::move(LoadXMarkDtd()).value();
  XMarkOptions options;
  options.scale = 0.001;
  std::string xml = GenerateXMarkText(options);
  auto analysis =
      AnalyzeXPathQuery(dtd, "/site/people/person[homepage]/name");
  ASSERT_TRUE(analysis.ok());
  auto plain = ParseAndPrune(xml, dtd, analysis->projector);
  auto validating = ParseValidateAndPrune(xml, dtd, analysis->projector);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(validating.ok()) << validating.status().ToString();
  EXPECT_EQ(SerializeDocument(*plain), SerializeDocument(*validating));
}

TEST(ContentMatcherIncremental, AgreesWithBatchOnRandomSequences) {
  for (uint64_t seed = 400; seed < 420; ++seed) {
    int tag_count = 0;
    Dtd dtd = RandomDtd(seed, &tag_count);
    Rng rng(seed);
    for (NameId name = 0; name < static_cast<NameId>(dtd.name_count());
         ++name) {
      if (dtd.IsStringName(name) || name == dtd.document_name()) continue;
      const ContentMatcher& matcher = dtd.MatcherOf(name);
      for (int trial = 0; trial < 20; ++trial) {
        int len = rng.IntIn(0, 5);
        std::vector<NameId> children;
        for (int i = 0; i < len; ++i) {
          children.push_back(static_cast<NameId>(
              rng.Below(dtd.name_count())));
        }
        ContentMatcher::MatchState state = matcher.StartState();
        for (NameId c : children) matcher.Advance(&state, c);
        EXPECT_EQ(matcher.Matches(children), matcher.Accepts(state));
      }
    }
  }
}

}  // namespace
}  // namespace xmlproj
