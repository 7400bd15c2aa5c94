#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "projection/pipeline.h"
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

// An attribute's first declaration binds; later ones are ignored (XML 1.0
// §3.3): `a` is optional and `b` required, whatever the second ATTLIST of
// each says.
TEST(ValidatingPruner, FirstAttributeDeclarationBinds) {
  auto dtd = ParseDtd(R"(
    <!ELEMENT root (e*)>
    <!ELEMENT e EMPTY>
    <!ATTLIST e a CDATA #IMPLIED b CDATA #REQUIRED>
    <!ATTLIST e a CDATA #REQUIRED b CDATA #IMPLIED>
  )", "root");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  const NameSet all = dtd->AllNames();
  auto valid = ParseValidateAndPrune("<root><e b='1'/></root>", *dtd, all);
  EXPECT_TRUE(valid.ok()) << valid.status().ToString();
  auto missing = ParseValidateAndPrune("<root><e a='1'/></root>", *dtd, all);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(),
            "element 'e' is missing required attribute 'b'");
}

// A tag may name an attribute twice and list the rest in any order; the
// error names the first missing attribute in declaration order, as the
// DOM validator does.
TEST(ValidatingPruner, NamesTheFirstMissingRequiredAttribute) {
  auto dtd = ParseDtd(R"(
    <!ELEMENT root (e*)>
    <!ELEMENT e EMPTY>
    <!ATTLIST e a CDATA #REQUIRED b CDATA #REQUIRED c CDATA #REQUIRED>
  )", "root");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  const NameSet all = dtd->AllNames();
  for (const char* xml : {"<root><e c='1' a='1' a='2' x='1'/></root>",
                          "<root><e a='1'/></root>"}) {
    auto result = ParseValidateAndPrune(xml, *dtd, all);
    ASSERT_FALSE(result.ok()) << xml;
    EXPECT_EQ(result.status().message(),
              "element 'e' is missing required attribute 'b'")
        << xml;
    auto doc = ParseXml(xml);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(Validate(*doc, *dtd).status().message(),
              result.status().message());
  }
}

// One start tag carrying 60,000 #REQUIRED attributes, in reverse
// declaration order. The check makes one pass over the tag's attributes,
// so the validating pass ends in milliseconds (tens under ASan), well
// inside a one-second deadline. A check that rescans the attributes once
// per required name makes 1.8e9 comparisons inside that one callback, a
// few seconds, and the deadline check after it fails the task.
TEST(ValidatingPruner, ManyRequiredAttributesAreCheckedInOnePass) {
  constexpr int kRequired = 60000;
  std::string dtd_text = "<!ELEMENT root (e)> <!ELEMENT e EMPTY> <!ATTLIST e";
  for (int i = 0; i < kRequired; ++i) {
    dtd_text += " a" + std::to_string(i) + " CDATA #REQUIRED";
  }
  dtd_text += ">";
  auto dtd = ParseDtd(dtd_text, "root");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  std::string attributes;  // a59999 ... a1
  for (int i = kRequired - 1; i > 0; --i) {
    attributes += " a" + std::to_string(i) + "=\"\"";
  }
  const std::string xml = "<root><e" + attributes + " a0=\"\"/></root>";
  PipelineOptions options;
  options.validate = true;
  options.budget.deadline_ms = 1000;
  const NameSet all = dtd->AllNames();
  auto run = PruneDocument(xml, *dtd, all, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->results[0].output, xml);

  // Without the first declared one the pass fails as fast, naming it.
  auto missing = PruneDocument("<root><e" + attributes + "/></root>", *dtd,
                               all, options);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalid)
      << missing.status().ToString();
  EXPECT_NE(missing.status().message().find(
                "element 'e' is missing required attribute 'a0'"),
            std::string::npos)
      << missing.status().ToString();
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

// Reference for ContentMatcher: tries every way the model's regular
// expression can split a child sequence, by backtracking over the
// ContentModel nodes. It builds no automaton.
class BacktrackingMatcher {
 public:
  BacktrackingMatcher(const ContentModel& model,
                      const std::vector<NameId>& children)
      : model_(model), children_(children) {}

  bool Matches() {
    if (model_.empty_model()) return children_.empty();
    return Match(model_.root(), 0,
                 [this](size_t end) { return end == children_.size(); });
  }

  // The name occurrences (kName nodes) that can take children[i] after
  // some parse of children[0, i). More than one makes the model
  // non-deterministic (XML 1.0 calls such models ambiguous).
  std::set<int32_t> OccurrencesAt(size_t i) {
    occurrences_.clear();
    probe_ = i;
    if (!model_.empty_model()) {
      Match(model_.root(), 0, [](size_t) { return false; });
    }
    probe_ = kNoProbe;
    return occurrences_;
  }

 private:
  using Continuation = std::function<bool(size_t)>;
  static constexpr size_t kNoProbe = ~size_t{0};

  // True if node `index` matches children[pos, end) for some end that
  // `k` accepts.
  bool Match(int32_t index, size_t pos, const Continuation& k) {
    const RegexNode& n = model_.node(index);
    switch (n.kind) {
      case RegexKind::kEpsilon:
        return k(pos);
      case RegexKind::kName:
        if (pos >= children_.size() || children_[pos] != n.name) {
          return false;
        }
        if (pos == probe_) {
          occurrences_.insert(index);
          return false;
        }
        return k(pos + 1);
      case RegexKind::kAny:
        for (size_t end = pos; end <= children_.size(); ++end) {
          if (k(end)) return true;
        }
        return false;
      case RegexKind::kSeq:
        return MatchSeq(n.children, 0, pos, k);
      case RegexKind::kChoice:
        for (int32_t c : n.children) {
          if (Match(c, pos, k)) return true;
        }
        return false;
      case RegexKind::kOpt:
        return k(pos) || Match(n.children[0], pos, k);
      case RegexKind::kStar:
        return MatchStar(n.children[0], pos, k);
      case RegexKind::kPlus:
        return Match(n.children[0], pos, [&](size_t mid) {
          return MatchStar(n.children[0], mid, k);
        });
    }
    return false;
  }

  bool MatchSeq(const std::vector<int32_t>& items, size_t i, size_t pos,
                const Continuation& k) {
    if (i == items.size()) return k(pos);
    return Match(items[i], pos, [&](size_t mid) {
      return MatchSeq(items, i + 1, mid, k);
    });
  }

  // Zero repetitions, or one that takes at least one child and then more.
  bool MatchStar(int32_t child, size_t pos, const Continuation& k) {
    return k(pos) || Match(child, pos, [&](size_t mid) {
             return mid > pos && MatchStar(child, mid, k);
           });
  }

  const ContentModel& model_;
  const std::vector<NameId>& children_;
  size_t probe_ = kNoProbe;
  std::set<int32_t> occurrences_;
};

// A child sequence the model generates, choosing at random.
void SampleWord(const ContentModel& model, int32_t index, size_t names,
                Rng* rng, std::vector<NameId>* out) {
  const RegexNode& n = model.node(index);
  switch (n.kind) {
    case RegexKind::kEpsilon:
      break;
    case RegexKind::kName:
      out->push_back(n.name);
      break;
    case RegexKind::kAny:
      for (int k = rng->IntIn(0, 3); k > 0; --k) {
        out->push_back(static_cast<NameId>(rng->Below(names)));
      }
      break;
    case RegexKind::kSeq:
      for (int32_t c : n.children) SampleWord(model, c, names, rng, out);
      break;
    case RegexKind::kChoice:
      SampleWord(model, n.children[rng->Below(n.children.size())], names,
                 rng, out);
      break;
    case RegexKind::kOpt:
    case RegexKind::kStar:
    case RegexKind::kPlus: {
      int low = n.kind == RegexKind::kPlus ? 1 : 0;
      int high = n.kind == RegexKind::kOpt ? 1 : 3;
      for (int k = rng->IntIn(low, high); k > 0; --k) {
        SampleWord(model, n.children[0], names, rng, out);
      }
      break;
    }
  }
}

// The automaton the validators walk against a backtracking matcher, over
// random grammars. Inputs are words each model generates plus one-name
// insertions, deletions and substitutions, so both verdicts occur.
// RandomDtd declares many non-deterministic models such as (a?, a); the
// test counts them to show they are among the inputs.
TEST(ContentMatcherOracle, AgreesWithBacktrackingOnRandomGrammars) {
  size_t accepted = 0;
  size_t rejected = 0;
  size_t nondeterministic = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    int tag_count = 0;
    Dtd dtd = RandomDtd(seed, &tag_count);
    std::vector<std::string> name_strings = dtd.NameStrings();
    const size_t names = dtd.name_count();
    Rng rng(seed);
    for (NameId name = 0; name < static_cast<NameId>(names); ++name) {
      if (dtd.IsStringName(name)) continue;
      const ContentModel& model = dtd.production(name).content;
      const ContentMatcher& matcher = dtd.MatcherOf(name);
      bool ambiguous = false;
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<NameId> word;
        if (!model.empty_model()) {
          SampleWord(model, model.root(), names, &rng, &word);
        }
        for (size_t i = 0; i < word.size(); ++i) {
          ambiguous = ambiguous ||
                      BacktrackingMatcher(model, word).OccurrencesAt(i)
                              .size() > 1;
        }
        std::vector<std::vector<NameId>> inputs(4, word);
        NameId other = static_cast<NameId>(rng.Below(names));
        inputs[1].insert(inputs[1].begin() + rng.Below(word.size() + 1),
                         other);
        if (!word.empty()) {
          size_t at = rng.Below(word.size());
          inputs[2].erase(inputs[2].begin() + at);
          inputs[3][at] = other;
        }
        for (const std::vector<NameId>& input : inputs) {
          bool expected = BacktrackingMatcher(model, input).Matches();
          std::string shown;
          for (NameId c : input) shown += name_strings[c] + " ";
          EXPECT_EQ(expected, matcher.Matches(input))
              << "seed " << seed << ": " << model.ToString(name_strings)
              << " on [ " << shown << "]";
          ++(expected ? accepted : rejected);
        }
      }
      if (ambiguous) ++nondeterministic;
    }
  }
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(rejected, 2000u);
  EXPECT_GT(nondeterministic, 100u);
}

}  // namespace
}  // namespace xmlproj
