#include "xquery/evaluator.h"

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xquery/parser.h"

namespace xmlproj {
namespace {

constexpr char kAuctions[] = R"(
<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name></person>
    <person id="p2"><name>Carol</name><age>41</age></person>
  </people>
  <auctions>
    <auction seller="p0"><price>10</price><loc>rome</loc></auction>
    <auction seller="p1"><price>25</price><loc>kyoto</loc></auction>
    <auction seller="p0"><price>40</price><loc>oslo</loc></auction>
  </auctions>
</site>
)";

class XQueryEvalTest : public ::testing::Test {
 protected:
  XQueryEvalTest() : doc_(std::move(ParseXml(kAuctions)).value()) {}

  std::string Run(std::string_view query_text) {
    auto query = ParseXQuery(query_text);
    EXPECT_TRUE(query.ok()) << query_text << "\n"
                            << query.status().ToString();
    if (!query.ok()) return "<parse error>";
    XQueryEvaluator eval(doc_);
    auto result = eval.Evaluate(**query);
    EXPECT_TRUE(result.ok()) << query_text << "\n"
                             << result.status().ToString();
    if (!result.ok()) return "<eval error>";
    return eval.Serialize(*result);
  }

  Document doc_;
};

TEST_F(XQueryEvalTest, PathQuery) {
  EXPECT_EQ("<name>Alice</name><name>Bob</name><name>Carol</name>",
            Run("/site/people/person/name"));
}

TEST_F(XQueryEvalTest, ForReturn) {
  EXPECT_EQ("AliceBobCarol",
            Run("for $p in /site/people/person return $p/name/text()"));
}

TEST_F(XQueryEvalTest, WhereFilters) {
  EXPECT_EQ("<loc>kyoto</loc><loc>oslo</loc>",
            Run("for $a in /site/auctions/auction "
                "where $a/price > 20 return $a/loc"));
}

TEST_F(XQueryEvalTest, LetBinding) {
  EXPECT_EQ("3", Run("let $p := /site/people/person return count($p)"));
}

TEST_F(XQueryEvalTest, Aggregates) {
  EXPECT_EQ("75", Run("sum(/site/auctions/auction/price)"));
  EXPECT_EQ("2", Run("count(/site/people/person/age)"));
}

TEST_F(XQueryEvalTest, ConstructorWithAttribute) {
  EXPECT_EQ(
      "<seller id=\"p0\"/><seller id=\"p1\"/><seller id=\"p0\"/>",
      Run("for $a in /site/auctions/auction "
          "return <seller id=\"{$a/@seller}\"/>"));
}

TEST_F(XQueryEvalTest, ConstructorWithContent) {
  EXPECT_EQ(
      "<r><name>Alice</name><name>Bob</name><name>Carol</name></r>",
      Run("<r>{/site/people/person/name}</r>"));
}

TEST_F(XQueryEvalTest, NestedConstructors) {
  EXPECT_EQ("<out><in>x</in>3</out>",
            Run("<out><in>x</in>{1 + 2}</out>"));
}

// Constructor content is decoded by the XML parser's own decoder, so
// character references work there as in documents.
TEST_F(XQueryEvalTest, ConstructorDecodesCharacterReferences) {
  EXPECT_EQ("<r>A</r>", Run("<r>&#65;</r>"));
  EXPECT_EQ("<r>A&amp;B</r>", Run("<r>&#x41;&amp;B</r>"));
}

TEST_F(XQueryEvalTest, Join) {
  EXPECT_EQ(
      "<s name=\"Alice\">2</s><s name=\"Bob\">1</s><s name=\"Carol\">0</s>",
      Run("for $p in /site/people/person "
          "let $a := for $t in /site/auctions/auction "
          "          where $t/@seller = $p/@id return $t "
          "return <s name=\"{$p/name/text()}\">{count($a)}</s>"));
}

TEST_F(XQueryEvalTest, IfThenElse) {
  EXPECT_EQ(
      "<p>30</p><p>none</p><p>41</p>",
      Run("for $p in /site/people/person return "
          "if ($p/age) then <p>{$p/age/text()}</p> else <p>none</p>"));
}

TEST_F(XQueryEvalTest, IfWithEmptyElse) {
  // Text nodes serialize adjacently (no atomic-value spacing).
  EXPECT_EQ("AliceCarol",
            Run("for $p in /site/people/person return "
                "if ($p/age) then $p/name/text() else ()"));
}

TEST_F(XQueryEvalTest, OrderByString) {
  EXPECT_EQ(
      "kyotooslorome",
      Run("for $a in /site/auctions/auction order by $a/loc "
          "return $a/loc/text()"));
}

TEST_F(XQueryEvalTest, OrderByNumericDescending) {
  EXPECT_EQ("402510",
            Run("for $a in /site/auctions/auction "
                "order by $a/price descending return $a/price/text()"));
}

TEST_F(XQueryEvalTest, SequenceConcatenation) {
  EXPECT_EQ("<age>30</age><age>41</age>3",
            Run("/site/people/person/age, count(/site/people/person)"));
}

TEST_F(XQueryEvalTest, ArithmeticOverValues) {
  EXPECT_EQ("<v>20</v><v>50</v><v>80</v>",
            Run("for $a in /site/auctions/auction "
                "return <v>{$a/price * 2}</v>"));
}

TEST_F(XQueryEvalTest, AtomicSpacing) {
  EXPECT_EQ("1 2 3", Run("1, 2, 3"));
}

TEST_F(XQueryEvalTest, VariableInPredicate) {
  EXPECT_EQ("<name>Alice</name>",
            Run("for $a in /site/auctions/auction[price = 10] "
                "return /site/people/person[@id = $a/@seller]/name"));
}

TEST_F(XQueryEvalTest, EmptySequenceResult) {
  EXPECT_EQ("", Run("for $p in /site/people/person "
                    "where $p/age > 100 return $p/name"));
}

TEST_F(XQueryEvalTest, UnboundVariableFails) {
  auto query = ParseXQuery("$nope/name");
  ASSERT_TRUE(query.ok());
  XQueryEvaluator eval(doc_);
  EXPECT_FALSE(eval.Evaluate(**query).ok());
}

TEST_F(XQueryEvalTest, NavigatingConstructedFails) {
  auto query = ParseXQuery("let $x := <a><b/></a> return $x/b");
  ASSERT_TRUE(query.ok());
  XQueryEvaluator eval(doc_);
  auto result = eval.Evaluate(**query);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kUnsupported, result.status().code());
}

TEST_F(XQueryEvalTest, SomeQuantifier) {
  EXPECT_EQ("AliceCarol",
            Run("for $p in /site/people/person "
                "where some $a in $p/age satisfies $a > 20 "
                "return $p/name/text()"));
  EXPECT_EQ("true",
            Run("some $a in /site/auctions/auction satisfies "
                "$a/price > 30"));
  EXPECT_EQ("false",
            Run("some $a in /site/auctions/auction satisfies "
                "$a/price > 100"));
  EXPECT_EQ("false", Run("some $x in () satisfies 1 = 1"));
}

TEST_F(XQueryEvalTest, EveryQuantifier) {
  EXPECT_EQ("true",
            Run("every $a in /site/auctions/auction satisfies "
                "$a/price >= 10"));
  EXPECT_EQ("false",
            Run("every $a in /site/auctions/auction satisfies "
                "$a/price > 10"));
  EXPECT_EQ("true", Run("every $x in () satisfies 1 = 0"));
}

TEST_F(XQueryEvalTest, MemoryMeterRecordsPeak) {
  auto query = ParseXQuery(
      "for $p in /site/people/person return <x>{$p/name/text()}</x>");
  ASSERT_TRUE(query.ok());
  MemoryMeter meter;
  XQueryEvaluator eval(doc_, &meter);
  ASSERT_TRUE(eval.Evaluate(**query).ok());
  EXPECT_GT(meter.peak(), 0u);
}

}  // namespace
}  // namespace xmlproj
