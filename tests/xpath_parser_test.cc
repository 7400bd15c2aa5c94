#include "xpath/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/nesting.h"

namespace xmlproj {
namespace {

std::string Reparse(std::string_view text) {
  auto result = ParseXPathExpr(text);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
  if (!result.ok()) return "<error>";
  return ToString(**result);
}

TEST(XPathParser, ExplicitAxes) {
  EXPECT_EQ("child::a/descendant::b", Reparse("child::a/descendant::b"));
  EXPECT_EQ("parent::node()/ancestor::a",
            Reparse("parent::node()/ancestor::a"));
  EXPECT_EQ("following-sibling::a/preceding::b",
            Reparse("following-sibling::a/preceding::b"));
}

TEST(XPathParser, Abbreviations) {
  EXPECT_EQ("child::a", Reparse("a"));
  EXPECT_EQ("/child::a/child::b", Reparse("/a/b"));
  EXPECT_EQ("/descendant-or-self::node()/child::a", Reparse("//a"));
  EXPECT_EQ("child::a/descendant-or-self::node()/child::b",
            Reparse("a//b"));
  EXPECT_EQ("self::node()", Reparse("."));
  EXPECT_EQ("parent::node()", Reparse(".."));
  EXPECT_EQ("attribute::id", Reparse("@id"));
  EXPECT_EQ("child::*", Reparse("*"));
}

TEST(XPathParser, BareNodeTextAreElementNames) {
  // Node type tests require '()'; bare names are element tests (XMark has
  // elements literally named "text").
  EXPECT_EQ("descendant::node()/self::a",
            Reparse("descendant::node()/self::a"));
  EXPECT_EQ("child::text()", Reparse("child::text()"));
  EXPECT_EQ("child::text", Reparse("child::text"));
  EXPECT_EQ("child::node", Reparse("node"));
}

TEST(XPathParser, Predicates) {
  EXPECT_EQ("child::a[child::b]", Reparse("a[b]"));
  EXPECT_EQ("child::a[(child::b or child::c)]", Reparse("a[b or c]"));
  EXPECT_EQ("child::a[(self::node() = 'x')]", Reparse("a[. = 'x']"));
  EXPECT_EQ("child::a[1][(position() != last())]",
            Reparse("a[1][position() != last()]"));
}

TEST(XPathParser, PaperRunningExample) {
  // Q from §3: /descendant::author/child::text[self::node = "Dante"]
  //            /parent::node/parent::node/child::title
  const char* q =
      "/descendant::author/child::text()[self::node() = \"Dante\"]"
      "/parent::node()/parent::node()/child::title";
  EXPECT_EQ(
      "/descendant::author/child::text()[(self::node() = 'Dante')]"
      "/parent::node()/parent::node()/child::title",
      Reparse(q));
}

TEST(XPathParser, OperatorsAndPrecedence) {
  EXPECT_EQ("((1 + (2 * 3)) = 7)", Reparse("1+2*3 = 7"));
  EXPECT_EQ("((child::a < 3) or (child::b >= 2))",
            Reparse("a < 3 or b >= 2"));
  EXPECT_EQ("(2 <= (3 mod 2))", Reparse("2 <= 3 mod 2"));
  EXPECT_EQ("(-3 + 1)", Reparse("-3 + 1"));
  EXPECT_EQ("((1 = 1) and (2 = 2))", Reparse("1 = 1 and 2 = 2"));
}

TEST(XPathParser, XPath2ComparisonSpellings) {
  EXPECT_EQ("(child::a = 1)", Reparse("a eq 1"));
  EXPECT_EQ("(child::a < 1)", Reparse("a lt 1"));
  EXPECT_EQ("(child::a >= 1)", Reparse("a ge 1"));
}

TEST(XPathParser, StarDisambiguation) {
  EXPECT_EQ("(2 * 3)", Reparse("2 * 3"));
  EXPECT_EQ("child::*/child::b", Reparse("*/b"));
  EXPECT_EQ("(child::* * 2)", Reparse("* * 2"));
}

TEST(XPathParser, FunctionsAndLiterals) {
  EXPECT_EQ("count(child::a)", Reparse("count(a)"));
  EXPECT_EQ("contains(child::a, 'x')", Reparse("contains(a,'x')"));
  EXPECT_EQ("not(empty(child::a))", Reparse("not(empty(a))"));
  EXPECT_EQ("concat('a', 'b', 'c')", Reparse("concat('a','b','c')"));
  EXPECT_EQ("position()", Reparse("position()"));
}

TEST(XPathParser, Variables) {
  EXPECT_EQ("$x", Reparse("$x"));
  EXPECT_EQ("$x/child::a", Reparse("$x/a"));
  EXPECT_EQ("$x/descendant-or-self::node()/child::a", Reparse("$x//a"));
  EXPECT_EQ("($x = $y)", Reparse("$x = $y"));
}

TEST(XPathParser, Union) {
  EXPECT_EQ("(child::a | child::b)", Reparse("a | b"));
  EXPECT_EQ("((child::a | child::b) | child::c)", Reparse("a|b|c"));
}

TEST(XPathParser, NestedPredicates) {
  EXPECT_EQ("child::a[child::b[child::c]]", Reparse("a[b[c]]"));
  EXPECT_EQ("child::a[(count(child::b) > 2)]", Reparse("a[count(b) > 2]"));
}

TEST(XPathParser, AbsolutePathAlone) {
  EXPECT_EQ("/", Reparse("/"));
}

TEST(XPathParser, ParseXPathRequiresPath) {
  EXPECT_TRUE(ParseXPath("/a/b").ok());
  EXPECT_FALSE(ParseXPath("1 + 2").ok());
}

// `n` copies of `piece` after `head`.
std::string Repeat(std::string head, const std::string& piece, int n) {
  for (int i = 0; i < n; ++i) head += piece;
  return head;
}

TEST(XPathParser, NestingPastTheLimitIsAnError) {
  // Parentheses cost the parser stack frames, and operator chains build
  // trees that analysis and evaluation walk recursively: unbounded,
  // 100,000 of either overflow a thread's stack.
  const int n = 100000;
  std::vector<std::string> hostile = {
      "/site[" + std::string(n, '(') + "1" + std::string(n, ')') + "]",
      Repeat("/site[1", "+1", n) + "]",
      Repeat("/site[1", " or 1", n) + "]",
      Repeat("/site", "|/site", n),
      "/site[" + std::string(n, '-') + "1]",
  };
  for (const std::string& text : hostile) {
    auto result = ParseXPathExpr(text);
    ASSERT_FALSE(result.ok()) << text.substr(0, 40);
    EXPECT_NE(result.status().message().find("nests deeper than 256 levels"),
              std::string::npos)
        << result.status().ToString();
  }
  const int ok = kMaxParseDepth - 8;
  EXPECT_TRUE(ParseXPathExpr("/site[" + std::string(ok, '(') + "1" +
                             std::string(ok, ')') + "]")
                  .ok());
  EXPECT_TRUE(ParseXPathExpr(Repeat("/site[1", "+1", ok) + "]").ok());
}

struct BadQuery {
  const char* name;
  const char* text;
};

// gtest_discover_tests puts the printed parameter into the ctest name. The
// default printer dumps the struct's pointer bytes, which change from run
// to run under ASLR; print the case name so the test IDs stay stable.
void PrintTo(const BadQuery& q, std::ostream* os) { *os << q.name; }

class XPathParserErrorTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(XPathParserErrorTest, Rejects) {
  EXPECT_FALSE(ParseXPathExpr(GetParam().text).ok()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XPathParserErrorTest,
    ::testing::Values(BadQuery{"EmptyPredicate", "a[]"},
                      BadQuery{"UnclosedPredicate", "a[b"},
                      BadQuery{"UnknownAxis", "sideways::a"},
                      BadQuery{"TrailingSlash2", "a/"},
                      BadQuery{"BareDollar", "$"},
                      BadQuery{"UnterminatedLiteral", "a['x]"},
                      BadQuery{"DoubleOperator", "a = = b"},
                      BadQuery{"TrailingTokens", "a b"},
                      BadQuery{"LoneBang", "a ! b"}),
    [](const ::testing::TestParamInfo<BadQuery>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace xmlproj
