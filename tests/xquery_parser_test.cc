#include "xquery/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/nesting.h"

namespace xmlproj {
namespace {

XQueryPtr MustParse(std::string_view text) {
  auto result = ParseXQuery(text);
  EXPECT_TRUE(result.ok()) << text << "\n" << result.status().ToString();
  return result.ok() ? std::move(*result) : MakeEmptyQuery();
}

TEST(XQueryParser, SimplePathQuery) {
  XQueryPtr q = MustParse("/site/people/person/name");
  EXPECT_EQ(XQueryKind::kScalar, q->kind);
  EXPECT_EQ(ExprKind::kPath, q->scalar->kind);
}

TEST(XQueryParser, ForReturn) {
  XQueryPtr q = MustParse("for $b in /site/people/person return $b/name");
  ASSERT_EQ(XQueryKind::kFor, q->kind);
  EXPECT_EQ("b", q->variable);
  EXPECT_EQ(XQueryKind::kScalar, q->binding->kind);
  EXPECT_EQ(XQueryKind::kScalar, q->body->kind);
  EXPECT_EQ(nullptr, q->where);
}

TEST(XQueryParser, ForWhereReturn) {
  XQueryPtr q = MustParse(
      "for $b in /site/open_auctions/open_auction "
      "where $b/reserve > 100 return $b/initial");
  ASSERT_EQ(XQueryKind::kFor, q->kind);
  ASSERT_NE(nullptr, q->where);
  EXPECT_EQ(XQueryKind::kScalar, q->where->kind);
}

TEST(XQueryParser, LetAndCount) {
  XQueryPtr q = MustParse(
      "let $k := /site/people/person return count($k)");
  ASSERT_EQ(XQueryKind::kLet, q->kind);
  EXPECT_EQ("k", q->variable);
  EXPECT_EQ(XQueryKind::kScalar, q->body->kind);
  EXPECT_EQ(ExprKind::kFunction, q->body->scalar->kind);
}

TEST(XQueryParser, NestedFlwr) {
  XQueryPtr q = MustParse(
      "for $p in /site/people/person "
      "let $a := for $t in /site/closed_auctions/closed_auction "
      "          where $t/buyer/@person = $p/@id return $t "
      "return count($a)");
  ASSERT_EQ(XQueryKind::kFor, q->kind);
  ASSERT_EQ(XQueryKind::kLet, q->body->kind);
  EXPECT_EQ(XQueryKind::kFor, q->body->binding->kind);
}

TEST(XQueryParser, MultipleForVariables) {
  XQueryPtr q = MustParse(
      "for $x in /a/b, $y in /a/c return $x = $y");
  ASSERT_EQ(XQueryKind::kFor, q->kind);
  EXPECT_EQ("x", q->variable);
  ASSERT_EQ(XQueryKind::kFor, q->body->kind);
  EXPECT_EQ("y", q->body->variable);
}

TEST(XQueryParser, OrderBy) {
  XQueryPtr q = MustParse(
      "for $b in /site/regions/africa/item "
      "order by $b/location descending return $b/name");
  ASSERT_EQ(XQueryKind::kFor, q->kind);
  ASSERT_NE(nullptr, q->order_key);
  EXPECT_TRUE(q->order_descending);
}

TEST(XQueryParser, IfThenElse) {
  XQueryPtr q = MustParse(
      "for $x in /a/b return if ($x/c) then $x/d else ()");
  ASSERT_EQ(XQueryKind::kFor, q->kind);
  ASSERT_EQ(XQueryKind::kIf, q->body->kind);
  EXPECT_EQ(XQueryKind::kEmpty, q->body->else_branch->kind);
}

TEST(XQueryParser, ElementConstructor) {
  XQueryPtr q = MustParse(
      "for $b in /x return <increase>{$b/bidder/increase/text()}</increase>");
  ASSERT_EQ(XQueryKind::kFor, q->kind);
  ASSERT_EQ(XQueryKind::kElement, q->body->kind);
  EXPECT_EQ("increase", q->body->tag);
  ASSERT_NE(nullptr, q->body->content);
}

TEST(XQueryParser, ConstructorWithAttributeTemplate) {
  XQueryPtr q = MustParse(
      R"(for $p in /x return <person name="{$p/name/text()}" kind="x"/>)");
  const XQueryExpr& elem = *q->body;
  ASSERT_EQ(XQueryKind::kElement, elem.kind);
  ASSERT_EQ(2u, elem.attributes.size());
  ASSERT_EQ(1u, elem.attributes[0].parts.size());
  EXPECT_NE(nullptr, elem.attributes[0].parts[0].expr);
  ASSERT_EQ(1u, elem.attributes[1].parts.size());
  EXPECT_EQ("x", elem.attributes[1].parts[0].text);
  EXPECT_EQ(nullptr, elem.content);
}

TEST(XQueryParser, ConstructorMixedContent) {
  XQueryPtr q = MustParse("<r>text <b>{/a/b}</b> more {1 + 2}</r>");
  ASSERT_EQ(XQueryKind::kElement, q->kind);
  ASSERT_NE(nullptr, q->content);
  ASSERT_EQ(XQueryKind::kSequence, q->content->kind);
  EXPECT_EQ(4u, q->content->items.size());
  EXPECT_EQ(XQueryKind::kText, q->content->items[0]->kind);
  EXPECT_EQ(XQueryKind::kElement, q->content->items[1]->kind);
}

TEST(XQueryParser, SequenceQuery) {
  XQueryPtr q = MustParse("/a/b, /a/c, count(/a/d)");
  ASSERT_EQ(XQueryKind::kSequence, q->kind);
  EXPECT_EQ(3u, q->items.size());
}

TEST(XQueryParser, EmptySequence) {
  XQueryPtr q = MustParse("()");
  EXPECT_EQ(XQueryKind::kEmpty, q->kind);
}

TEST(XQueryParser, ParenthesizedArithmeticIsScalar) {
  XQueryPtr q = MustParse("(1 + 2) * 3");
  ASSERT_EQ(XQueryKind::kScalar, q->kind);
  EXPECT_EQ(ExprKind::kBinary, q->scalar->kind);
}

TEST(XQueryParser, Comments) {
  XQueryPtr q = MustParse(
      "(: XMark Q1 :) for $b in /site/people/person (: loop :) "
      "return $b/name");
  EXPECT_EQ(XQueryKind::kFor, q->kind);
}

TEST(XQueryParser, WhereWithPredicatePath) {
  XQueryPtr q = MustParse(
      "for $t in /site/closed_auctions/closed_auction "
      "where $t/annotation/description/text/keyword return $t/date");
  ASSERT_EQ(XQueryKind::kFor, q->kind);
  ASSERT_NE(nullptr, q->where);
}

TEST(XQueryParser, LetWithWhereFoldsToIf) {
  XQueryPtr q = MustParse(
      "let $x := /a/b where count($x) > 2 return $x");
  ASSERT_EQ(XQueryKind::kLet, q->kind);
  EXPECT_EQ(XQueryKind::kIf, q->body->kind);
}

// `n` copies of `piece` after `head`.
std::string Repeat(std::string head, const std::string& piece, int n) {
  for (int i = 0; i < n; ++i) head += piece;
  return head;
}

TEST(XQueryParser, NestingPastTheLimitIsAnError) {
  // Each level costs the parser stack frames and deepens the tree later
  // walked recursively: unbounded, 100,000 of them overflow a thread's
  // stack.
  const int n = 100000;
  std::vector<std::string> hostile = {
      "for $x in /site return " + std::string(n, '(') + "$x" +
          std::string(n, ')'),
      Repeat("", "<a>", n) + Repeat("", "</a>", n),
      Repeat("", "let $x := 1 ", n) + "return $x",
      Repeat("", "if (1) then ", n) + "1" + Repeat("", " else 2", n),
  };
  for (const std::string& text : hostile) {
    auto result = ParseXQuery(text);
    ASSERT_FALSE(result.ok()) << text.substr(0, 40);
    EXPECT_NE(result.status().message().find("nests deeper than 256 levels"),
              std::string::npos)
        << result.status().ToString();
  }
  const int ok = kMaxParseDepth - 8;
  EXPECT_TRUE(ParseXQuery(Repeat("", "<a>", ok) + Repeat("", "</a>", ok))
                  .ok());
  EXPECT_TRUE(ParseXQuery(Repeat("", "let $x := 1 ", ok) + "return $x").ok());
}

struct BadQuery {
  const char* name;
  const char* text;
};

// gtest_discover_tests puts the printed parameter into the ctest name. The
// default printer dumps the struct's pointer bytes, which change from run
// to run under ASLR; print the case name so the test IDs stay stable.
void PrintTo(const BadQuery& q, std::ostream* os) { *os << q.name; }

class XQueryParserErrorTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(XQueryParserErrorTest, Rejects) {
  EXPECT_FALSE(ParseXQuery(GetParam().text).ok()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XQueryParserErrorTest,
    ::testing::Values(
        BadQuery{"MissingReturn", "for $x in /a/b $x"},
        BadQuery{"MissingIn", "for $x /a/b return $x"},
        BadQuery{"MissingDollar", "for x in /a/b return x"},
        BadQuery{"UnclosedConstructor", "<a>{/x}"},
        BadQuery{"MismatchedClose", "<a>{/x}</b>"},
        BadQuery{"UnclosedBrace", "<a>{/x</a>"},
        BadQuery{"LetWithoutAssign", "let $x /a return $x"},
        BadQuery{"TrailingGarbage", "/a/b extra"},
        BadQuery{"IfWithoutElse", "if (/a) then /b"},
        BadQuery{"OrderWithoutBy", "for $x in /a order $x return $x"}),
    [](const ::testing::TestParamInfo<BadQuery>& info) {
      return info.param.name;
    });

TEST(XQueryParser, ToStringRoundTrips) {
  XQueryPtr q = MustParse(
      "for $b in /site/open_auctions/open_auction "
      "where $b/reserve > 100 "
      "return <auction id=\"{$b/seller/@person}\">{$b/initial}</auction>");
  std::string text = ToString(*q);
  // The unparsed form must itself parse.
  auto again = ParseXQuery(text);
  ASSERT_TRUE(again.ok()) << text << "\n" << again.status().ToString();
  EXPECT_EQ(text, ToString(**again));
}

}  // namespace
}  // namespace xmlproj
