#include "xml/parser.h"

#include <gtest/gtest.h>

#include "xml/serializer.h"

namespace xmlproj {
namespace {

Document MustParse(std::string_view text, XmlParseOptions options = {}) {
  auto result = ParseXml(text, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(XmlParser, SimpleElement) {
  Document doc = MustParse("<a><b>hello</b></a>");
  NodeId root = doc.root();
  EXPECT_EQ("a", doc.tag_name(root));
  NodeId b = doc.node(root).first_child;
  EXPECT_EQ("b", doc.tag_name(b));
  EXPECT_EQ("hello", doc.StringValue(b));
}

TEST(XmlParser, SelfClosingAndAttributes) {
  Document doc = MustParse(R"(<a x="1" y='two'><b/></a>)");
  NodeId root = doc.root();
  EXPECT_EQ("1", *doc.FindAttribute(root, "x"));
  EXPECT_EQ("two", *doc.FindAttribute(root, "y"));
  NodeId b = doc.node(root).first_child;
  EXPECT_EQ(NodeKind::kElement, doc.kind(b));
  EXPECT_EQ(kNullNode, doc.node(b).first_child);
}

TEST(XmlParser, DropsWhitespaceOnlyTextByDefault) {
  Document doc = MustParse("<a>\n  <b>x</b>\n  <b>y</b>\n</a>");
  NodeId root = doc.root();
  int children = 0;
  for (NodeId c = doc.node(root).first_child; c != kNullNode;
       c = doc.node(c).next_sibling) {
    EXPECT_EQ(NodeKind::kElement, doc.kind(c));
    ++children;
  }
  EXPECT_EQ(2, children);
}

TEST(XmlParser, KeepsWhitespaceWhenAsked) {
  XmlParseOptions options;
  options.keep_whitespace_text = true;
  Document doc = MustParse("<a> <b>x</b> </a>", options);
  NodeId root = doc.root();
  EXPECT_EQ(NodeKind::kText, doc.kind(doc.node(root).first_child));
}

TEST(XmlParser, EntityReferences) {
  Document doc = MustParse("<a>x &lt; y &amp;&amp; a &gt; b &#65;</a>");
  EXPECT_EQ("x < y && a > b A", doc.StringValue(doc.root()));
}

TEST(XmlParser, HexCharacterReference) {
  Document doc = MustParse("<a>&#x41;&#x20AC;</a>");
  EXPECT_EQ("A\xE2\x82\xAC", doc.StringValue(doc.root()));
}

TEST(XmlParser, AttributeEntities) {
  Document doc = MustParse(R"(<a t="a&amp;b&quot;c"/>)");
  EXPECT_EQ("a&b\"c", *doc.FindAttribute(doc.root(), "t"));
}

TEST(XmlParser, CdataSection) {
  Document doc = MustParse("<a><![CDATA[<not><parsed>&amp;]]></a>");
  EXPECT_EQ("<not><parsed>&amp;", doc.StringValue(doc.root()));
}

TEST(XmlParser, CommentsAndProcessingInstructions) {
  Document doc = MustParse(
      "<?xml version=\"1.0\"?><!-- top --><a><!-- in -->"
      "<?pi data?><b>x</b></a><!-- after -->");
  EXPECT_EQ("x", doc.StringValue(doc.root()));
}

TEST(XmlParser, DoctypeCaptured) {
  Document doc = MustParse(
      "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]>\n<a>t</a>");
  EXPECT_EQ("a", doc.doctype_name());
  EXPECT_EQ("<!ELEMENT a (#PCDATA)>", doc.doctype_internal_subset());
}

TEST(XmlParser, DoctypeWithoutSubset) {
  Document doc = MustParse("<!DOCTYPE a SYSTEM \"a.dtd\"><a/>");
  EXPECT_EQ("a", doc.doctype_name());
  EXPECT_EQ("", doc.doctype_internal_subset());
}

TEST(XmlParser, MixedContent) {
  Document doc = MustParse("<p>one <b>two</b> three</p>");
  NodeId root = doc.root();
  NodeId t1 = doc.node(root).first_child;
  EXPECT_EQ(NodeKind::kText, doc.kind(t1));
  EXPECT_EQ("one ", doc.text(t1));
  NodeId b = doc.node(t1).next_sibling;
  EXPECT_EQ("b", doc.tag_name(b));
  NodeId t2 = doc.node(b).next_sibling;
  EXPECT_EQ(" three", doc.text(t2));
}

TEST(XmlParser, DeeplyNestedDoesNotOverflow) {
  std::string text;
  constexpr int kDepth = 50000;
  for (int i = 0; i < kDepth; ++i) text += "<d>";
  text += "x";
  for (int i = 0; i < kDepth; ++i) text += "</d>";
  auto result = ParseXml(text);
  // The recursive-descent parser recurses per element; this guards the
  // practical depth used by the benchmarks rather than unbounded input.
  if (result.ok()) {
    EXPECT_EQ(static_cast<size_t>(kDepth) + 2, result.value().size());
  }
}

struct ErrorCase {
  const char* name;
  const char* input;
};

// gtest_discover_tests puts the printed parameter into the ctest name. The
// default printer dumps the struct's pointer bytes, which change from run
// to run under ASLR; print the case name so the test IDs stay stable.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class XmlParserErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(XmlParserErrorTest, Rejects) {
  auto result = ParseXml(GetParam().input);
  EXPECT_FALSE(result.ok()) << GetParam().input;
  EXPECT_EQ(StatusCode::kParseError, result.status().code());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserErrorTest,
    ::testing::Values(
        ErrorCase{"MismatchedTag", "<a><b></a></b>"},
        ErrorCase{"UnclosedRoot", "<a><b></b>"},
        ErrorCase{"TextAtTopLevel", "hello<a/>"},
        ErrorCase{"ContentAfterRoot", "<a/><b/>"},
        ErrorCase{"UnterminatedComment", "<a><!-- oops</a>"},
        ErrorCase{"UnknownEntity", "<a>&unknown;</a>"},
        ErrorCase{"BadAttrSyntax", "<a x=1/>"},
        ErrorCase{"LtInAttribute", "<a x=\"<\"/>"},
        ErrorCase{"UnterminatedCdata", "<a><![CDATA[x</a>"},
        ErrorCase{"EmptyInput", ""},
        ErrorCase{"BadCharRef", "<a>&#xQQ;</a>"}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) {
      return info.param.name;
    });

TEST(XmlParser, RoundTripThroughSerializer) {
  const char* text =
      R"(<site><people><person id="p0"><name>Joe &amp; Co</name></person>)"
      R"(</people></site>)";
  Document doc = MustParse(text);
  std::string serialized = SerializeDocument(doc);
  Document again = MustParse(serialized);
  EXPECT_EQ(SerializeDocument(again), serialized);
  EXPECT_EQ(doc.size(), again.size());
}

// The open-element charge is tag bytes + kOpenElementBytes per open
// element; its high-water mark is reported with or without an error. A
// self-closing element is charged across its start and end events.
TEST(XmlParser, ReportsOpenElementHighWaterMark) {
  constexpr size_t k = kOpenElementBytes;
  struct Case {
    const char* text;
    size_t peak;
  };
  const Case cases[] = {
      {"<a/>", 1 + k},
      {"<a><bb/><c>t</c></a>", (1 + k) + (2 + k)},
      {"<a><b><c/></b><dd/></a>", (1 + k) + (1 + k) + (1 + k)},
      // Fails at the mismatched end tag; the peak up to there survives.
      {"<root><x><yy></x></root>", (4 + k) + (1 + k) + (2 + k)},
  };
  for (const Case& c : cases) {
    std::string out;
    SerializingHandler sink(&out);
    size_t peak = 0;
    (void)ParseXmlStream(c.text, &sink, {}, &peak);
    EXPECT_EQ(peak, c.peak) << c.text;
  }
}

TEST(DecodeXmlReferences, Basic) {
  auto result = DecodeXmlReferences("a&lt;b&amp;c");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ("a<b&c", result.value());
  EXPECT_FALSE(DecodeXmlReferences("oops&lt").ok());
}

}  // namespace
}  // namespace xmlproj
