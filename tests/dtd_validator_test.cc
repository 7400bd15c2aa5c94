#include "dtd/validator.h"

#include <gtest/gtest.h>

#include "dtd/dtd_parser.h"
#include "xml/parser.h"

namespace xmlproj {
namespace {

constexpr char kBookDtd[] = R"(
  <!ELEMENT book (title, author+, year?)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT year (#PCDATA)>
  <!ATTLIST book isbn CDATA #REQUIRED>
)";

Dtd BookDtd() { return std::move(ParseDtd(kBookDtd, "book")).value(); }

Document Parse(std::string_view xml) {
  return std::move(ParseXml(xml)).value();
}

TEST(Validator, ValidDocument) {
  Dtd dtd = BookDtd();
  Document doc = Parse(
      R"(<book isbn="x"><title>T</title><author>A</author>)"
      R"(<author>B</author><year>1313</year></book>)");
  auto interp = Validate(doc, dtd);
  ASSERT_TRUE(interp.ok()) << interp.status().ToString();
  // Root is mapped to the root name; text under title is title's String
  // name.
  EXPECT_EQ(dtd.root(), (*interp)[doc.root()]);
  NodeId title = doc.node(doc.root()).first_child;
  NodeId title_text = doc.node(title).first_child;
  EXPECT_EQ(dtd.StringNameOf(dtd.NameOfTag("title")),
            (*interp)[title_text]);
}

TEST(Validator, UniqueInterpretation) {
  // For local tree grammars the interpretation is tag-determined.
  Dtd dtd = BookDtd();
  Document doc = Parse(
      R"(<book isbn="x"><title>T</title><author>A</author></book>)");
  auto interp = Validate(doc, dtd);
  ASSERT_TRUE(interp.ok());
  for (NodeId id = 1; id < doc.size(); ++id) {
    if (doc.kind(id) == NodeKind::kElement) {
      EXPECT_EQ(dtd.NameOfTag(doc.tag_name(id)), (*interp)[id]);
    }
  }
}

TEST(Validator, WrongRoot) {
  Dtd dtd = BookDtd();
  Document doc = Parse("<title>T</title>");
  EXPECT_FALSE(Validate(doc, dtd).ok());
}

TEST(Validator, ContentModelViolationMissingAuthor) {
  Dtd dtd = BookDtd();
  Document doc = Parse(R"(<book isbn="x"><title>T</title></book>)");
  auto result = Validate(doc, dtd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kInvalid, result.status().code());
}

TEST(Validator, ContentModelViolationWrongOrder) {
  Dtd dtd = BookDtd();
  Document doc = Parse(
      R"(<book isbn="x"><author>A</author><title>T</title></book>)");
  EXPECT_FALSE(Validate(doc, dtd).ok());
}

TEST(Validator, UndeclaredElement) {
  Dtd dtd = BookDtd();
  Document doc = Parse(
      R"(<book isbn="x"><title>T</title><author>A</author><ghost/></book>)");
  auto result = Validate(doc, dtd);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("ghost"), std::string::npos);
}

TEST(Validator, TextWhereNotAllowed) {
  Dtd dtd = BookDtd();
  Document doc = Parse(
      R"(<book isbn="x">loose text<title>T</title><author>A</author></book>)");
  EXPECT_FALSE(Validate(doc, dtd).ok());
}

TEST(Validator, RequiredAttributeMissing) {
  Dtd dtd = BookDtd();
  Document doc = Parse(
      "<book><title>T</title><author>A</author></book>");
  auto result = Validate(doc, dtd);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("isbn"), std::string::npos);
}

// An attribute's first declaration binds; later ones are ignored (XML 1.0
// §3.3): `a` is optional and `b` required, whatever the second ATTLIST of
// each says.
TEST(Validator, FirstAttributeDeclarationBinds) {
  auto dtd = ParseDtd(R"(
    <!ELEMENT root (e*)>
    <!ELEMENT e EMPTY>
    <!ATTLIST e a CDATA #IMPLIED b CDATA #REQUIRED>
    <!ATTLIST e a CDATA #REQUIRED b CDATA #IMPLIED>
  )", "root");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_EQ(dtd->production(dtd->NameOfTag("e")).required_attributes,
            std::vector<std::string>{"b"});
  auto valid = Validate(Parse("<root><e b='1'/></root>"), *dtd);
  EXPECT_TRUE(valid.ok()) << valid.status().ToString();
  auto missing = Validate(Parse("<root><e a='1'/></root>"), *dtd);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(),
            "element 'e' is missing required attribute 'b'");
}

TEST(Validator, InterpretSkipsContentChecks) {
  Dtd dtd = BookDtd();
  // Invalid order, but Interpret only maps names.
  Document doc = Parse(
      R"(<book isbn="x"><author>A</author><title>T</title></book>)");
  auto interp = Interpret(doc, dtd);
  ASSERT_TRUE(interp.ok());
  EXPECT_EQ(dtd.NameOfTag("author"),
            (*interp)[doc.node(doc.root()).first_child]);
}

TEST(Validator, MixedContentDocument) {
  Dtd dtd = std::move(ParseDtd(R"(
    <!ELEMENT p (#PCDATA | b)*>
    <!ELEMENT b (#PCDATA)>
  )",
                               "p"))
                .value();
  Document doc = Parse("<p>one <b>two</b> three</p>");
  auto interp = Validate(doc, dtd);
  ASSERT_TRUE(interp.ok()) << interp.status().ToString();
  NodeId t1 = doc.node(doc.root()).first_child;
  EXPECT_EQ(dtd.StringNameOf(dtd.root()), (*interp)[t1]);
}

TEST(Validator, RecursiveDocument) {
  Dtd dtd = std::move(ParseDtd("<!ELEMENT d (d*)>", "d")).value();
  Document doc = Parse("<d><d><d/></d><d/></d>");
  EXPECT_TRUE(Validate(doc, dtd).ok());
}

TEST(Validator, EmptyContentRejectsChildren) {
  Dtd dtd = std::move(ParseDtd("<!ELEMENT a EMPTY>\n", "a")).value();
  Document doc = Parse("<a>text</a>");
  EXPECT_FALSE(Validate(doc, dtd).ok());
}

}  // namespace
}  // namespace xmlproj
