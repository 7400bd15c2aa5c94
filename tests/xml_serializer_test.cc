#include "xml/serializer.h"

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace xmlproj {
namespace {

TEST(XmlWriter, EscapesTextAndAttributes) {
  std::string out;
  XmlWriter writer(&out);
  writer.StartElement("a");
  writer.Attribute("t", "x\"<>&");
  writer.Text("1 < 2 & 3 > 2");
  writer.EndElement();
  EXPECT_EQ("<a t=\"x&quot;&lt;&gt;&amp;\">1 &lt; 2 &amp; 3 &gt; 2</a>",
            out);
}

TEST(XmlWriter, SelfClosesEmptyElements) {
  std::string out;
  XmlWriter writer(&out);
  writer.StartElement("a");
  writer.StartElement("b");
  writer.EndElement();
  writer.EndElement();
  EXPECT_EQ("<a><b/></a>", out);
}

TEST(XmlWriter, TracksDepth) {
  std::string out;
  XmlWriter writer(&out);
  writer.StartElement("a");
  writer.StartElement("b");
  EXPECT_EQ(2u, writer.open_depth());
  writer.EndElement();
  EXPECT_EQ(1u, writer.open_depth());
  writer.EndElement();
  EXPECT_EQ(0u, writer.open_depth());
}

TEST(SerializeSubtree, OnlyThatSubtree) {
  auto doc = ParseXml("<a><b>x</b><c>y</c></a>");
  ASSERT_TRUE(doc.ok());
  NodeId b = doc->node(doc->root()).first_child;
  EXPECT_EQ("<b>x</b>", SerializeSubtree(*doc, b));
}

// Collects SAX events as a readable trace.
class TraceHandler : public SaxHandler {
 public:
  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override {
    trace_ += "<";
    trace_ += tag;
    for (const SaxAttribute& a : attributes) {
      trace_ += " ";
      trace_ += a.name;
      trace_ += "=";
      trace_ += a.value;
    }
    trace_ += ">";
    return Status::Ok();
  }
  Status EndElement(std::string_view tag) override {
    trace_ += "</" + std::string(tag) + ">";
    return Status::Ok();
  }
  Status Characters(std::string_view text) override {
    trace_ += "[";
    trace_ += text;
    trace_ += "]";
    return Status::Ok();
  }
  const std::string& trace() const { return trace_; }

 private:
  std::string trace_;
};

TEST(ReplayAsSax, EmitsDocumentEvents) {
  auto doc = ParseXml(R"(<a k="v"><b>x</b><c/></a>)");
  ASSERT_TRUE(doc.ok());
  TraceHandler handler;
  ASSERT_TRUE(ReplayAsSax(*doc, &handler).ok());
  EXPECT_EQ("<a k=v><b>[x]</b><c></c></a>", handler.trace());
}

TEST(ReplayAsSax, RoundTripsViaSerializingHandler) {
  const char* text = "<a><b>x</b><c><d>y</d></c></a>";
  auto doc = ParseXml(text);
  ASSERT_TRUE(doc.ok());
  std::string out;
  SerializingHandler handler(&out);
  ASSERT_TRUE(ReplayAsSax(*doc, &handler).ok());
  // <c> has children so it is not self-closed; <b> has text.
  EXPECT_EQ(text, out);
}

TEST(ReplayAsSax, DeepDocumentIterative) {
  DocumentBuilder builder;
  constexpr int kDepth = 100000;
  for (int i = 0; i < kDepth; ++i) builder.StartElement("d");
  for (int i = 0; i < kDepth; ++i) builder.EndElement();
  Document doc = std::move(builder.Finish()).value();
  std::string out;
  SerializingHandler handler(&out);
  // Must not overflow the stack: ReplayAsSax is iterative.
  ASSERT_TRUE(ReplayAsSax(doc, &handler).ok());
  // Outer elements serialize as "<d>...</d>" (7 chars), the innermost
  // self-closes as "<d/>" (4 chars).
  EXPECT_EQ(static_cast<size_t>(kDepth - 1) * 7 + 4, out.size());
}

}  // namespace
}  // namespace xmlproj
