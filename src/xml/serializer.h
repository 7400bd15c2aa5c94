// XML output: Document -> text, and a streaming writer used by the XMark
// generator and the streaming pruner to produce documents without
// materializing a DOM.

#ifndef XMLPROJ_XML_SERIALIZER_H_
#define XMLPROJ_XML_SERIALIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "xml/document.h"
#include "xml/sax.h"

namespace xmlproj {

// Escapes '<', '>', '&' (and quotes when `for_attribute`) for XML output.
void AppendEscaped(std::string_view text, bool for_attribute,
                   std::string* out);

// Streaming XML writer. Produces compact (no indentation) well-formed XML.
class XmlWriter {
 public:
  // Output is appended to *out, which must outlive the writer.
  explicit XmlWriter(std::string* out) : out_(out) {}

  void StartElement(std::string_view tag);
  void Attribute(std::string_view name, std::string_view value);
  void Text(std::string_view text);
  void EndElement();

  size_t open_depth() const { return open_tags_.size(); }

 private:
  void CloseStartTagIfOpen();

  std::string* out_;
  std::vector<std::string> open_tags_;
  bool start_tag_open_ = false;
};

// Serializes the document (without XML declaration or DOCTYPE).
std::string SerializeDocument(const Document& doc);

// Serializes the subtree rooted at `id`.
std::string SerializeSubtree(const Document& doc, NodeId id);

// A SaxHandler that writes the event stream as XML text.
class SerializingHandler : public SaxHandler {
 public:
  explicit SerializingHandler(std::string* out) : writer_(out) {}

  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override {
    writer_.StartElement(tag);
    for (const SaxAttribute& a : attributes) {
      writer_.Attribute(a.name, a.value);
    }
    return Status::Ok();
  }
  Status EndElement(std::string_view) override {
    writer_.EndElement();
    return Status::Ok();
  }
  Status Characters(std::string_view text) override {
    writer_.Text(text);
    return Status::Ok();
  }

 private:
  XmlWriter writer_;
};

}  // namespace xmlproj

#endif  // XMLPROJ_XML_SERIALIZER_H_
