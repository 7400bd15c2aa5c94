// Streaming (SAX-style) event interface.
//
// The paper's pruner is "a single bufferless one-pass traversal of the
// parsed document": it is implemented as a SaxHandler that forwards or
// drops events (projection/pruner.h). Both the XML parser and a DOM
// replayer produce these events, so pruning can run during parsing (no
// overhead, §1.2) or over an already-loaded document.

#ifndef XMLPROJ_XML_SAX_H_
#define XMLPROJ_XML_SAX_H_

#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "xml/document.h"

namespace xmlproj {

struct SaxAttribute {
  std::string_view name;
  std::string_view value;
};

// Byte-offset locator. An event producer that knows where its events come
// from (the XML parser) hands one of these to the handler via
// SaxHandler::SetLocator before the first event; during each event
// callback the locator reports the byte span of the markup that produced
// the event. Handlers that never call it pay nothing; producers without
// positions (ReplayAsSax) simply never install one.
class SaxLocator {
 public:
  virtual ~SaxLocator() = default;

  // Offset of the first byte of the markup behind the current event: the
  // '<' of a start/end tag, the first byte of a text run. Offsets are
  // relative to the buffer the caller handed in.
  virtual size_t event_begin() const = 0;
  // One past the last byte of that markup.
  virtual size_t event_end() const = 0;
};

class SaxHandler {
 public:
  virtual ~SaxHandler() = default;

  // Called (at most once, before StartDocument / the first event) by
  // producers that can report byte offsets. `locator` stays valid for the
  // duration of the event stream. Default: ignore it.
  virtual void SetLocator(const SaxLocator* locator) { (void)locator; }

  virtual Status StartDocument() { return Status::Ok(); }
  virtual Status EndDocument() { return Status::Ok(); }
  virtual Status StartElement(std::string_view tag,
                              const std::vector<SaxAttribute>& attributes) = 0;
  virtual Status EndElement(std::string_view tag) = 0;
  virtual Status Characters(std::string_view text) = 0;
  // DOCTYPE declaration, if present. `internal_subset` is the raw text
  // between '[' and ']' (empty if none).
  virtual Status Doctype(std::string_view name,
                         std::string_view internal_subset) {
    (void)name;
    (void)internal_subset;
    return Status::Ok();
  }
};

// A SaxHandler that materializes the event stream into a Document.
class DomBuilderHandler : public SaxHandler {
 public:
  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override {
    builder_.StartElement(tag);
    for (const SaxAttribute& a : attributes) {
      builder_.AddAttribute(a.name, a.value);
    }
    return Status::Ok();
  }
  Status EndElement(std::string_view) override {
    builder_.EndElement();
    return Status::Ok();
  }
  Status Characters(std::string_view text) override {
    builder_.AddText(text);
    return Status::Ok();
  }
  Status Doctype(std::string_view name,
                 std::string_view internal_subset) override {
    builder_.SetDoctype(std::string(name), std::string(internal_subset));
    return Status::Ok();
  }

  Result<Document> TakeDocument() { return builder_.Finish(); }

 private:
  DocumentBuilder builder_;
};

// Replays a Document subtree as SAX events (document node excluded).
Status ReplayAsSax(const Document& doc, SaxHandler* handler);

}  // namespace xmlproj

#endif  // XMLPROJ_XML_SAX_H_
