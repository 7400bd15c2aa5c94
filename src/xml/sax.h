// Streaming (SAX-style) event interface.
//
// The paper's pruner is "a single bufferless one-pass traversal of the
// parsed document": it is implemented as a SaxHandler that forwards or
// drops events (projection/pruner.h). Both the XML parser and a DOM
// replayer produce these events, so pruning can run during parsing (no
// overhead, §1.2) or over an already-loaded document.
//
// The skip verdict. StartElement may return SkipSubtree()
// (common/status.h): the handler drops that element whole. The producer
// then delivers no further event for it — neither its content nor its
// EndElement — and continues after its end tag. Both producers honour
// the verdict and neither returns it to its own caller: the parser
// crosses the element's bytes without tokenizing them (xml/parser.h),
// ReplayAsSax jumps to the node's subtree_end. A filter that forwards
// the status unchanged (XMLPROJ_RETURN_IF_ERROR) stays balanced without
// knowing about it: its own StartElement returns before it counts the
// element open, and no EndElement follows.

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
// positions (ReplayAsSax) simply never install one. The span is plain
// data, so a splicing sink reads it with two loads per event and a filter
// that hands its downstream a locator of its own (the pipeline's
// projector tee) copies it with two stores.
class SaxLocator {
 public:
  virtual ~SaxLocator() = default;

  // Offset of the first byte of the markup behind the current event: the
  // '<' of a start/end tag, the first byte of a text run. Offsets are
  // relative to the buffer the caller handed in.
  size_t event_begin() const { return event_begin_; }
  // One past the last byte of that markup.
  size_t event_end() const { return event_end_; }
  // Set by the producer before each event it delivers.
  void SetSpan(size_t begin, size_t end) {
    event_begin_ = begin;
    event_end_ = end;
  }

  // What the producer crossed on skip verdicts so far: the start tags it
  // passed inside skipped elements (the skipped element itself reached
  // the handler and is not counted), and the bytes of each skipped
  // element's content plus its end tag.
  virtual size_t skipped_elements() const = 0;
  virtual size_t skipped_bytes() const = 0;

  // The open-element charge (xml/parser.h) now: it includes the element
  // whose StartElement this is and, in a Poll, the skipped ones open.
  virtual size_t open_bytes() const = 0;

 private:
  size_t event_begin_ = 0;
  size_t event_end_ = 0;
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
  // May return SkipSubtree() to drop the element whole (see above).
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
  // Called while the parser crosses a skipped element, which delivers no
  // events: at least once per MiB of skipped input, each time the
  // open-element charge crosses a MiB line, and after every skipped start
  // tag while a fault injector is attached (an armed failpoint can
  // sleep). A non-OK status aborts the parse with it. The parser polls
  // the handler it was given, the head of the chain; a filter with a
  // per-event check (a deadline, a cancel flag, a byte cap) runs it here
  // too. Default: OK.
  virtual Status Poll() { return Status::Ok(); }
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

// Replays a Document subtree as SAX events (document node excluded). A
// skip verdict jumps to the node's subtree_end. There is no locator, so
// nothing is counted as skipped.
Status ReplayAsSax(const Document& doc, SaxHandler* handler);

}  // namespace xmlproj

#endif  // XMLPROJ_XML_SAX_H_
