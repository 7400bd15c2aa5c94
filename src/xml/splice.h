// Span-splicing serializer: the zero-copy output half of the pruning hot
// path.
//
// Type projection only ever *drops whole subtrees*; every event that
// survives is forwarded verbatim. So instead of re-emitting each event
// through XmlWriter (per-tag appends, per-byte escaping), the sink can
// copy the kept byte ranges of the *input* — the SaxLocator span of every
// kept event — straight into the output, one memcpy per contiguous kept
// region. This is what distinguishes type projectors from path
// projectors: a path projector may keep an element but drop some of its
// attributes or rewrite its context, so its output is not a subsequence
// of input spans; a chain-closed NameSet projector's output is.
//
// The sink stays byte-identical to SerializingHandler by checking, per
// event, that the raw span is exactly what XmlWriter would emit
// (canonical form: double-quoted attributes, no entity references, no
// CDATA, no end-tag whitespace) and falling back to writer-style
// emission for the rare non-canonical event. XmlWriter's lazy start-tag
// close (`<a></a>` serializes as `<a/>`) is mirrored by deferring the
// start tag's '>' and absorbing it from the input when the next kept
// event is contiguous.

#ifndef XMLPROJ_XML_SPLICE_H_
#define XMLPROJ_XML_SPLICE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/sax.h"

namespace xmlproj {

class SplicingSerializingHandler : public SaxHandler {
 public:
  // `input` is the buffer the SAX events were parsed from; locator spans
  // index into it. Output is appended to *out. Both must outlive the
  // handler.
  SplicingSerializingHandler(std::string_view input, std::string* out)
      : input_(input), out_(out) {}

  void SetLocator(const SaxLocator* locator) override { locator_ = locator; }

  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override;
  Status EndElement(std::string_view tag) override;
  Status Characters(std::string_view text) override;
  Status EndDocument() override {
    Finish();
    return Status::Ok();
  }

  // Flushes the deferred span into the output. Idempotent; EndDocument
  // calls it, and callers may call it again once the parse returns.
  void Finish() { Flush(); }

  // Bytes this sink has committed to producing: flushed output plus the
  // deferred span. Budget guards meter this instead of out->size() so
  // splice deferral cannot hide output growth from the byte cap; it is
  // invariant under Flush().
  size_t produced_bytes() const {
    return out_->size() + (pending_end_ - pending_begin_);
  }

  // Diagnostics: bytes copied via span splices vs. events that needed
  // writer-style fallback emission.
  size_t spliced_bytes() const {
    return spliced_bytes_ + (pending_end_ - pending_begin_);
  }
  size_t fallback_events() const { return fallback_events_; }

 private:
  bool HasPending() const { return pending_end_ > pending_begin_; }
  void Flush();
  // Extends the deferred span when [begin,end) is contiguous with it;
  // otherwise flushes and starts a new one.
  void AppendSpan(size_t begin, size_t end);
  // Mirrors XmlWriter: emit (or absorb from the input) the '>' of a
  // still-open start tag.
  void CloseStartTagIfOpen();
  // True when the raw bytes behind the current StartElement are exactly
  // XmlWriter's emission; *content_end gets the offset of the closing
  // '>' or "/>", which stays deferred.
  bool CanonicalStartTag(std::string_view tag,
                         const std::vector<SaxAttribute>& attributes,
                         size_t* content_end) const;

  std::string_view input_;
  std::string* out_;
  const SaxLocator* locator_ = nullptr;
  size_t pending_begin_ = 0;
  size_t pending_end_ = 0;
  bool start_tag_open_ = false;
  size_t spliced_bytes_ = 0;
  size_t fallback_events_ = 0;
};

}  // namespace xmlproj

#endif  // XMLPROJ_XML_SPLICE_H_
