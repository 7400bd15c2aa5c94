// From-scratch non-validating XML parser with a streaming (SAX) interface.
//
// Supported: elements, attributes, character data, CDATA sections,
// comments, processing instructions, XML declaration, DOCTYPE with internal
// subset capture, predefined entities (&lt; &gt; &amp; &apos; &quot;) and
// numeric character references, which must name a legal XML character
// (XML 1.0 §2.2). Out of scope (as in the paper's setting): namespaces,
// external entities, custom entity declarations.
//
// Skip contract. When the handler's StartElement returns SkipSubtree()
// (xml/sax.h), the parser crosses that element's content and end tag
// with a memchr-driven loop that emits no events. Inside the skipped
// bytes it checks only:
//  - nesting, and each end tag's name against its start tag;
//  - that quoted values in start tags, comments, CDATA sections and PIs
//    terminate, and that the input does not end first;
//  - that every start and end tag begins with a name ("<!X" fails).
// Attribute syntax, attribute values, references and text are not
// checked there, so a document whose only defect lies inside a skipped
// element parses. Skipped bytes produce no output, so a sink's output
// stays well-formed. Every skipped start tag still hits the "xml.parse"
// failpoint and is charged in the open-element high-water mark exactly
// as a parsed one; the locator counts the skipped elements and bytes.
// The handler's Poll() runs at least once per kSkipPollBytes of skipped
// input (a single comment, CDATA section, PI or start tag is never split
// between polls), at every skipped start tag whose charge crosses a
// multiple of kSkipPollBytes, and after every skipped start tag while a
// fault injector is attached. ParseXmlStream never returns kSkipSubtree.

#ifndef XMLPROJ_XML_PARSER_H_
#define XMLPROJ_XML_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/fault.h"
#include "common/status.h"
#include "xml/document.h"
#include "xml/sax.h"

namespace xmlproj {

struct XmlParseOptions {
  // When false (default), text nodes consisting solely of whitespace are
  // dropped. Pretty-printing whitespace would otherwise pollute element
  // content and break DTD validation of non-mixed content models.
  bool keep_whitespace_text = false;
  // Optional fault injector; arms the "xml.parse" failpoint, checked once
  // per element start tag, skipped or not (common/fault.h). Null — the
  // default — costs one pointer compare per element.
  FaultInjector* fault = nullptr;
};

// Bookkeeping charge per open element on top of its tag bytes: the
// parser, pruner and validator stacks each keep O(1) state per open
// element. The open-element charge of a pass is the sum over the
// elements currently open of (tag bytes + kOpenElementBytes).
inline constexpr size_t kOpenElementBytes = 64;

// The poll step inside a skip, in skipped input and in charge growth.
inline constexpr size_t kSkipPollBytes = size_t{1} << 20;

// Streams SAX events for `input` into `handler`. Stops at the first error.
// When `open_bytes_peak` is non-null it receives the high-water mark of
// the open-element charge, whether or not the parse succeeds. An element
// is charged just before its StartElement event (so the peak still counts
// it when the handler fails on that event) and released at its end tag;
// a self-closing element is charged across its start and end events.
// Elements inside a skipped element are charged the same way, so the
// high-water mark does not depend on the handler's verdicts.
Status ParseXmlStream(std::string_view input, SaxHandler* handler,
                      const XmlParseOptions& options = {},
                      size_t* open_bytes_peak = nullptr);

// Parses `input` into a Document.
Result<Document> ParseXml(std::string_view input,
                          const XmlParseOptions& options = {});

// Decodes entity and character references in `text` with the parser's
// own decoder (the five predefined entities and legal character
// references). The XQuery parser uses it for direct constructors.
Result<std::string> DecodeXmlReferences(std::string_view text);

}  // namespace xmlproj

#endif  // XMLPROJ_XML_PARSER_H_
