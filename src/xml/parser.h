// From-scratch non-validating XML parser with a streaming (SAX) interface.
//
// Supported: elements, attributes, character data, CDATA sections,
// comments, processing instructions, XML declaration, DOCTYPE with internal
// subset capture, predefined entities (&lt; &gt; &amp; &apos; &quot;) and
// numeric character references. Out of scope (as in the paper's setting):
// namespaces, external entities, custom entity declarations.

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
  // per element start tag (common/fault.h). Null — the default — costs
  // one pointer compare per element.
  FaultInjector* fault = nullptr;
};

// Bookkeeping charge per open element on top of its tag bytes: the
// parser, pruner and validator stacks each keep O(1) state per open
// element. The open-element charge of a pass is the sum over the
// elements currently open of (tag bytes + kOpenElementBytes).
inline constexpr size_t kOpenElementBytes = 64;

// Streams SAX events for `input` into `handler`. Stops at the first error.
// When `open_bytes_peak` is non-null it receives the high-water mark of
// the open-element charge, whether or not the parse succeeds. An element
// is charged just before its StartElement event (so the peak still counts
// it when the handler fails on that event) and released at its end tag;
// a self-closing element is charged across its start and end events.
Status ParseXmlStream(std::string_view input, SaxHandler* handler,
                      const XmlParseOptions& options = {},
                      size_t* open_bytes_peak = nullptr);

// Parses `input` into a Document.
Result<Document> ParseXml(std::string_view input,
                          const XmlParseOptions& options = {});

// Decodes entity and character references in attribute values / text.
// Exposed for tests.
Result<std::string> DecodeXmlReferences(std::string_view text);

}  // namespace xmlproj

#endif  // XMLPROJ_XML_PARSER_H_
