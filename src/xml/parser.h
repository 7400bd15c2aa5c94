// From-scratch non-validating XML parser with a streaming (SAX) interface.
//
// Supported: elements, attributes, character data, CDATA sections,
// comments, processing instructions, XML declaration, DOCTYPE with internal
// subset capture, predefined entities (&lt; &gt; &amp; &apos; &quot;) and
// numeric character references. Out of scope (as in the paper's setting):
// namespaces, external entities, custom entity declarations.

#ifndef XMLPROJ_XML_PARSER_H_
#define XMLPROJ_XML_PARSER_H_

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

// Streams SAX events for `input` into `handler`. Stops at the first error.
Status ParseXmlStream(std::string_view input, SaxHandler* handler,
                      const XmlParseOptions& options = {});

// Parses `input` into a Document.
Result<Document> ParseXml(std::string_view input,
                          const XmlParseOptions& options = {});

// Decodes entity and character references in attribute values / text.
// Exposed for tests.
Result<std::string> DecodeXmlReferences(std::string_view text);

}  // namespace xmlproj

#endif  // XMLPROJ_XML_PARSER_H_
