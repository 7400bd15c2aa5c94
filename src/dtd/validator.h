// Validation (paper Def 2.4): checks that a Document conforms to a Dtd and
// produces the interpretation ℑ mapping every node id to the grammar name
// generating it. Because DTDs are local tree grammars the interpretation is
// unique: an element's name is determined by its tag, and a text node's
// name is the String name attached to its parent element.

#ifndef XMLPROJ_DTD_VALIDATOR_H_
#define XMLPROJ_DTD_VALIDATOR_H_

#include <vector>

#include "common/status.h"
#include "dtd/dtd.h"
#include "xml/document.h"

namespace xmlproj {

// ℑ: node id -> name id. kNoName for the document node.
struct Interpretation {
  std::vector<NameId> name_of_node;

  NameId operator[](NodeId id) const {
    return name_of_node[static_cast<size_t>(id)];
  }
};

// Validates `doc` against `dtd` (content models and #REQUIRED
// attributes); on success returns the interpretation.
Result<Interpretation> Validate(const Document& doc, const Dtd& dtd);

// Computes ℑ without validating (fails only if a tag is undeclared or a
// text node occurs under an element with no PCDATA in its content model).
Result<Interpretation> Interpret(const Document& doc, const Dtd& dtd);

}  // namespace xmlproj

#endif  // XMLPROJ_DTD_VALIDATOR_H_
