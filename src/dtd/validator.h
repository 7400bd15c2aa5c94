// Validation (paper Def 2.4): checks that a Document conforms to a Dtd and
// produces the interpretation ℑ mapping every node id to the grammar name
// generating it. Because DTDs are local tree grammars the interpretation is
// unique: an element's name is determined by its tag, and a text node's
// name is the String name attached to its parent element.

#ifndef XMLPROJ_DTD_VALIDATOR_H_
#define XMLPROJ_DTD_VALIDATOR_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "dtd/dtd.h"
#include "xml/document.h"
#include "xml/sax.h"

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

// The #REQUIRED-attribute rule for one start tag of element name `name`,
// which Validate and the streaming ValidatingPruner (projection/pruner.h)
// both apply: one pass over the tag's attributes, each looked up in the
// element's Production::required_index, so the check is linear in the
// tag's attributes whatever the DTD declares. kInvalid names the first
// missing attribute in declaration order. `seen` is scratch space for one
// mark per required attribute, which the caller keeps across tags.
Status CheckRequiredAttributes(const Dtd& dtd, NameId name,
                               std::span<const SaxAttribute> attributes,
                               std::vector<bool>* seen);

}  // namespace xmlproj

#endif  // XMLPROJ_DTD_VALIDATOR_H_
