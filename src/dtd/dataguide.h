// DTD-free projection via inferred dataguides.
//
// The paper's conclusion (§7) notes the approach "should be easy to adapt
// to work in the absence of DTDs, by using dataguides/path-summaries
// instead". This module implements that extension: it infers a local tree
// grammar from one or more sample documents — each element tag becomes a
// name whose content model is (c1 | ... | ck | #PCDATA?)*, the union of
// the child names (and text) actually observed under that tag — and the
// regular pipeline (type inference, projector inference, pruning) runs
// unchanged on the result.
//
// Soundness caveat, inherited from dataguides in general: the inferred
// grammar describes the *sample*. Any document whose parent->child tag
// pairs are covered by the sample (in particular, the sample itself and
// any document validating against it) is projected soundly; a document
// with unseen tag nestings must be re-summarized first. StreamingPruner
// rejects the unknown tags it tokenizes, but not those inside elements it
// skips, and drops a child the grammar never showed under its kept
// parent when it keeps none of that parent's grammar children.

#ifndef XMLPROJ_DTD_DATAGUIDE_H_
#define XMLPROJ_DTD_DATAGUIDE_H_

#include <map>
#include <set>
#include <string>

#include "common/status.h"
#include "dtd/dtd.h"
#include "xml/document.h"

namespace xmlproj {

// Builds dataguide grammars incrementally from sample documents.
class DataGuideBuilder {
 public:
  // Folds a document's parent/child tag pairs into the summary. Documents
  // must share the same root tag.
  Status AddDocument(const Document& doc);

  // Finishes: produces the grammar. At least one document must have been
  // added.
  Result<Dtd> Build() const;

 private:
  struct TagSummary {
    std::set<std::string> child_tags;
    bool has_text = false;
  };

  std::string root_tag_;
  std::map<std::string, TagSummary> tags_;
};

// One-shot convenience.
Result<Dtd> InferDataGuide(const Document& doc);

}  // namespace xmlproj

#endif  // XMLPROJ_DTD_DATAGUIDE_H_
