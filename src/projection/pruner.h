// Type-driven projection — pruning (paper Def 2.7 and §6).
//
// A node survives iff its grammar name is in the projector π. Because π is
// chain-closed, discarding a node discards its whole subtree, so pruning
// is a single pass:
//
//  - StreamingPruner is a SaxHandler filter: it tracks the current element
//    name with a stack (O(depth) state, the paper's "single bufferless
//    one-pass traversal") and forwards kept events. A rejected element
//    gets the skip verdict (xml/sax.h), so the producer drops its whole
//    subtree: behind the XML parser the rejected bytes are crossed
//    without being tokenized, so pruning while parsing costs less than
//    parsing; behind ReplayAsSax the replay jumps past the subtree. So
//    does the content of an emptied element, a kept one none of whose
//    DTD children is in π.
//
//  - PruneDocument is the DOM-level equivalent given a validated
//    document's interpretation ℑ (Def 2.7 verbatim); used by tests to
//    cross-check the streaming path.

#ifndef XMLPROJ_PROJECTION_PRUNER_H_
#define XMLPROJ_PROJECTION_PRUNER_H_

#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "dtd/dtd.h"
#include "dtd/name_set.h"
#include "dtd/validator.h"
#include "xml/document.h"
#include "xml/sax.h"

namespace xmlproj {

// What one pass saw and kept. Behind the parser (ParseAndPrune, the
// pipeline) a StreamingPruner's counts are:
//  - input_nodes: every element of the input, plus each text node the
//    pass tokenized. Text inside skipped elements is never tokenized, so
//    it is not counted; the elements there are, from the parser's
//    locator at EndDocument. The content of an emptied element (see
//    StreamingPruner) is skipped too.
//  - input_text_bytes: the decoded text the pass tokenized.
//  - kept_nodes, kept_text_bytes: what went downstream. Exact.
//  - skipped_bytes: for each skipped element, rejected or emptied, its
//    content plus its end tag, as the parser crossed it.
// PruneViaStreaming replays a DOM, which has no locator: it counts only
// the nodes the pruner examined, and skipped_bytes stays 0. The DOM-level
// PruneDocument and ValidatingPruner, which skip nothing, count every
// node and all text.
struct PruneStats {
  size_t input_nodes = 0;
  size_t kept_nodes = 0;
  size_t input_text_bytes = 0;
  size_t kept_text_bytes = 0;
  size_t skipped_bytes = 0;
};

// t \_ℑ π (Def 2.7): nodes whose name is outside π become the empty
// forest. When `new_to_old` is non-null it receives, for every node id of
// the pruned document, the id of the originating node in `doc` — the
// identity map of the formal model, used by tests to state Theorem 4.5
// ("the query returns the same *nodes* on t and t\π") literally.
Result<Document> PruneDocument(const Document& doc,
                               const Interpretation& interp,
                               const NameSet& projector,
                               PruneStats* stats = nullptr,
                               std::vector<NodeId>* new_to_old = nullptr);

// SAX filter implementing the same projection in one streaming pass.
// Elements with undeclared tags are rejected (the input must be valid
// with respect to the DTD for type-driven projection to apply). An
// element whose name is outside π gets the skip verdict: nothing inside
// it reaches the pruner, so undeclared tags there go unchecked.
//
// An element whose name is in π but none of whose DTD children (element
// names and its text name) is, is *emptied*: on a valid document nothing
// inside it survives, so the pruner forwards its StartElement and then
// its EndElement (which carries the start tag's span) and returns the
// skip verdict for its content. Inside it, too, only what a skip checks
// is checked; in an invalid document a child the DTD does not allow
// there is dropped even if its name is in π.
class StreamingPruner : public SaxHandler {
 public:
  StreamingPruner(const Dtd& dtd, const NameSet& projector,
                  SaxHandler* downstream);

  // Forwarded so a splicing sink downstream sees the parser's byte
  // spans (a kept event is kept whole, so its span passes through
  // unchanged). The pruner reads only the skip counts, at EndDocument.
  void SetLocator(const SaxLocator* locator) override {
    locator_ = locator;
    downstream_->SetLocator(locator);
  }

  Status StartDocument() override;
  Status EndDocument() override;
  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override;
  Status EndElement(std::string_view tag) override;
  Status Characters(std::string_view text) override;

  const PruneStats& stats() const { return stats_; }

  // Arms the "prune.element" failpoint, checked per StartElement that
  // reaches the pruner (common/fault.h). Null — the default — is one
  // compare per element.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

 private:
  const Dtd& dtd_;
  const NameSet& projector_;
  SaxHandler* downstream_;
  const SaxLocator* locator_ = nullptr;
  FaultInjector* fault_ = nullptr;
  // Names in π none of whose DTD children is in π; built per pass.
  NameSet emptied_;
  // Names of currently open (kept) elements.
  std::vector<NameId> open_names_;
  PruneStats stats_;
};

// Prune-while-validating (§6: "an optional validation option, that makes
// it possible to prune the document while validating it"): one streaming
// pass that checks the *input* document against the DTD — content models
// one automaton state per open element, required attributes, root element —
// while forwarding the projected events downstream. O(depth) state.
class ValidatingPruner : public SaxHandler {
 public:
  ValidatingPruner(const Dtd& dtd, const NameSet& projector,
                   SaxHandler* downstream);

  void SetLocator(const SaxLocator* locator) override {
    downstream_->SetLocator(locator);
  }

  Status StartDocument() override;
  Status EndDocument() override;
  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override;
  Status EndElement(std::string_view tag) override;
  Status Characters(std::string_view text) override;

  const PruneStats& stats() const { return stats_; }

  // Arms the "prune.element" failpoint, checked per StartElement.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

 private:
  struct OpenElement {
    NameId name;
    ContentMatcher::MatchState state;
    bool kept;
  };

  const Dtd& dtd_;
  const NameSet& projector_;
  SaxHandler* downstream_;
  FaultInjector* fault_ = nullptr;
  std::vector<OpenElement> open_;
  std::vector<bool> required_seen_;  // CheckRequiredAttributes' scratch
  bool saw_root_ = false;
  PruneStats stats_;
};

// Convenience: validate-and-prune `xml_text` in one pass (fails on
// invalid input), producing the projected DOM.
Result<Document> ParseValidateAndPrune(std::string_view xml_text,
                                       const Dtd& dtd,
                                       const NameSet& projector,
                                       PruneStats* stats = nullptr);

// Convenience: parse-and-prune `xml_text` in one pass, producing the
// projected DOM without materializing the unprojected document.
Result<Document> ParseAndPrune(std::string_view xml_text, const Dtd& dtd,
                               const NameSet& projector,
                               PruneStats* stats = nullptr);

// Convenience: prune an in-memory document via the streaming pruner.
Result<Document> PruneViaStreaming(const Document& doc, const Dtd& dtd,
                                   const NameSet& projector,
                                   PruneStats* stats = nullptr);

}  // namespace xmlproj

#endif  // XMLPROJ_PROJECTION_PRUNER_H_
