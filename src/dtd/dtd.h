// Local tree grammars — the paper's DTDs (§2.2).
//
// A Dtd is a pair (X, E): a distinguished root name X and a set of edges
// X_i -> a_i[r_i] or X_i -> String. Because DTDs are *local* tree grammars,
// element tags determine names 1:1; additionally, following the §6
// implementation heuristic, every PCDATA occurrence gets its own String
// name unique to the enclosing element ("tag#text"), which sharpens text
// pruning (no cross-element conflicts on leaves).
//
// The class precomputes the axis relations used by the static analysis:
// child, parent, descendant (⇒E transitive closure, Def 2.5) and ancestor,
// all as per-name NameSets, plus the Def 4.3 structural properties
// (*-guarded / non-recursive / parent-unambiguous) that gate completeness.

#ifndef XMLPROJ_DTD_DTD_H_
#define XMLPROJ_DTD_DTD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dtd/content_model.h"
#include "dtd/name_set.h"

namespace xmlproj {

// Most follow-list entries the content-model automata of one DTD may make
// while they are built (ContentMatcher counts them). A DTD that needs
// more fails to load: at 8 bytes an entry the automata stay under 16 MB
// whatever the DTD text says. XMark's content models make 283.
inline constexpr size_t kMaxDtdAutomatonEntries = size_t{1} << 21;

// Most states the deterministic merge may add to the automata of one DTD
// (DESIGN.md "Content-model automata"). A deterministic content model
// adds none; a non-deterministic one can need exponentially many in its
// length, so this cap refuses it after a few milliseconds of work.
inline constexpr size_t kMaxDtdMergedStates = size_t{1} << 12;

// Most grammar names (element, text, document) one DTD may have: its four
// axis relations are dense bitsets, n^2/2 bytes, 8 MB at 4,096 names.
inline constexpr size_t kMaxDtdNames = size_t{1} << 12;

// Hash of a string-keyed map that is looked up by std::string_view.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

// Declared attribute (from ATTLIST). Only the pieces relevant to
// validation are kept.
struct AttributeDecl {
  std::string name;
  bool required = false;  // #REQUIRED
};

struct Production {
  // Display name of this grammar name: the element tag for element names,
  // "tag#text" for String names, "#document" for the document name.
  std::string name;
  // Element tag (a_i); empty for String and document names.
  std::string tag;
  bool is_string = false;
  // The synthetic document name (see Dtd::document_name()).
  bool is_document = false;
  ContentModel content;               // element and document names
  std::vector<AttributeDecl> attributes;  // element names only, as declared
  // The #REQUIRED attributes in declaration order, each listed once: an
  // attribute's first declaration binds and later ones are ignored (XML
  // 1.0 §3.3). Listed by Dtd::Finalize, which also fills required_index
  // with each name's position in the list.
  std::vector<std::string> required_attributes;
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      required_index;
};

class Dtd {
 public:
  // Use DtdBuilder or ParseDtd (dtd_parser.h) to construct instances.
  Dtd() = default;
  Dtd(const Dtd&) = delete;
  Dtd& operator=(const Dtd&) = delete;
  Dtd(Dtd&&) = default;
  Dtd& operator=(Dtd&&) = default;

  // --- Names ------------------------------------------------------------
  size_t name_count() const { return productions_.size(); }
  const Production& production(NameId id) const {
    return productions_[static_cast<size_t>(id)];
  }
  NameId root() const { return root_; }

  // Synthetic name generating the XPath document node, with content (X).
  // It lets the static analysis treat upward steps that climb above the
  // root element (and absolute paths, which start at the document node)
  // with the same rules as everything else. It is not part of DN(E)
  // proper: structural properties ignore it and inferred projectors never
  // report it (the document node is unconditionally kept by pruning).
  NameId document_name() const { return document_name_; }

  // Element name for a tag; kNoName if the tag is not declared.
  NameId NameOfTag(std::string_view tag) const;
  // String (text) child name of element `id`; kNoName if the element's
  // content has no PCDATA.
  NameId StringNameOf(NameId id) const {
    return string_name_of_[static_cast<size_t>(id)];
  }
  bool IsStringName(NameId id) const {
    return productions_[static_cast<size_t>(id)].is_string;
  }

  // Set of all names (DN(E)).
  NameSet AllNames() const;
  // Set of all String names.
  const NameSet& StringNames() const { return string_names_; }

  // --- Axis relations on names (A_E of Def 4.1) --------------------------
  const NameSet& ChildrenOf(NameId id) const {
    return child_[static_cast<size_t>(id)];
  }
  const NameSet& ParentsOf(NameId id) const {
    return parent_[static_cast<size_t>(id)];
  }
  const NameSet& DescendantsOf(NameId id) const {
    return descendant_[static_cast<size_t>(id)];
  }
  const NameSet& AncestorsOf(NameId id) const {
    return ancestor_[static_cast<size_t>(id)];
  }

  NameSet Children(const NameSet& set) const;
  NameSet Parents(const NameSet& set) const;
  NameSet Descendants(const NameSet& set) const;
  NameSet Ancestors(const NameSet& set) const;

  // T_E(τ, Test) building blocks: names carrying a given tag / text names.
  // Names(tag l) is a singleton or empty because the grammar is local.
  NameSet NamesWithTag(std::string_view tag) const;

  // --- Content matching ---------------------------------------------------
  const ContentMatcher& MatcherOf(NameId id) const {
    return *matchers_[static_cast<size_t>(id)];
  }

  // --- Structural properties (Def 4.3) -----------------------------------
  bool IsStarGuarded() const;
  bool IsRecursive() const;
  bool IsParentUnambiguous() const;

  // Names reachable from the root (names outside this set are dead).
  const NameSet& ReachableFromRoot() const { return reachable_; }

  // Diagnostic dump of all productions.
  std::string ToString() const;

  // Display names of all productions (aligned with NameIds); useful for
  // printing NameSets.
  std::vector<std::string> NameStrings() const;

 private:
  friend class DtdBuilder;

  // Called by DtdBuilder once all productions exist.
  Status Finalize();

  // Open-addressed tag -> NameId table built by Finalize over the static
  // name set, so the per-element lookup on the pruning hot path is one
  // hash plus (usually) one probe, with no allocation — unlike the
  // std::string-keyed map, which costs a temporary string per lookup.
  // Slot tags are views into productions_[*].tag; they stay valid when a
  // Dtd is moved because vector moves steal the buffer without moving
  // elements.
  struct TagSlot {
    uint32_t hash = 0;
    NameId id = kNoName;  // kNoName marks an empty slot
    std::string_view tag;
  };

  std::vector<Production> productions_;
  std::unordered_map<std::string, NameId> name_of_tag_;
  std::vector<TagSlot> tag_table_;
  uint32_t tag_table_mask_ = 0;
  std::vector<NameId> string_name_of_;
  NameId root_ = kNoName;
  NameId document_name_ = kNoName;

  NameSet string_names_;
  std::vector<NameSet> child_;
  std::vector<NameSet> parent_;
  std::vector<NameSet> descendant_;
  std::vector<NameSet> ancestor_;
  NameSet reachable_;
  std::vector<std::unique_ptr<ContentMatcher>> matchers_;
};

// Programmatic construction of a Dtd (used by the DTD parser and by tests
// that build grammars directly).
class DtdBuilder {
 public:
  DtdBuilder() = default;

  // Declares an element name; content is configured afterwards. Returns an
  // error on duplicate tags (condition 3 of the local-grammar definition).
  Result<NameId> DeclareElement(std::string_view tag);

  // Returns (declaring if needed) the String name for PCDATA inside `owner`.
  NameId StringNameFor(NameId owner);

  // Access to the element's content model for construction.
  ContentModel* MutableContent(NameId id);

  void AddAttribute(NameId id, AttributeDecl attribute);

  // Looks up an already-declared element by tag, kNoName if absent.
  NameId FindElement(std::string_view tag) const;

  // Declares-or-finds: used when a content model references a tag that is
  // declared later in the DTD text.
  Result<NameId> DeclareOrFindElement(std::string_view tag);

  // Tags referenced but never declared via DeclareElement.
  std::vector<std::string> UndeclaredTags() const;

  // Fixes the root and finishes: computes relations, compiles matchers.
  Result<Dtd> Build(std::string_view root_tag);

 private:
  Dtd dtd_;
  std::vector<bool> declared_;  // per element name: explicitly declared?
};

}  // namespace xmlproj

#endif  // XMLPROJ_DTD_DTD_H_
