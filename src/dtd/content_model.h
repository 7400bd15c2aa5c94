// Content models: regular expressions over DTD names (paper §2.2).
//
// Each production X -> a[r] carries one ContentModel describing r. The
// model is an arena of RegexNode records; matching of a child-name sequence
// uses a deterministic automaton compiled once per production.

#ifndef XMLPROJ_DTD_CONTENT_MODEL_H_
#define XMLPROJ_DTD_CONTENT_MODEL_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dtd/name_set.h"

namespace xmlproj {

enum class RegexKind : uint8_t {
  kEpsilon,  // empty sequence (EMPTY content)
  kName,     // one name occurrence
  kSeq,      // r1, r2, ..., rn
  kChoice,   // r1 | r2 | ... | rn
  kStar,     // r*
  kPlus,     // r+
  kOpt,      // r?
  kAny,      // ANY content: any sequence over the whole DTD
};

struct RegexNode {
  RegexKind kind = RegexKind::kEpsilon;
  NameId name = kNoName;           // kName only
  std::vector<int32_t> children;   // node indices within the ContentModel
};

class ContentModel {
 public:
  ContentModel() = default;

  // --- Construction (returns node index) -------------------------------
  int32_t Epsilon();
  int32_t Name(NameId name);
  int32_t Seq(std::vector<int32_t> children);
  int32_t Choice(std::vector<int32_t> children);
  int32_t Star(int32_t child);
  int32_t Plus(int32_t child);
  int32_t Opt(int32_t child);
  int32_t Any();

  void set_root(int32_t root) { root_ = root; }
  int32_t root() const { return root_; }
  bool empty_model() const { return root_ < 0; }

  const RegexNode& node(int32_t index) const {
    return nodes_[static_cast<size_t>(index)];
  }
  size_t node_count() const { return nodes_.size(); }

  // All names occurring in the model — Names(r) in the paper. For kAny this
  // must be supplied by the caller (the whole DTD); pass universe_size and
  // the full set via `any_names`.
  NameSet CollectNames(size_t universe_size, const NameSet* any_names) const;

  // True if r contains a kAny node.
  bool ContainsAny() const;

  // *-guardedness of this model (Def 4.3(1)): the model is a product of
  // factors, and every factor containing a union is starred (* or +).
  bool IsStarGuarded() const;

  // Human-readable form, e.g. "(a, (b | c)*, d?)". For diagnostics.
  std::string ToString(
      const std::vector<std::string>& name_strings) const;

 private:
  int32_t Add(RegexNode node);

  std::vector<RegexNode> nodes_;
  int32_t root_ = -1;
};

// Deterministic automaton for one content model; answers "does this
// sequence of child names match r?" one child at a time. Built once per
// production: Glushkov's position automaton, with the positions one
// state can reach on the same name merged into one state (DESIGN.md
// "Content-model automata").
class ContentMatcher {
 public:
  // State after a prefix of a child sequence: one int however many
  // children were fed, which lets validation run in the bufferless pass
  // that prunes (§6). kDead means no continuation can match.
  using MatchState = int32_t;
  static constexpr MatchState kStart = 0;
  static constexpr MatchState kDead = -1;

  // What the builds of one DTD's automata may still make; each build
  // deducts what it makes.
  struct Budget {
    size_t entries;        // follow-list entries
    size_t merged_states;  // states the deterministic merge adds
  };
  // With a `budget`, a model that needs all that is left of either field
  // stops the build and sets that field to 0, leaving a matcher that must
  // not be used.
  explicit ContentMatcher(const ContentModel& model,
                          Budget* budget = nullptr);

  // Consumes one child name.
  MatchState Advance(MatchState state, NameId child) const;
  // True if the sequence consumed so far is a complete match.
  bool Accepts(MatchState state) const {
    return state != kDead && accepting_[static_cast<size_t>(state)] != 0;
  }
  bool Matches(std::span<const NameId> children) const {
    MatchState state = kStart;
    for (NameId child : children) state = Advance(state, child);
    return Accepts(state);
  }

 private:
  struct Edge {
    NameId name;  // kNoName means "any name" (from kAny)
    MatchState to;
    auto operator<=>(const Edge&) const = default;
  };
  struct Builder;

  // follow_[s]: the edges out of state s, sorted by name, one per name;
  // an any-name edge sorts first.
  std::vector<std::vector<Edge>> follow_;
  std::vector<uint8_t> accepting_;
};

}  // namespace xmlproj

#endif  // XMLPROJ_DTD_CONTENT_MODEL_H_
