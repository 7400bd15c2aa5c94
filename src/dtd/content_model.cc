#include "dtd/content_model.h"

#include <algorithm>
#include <map>

namespace xmlproj {

int32_t ContentModel::Add(RegexNode node) {
  nodes_.push_back(std::move(node));
  return static_cast<int32_t>(nodes_.size() - 1);
}

int32_t ContentModel::Epsilon() {
  RegexNode n;
  n.kind = RegexKind::kEpsilon;
  return Add(std::move(n));
}

int32_t ContentModel::Name(NameId name) {
  RegexNode n;
  n.kind = RegexKind::kName;
  n.name = name;
  return Add(std::move(n));
}

int32_t ContentModel::Seq(std::vector<int32_t> children) {
  RegexNode n;
  n.kind = RegexKind::kSeq;
  n.children = std::move(children);
  return Add(std::move(n));
}

int32_t ContentModel::Choice(std::vector<int32_t> children) {
  RegexNode n;
  n.kind = RegexKind::kChoice;
  n.children = std::move(children);
  return Add(std::move(n));
}

int32_t ContentModel::Star(int32_t child) {
  RegexNode n;
  n.kind = RegexKind::kStar;
  n.children = {child};
  return Add(std::move(n));
}

int32_t ContentModel::Plus(int32_t child) {
  RegexNode n;
  n.kind = RegexKind::kPlus;
  n.children = {child};
  return Add(std::move(n));
}

int32_t ContentModel::Opt(int32_t child) {
  RegexNode n;
  n.kind = RegexKind::kOpt;
  n.children = {child};
  return Add(std::move(n));
}

int32_t ContentModel::Any() {
  RegexNode n;
  n.kind = RegexKind::kAny;
  return Add(std::move(n));
}

NameSet ContentModel::CollectNames(size_t universe_size,
                                   const NameSet* any_names) const {
  NameSet out(universe_size);
  for (const RegexNode& n : nodes_) {
    if (n.kind == RegexKind::kName) {
      out.Add(n.name);
    } else if (n.kind == RegexKind::kAny && any_names != nullptr) {
      out |= *any_names;
    }
  }
  return out;
}

bool ContentModel::ContainsAny() const {
  for (const RegexNode& n : nodes_) {
    if (n.kind == RegexKind::kAny) return true;
  }
  return false;
}

namespace {

bool ContainsChoice(const ContentModel& model, int32_t index) {
  const RegexNode& n = model.node(index);
  if (n.kind == RegexKind::kChoice) return true;
  for (int32_t c : n.children) {
    if (ContainsChoice(model, c)) return true;
  }
  return false;
}

// A factor is *-guarded if it is starred (the union, if any, is under the
// star) or contains no union at all.
bool FactorIsStarGuarded(const ContentModel& model, int32_t index) {
  const RegexNode& n = model.node(index);
  if (n.kind == RegexKind::kStar || n.kind == RegexKind::kPlus) return true;
  return !ContainsChoice(model, index);
}

}  // namespace

bool ContentModel::IsStarGuarded() const {
  if (root_ < 0) return true;
  const RegexNode& top = node(root_);
  if (top.kind == RegexKind::kSeq) {
    return std::all_of(top.children.begin(), top.children.end(),
                       [this](int32_t c) {
                         return FactorIsStarGuarded(*this, c);
                       });
  }
  return FactorIsStarGuarded(*this, root_);
}

std::string ContentModel::ToString(
    const std::vector<std::string>& name_strings) const {
  if (root_ < 0) return "EMPTY";
  std::string out;
  // Local recursive lambda via explicit stack-free recursion helper.
  struct Printer {
    const ContentModel& model;
    const std::vector<std::string>& names;
    std::string* out;
    void Print(int32_t index) {
      const RegexNode& n = model.node(index);
      switch (n.kind) {
        case RegexKind::kEpsilon:
          out->append("()");
          break;
        case RegexKind::kAny:
          out->append("ANY");
          break;
        case RegexKind::kName:
          out->append(names[static_cast<size_t>(n.name)]);
          break;
        case RegexKind::kSeq:
        case RegexKind::kChoice: {
          const char* sep = n.kind == RegexKind::kSeq ? ", " : " | ";
          out->push_back('(');
          for (size_t i = 0; i < n.children.size(); ++i) {
            if (i > 0) out->append(sep);
            Print(n.children[i]);
          }
          out->push_back(')');
          break;
        }
        case RegexKind::kStar:
          Print(n.children[0]);
          out->push_back('*');
          break;
        case RegexKind::kPlus:
          Print(n.children[0]);
          out->push_back('+');
          break;
        case RegexKind::kOpt:
          Print(n.children[0]);
          out->push_back('?');
          break;
      }
    }
  };
  Printer{*this, name_strings, &out}.Print(root_);
  return out;
}

// Builds one automaton into a ContentMatcher: Glushkov's construction
// with state 0 as the start and one state per name occurrence, then the
// merge that makes it deterministic.
struct ContentMatcher::Builder {
  std::vector<std::vector<Edge>>& follow;
  std::vector<uint8_t>& accepting;
  Budget* budget;
  bool over_budget = false;

  void Run(const ContentModel& model) {
    follow.reserve(model.node_count() + 1);  // a state per name at most
    accepting.reserve(model.node_count() + 1);
    follow.emplace_back();
    accepting.push_back(1);  // EMPTY accepts only the empty sequence
    if (model.empty_model()) return;
    Sets r = Glushkov(model, model.root());
    if (Charge(r.first.size())) follow[kStart] = std::move(r.first);
    accepting[kStart] = r.nullable;
    for (MatchState p : r.last) accepting[static_cast<size_t>(p)] = 1;
    Determinize();
  }

  struct Sets {
    bool nullable = true;
    std::vector<Edge> first;
    std::vector<MatchState> last;
  };

  // Deducts `n` from `*left`; false, with `*left` zeroed, when that is
  // all that was left.
  bool Charge(size_t n, size_t* left) {
    over_budget = over_budget || n >= *left;
    *left = over_budget ? 0 : *left - n;
    return !over_budget;
  }
  bool Charge(size_t entries) {
    return budget == nullptr || Charge(entries, &budget->entries);
  }
  bool ChargeMergedState() {
    return budget == nullptr || Charge(1, &budget->merged_states);
  }

  // Every state in `from` may be followed by every edge in `to`.
  void Link(const std::vector<MatchState>& from,
            const std::vector<Edge>& to) {
    for (MatchState p : from) {
      if (!Charge(to.size())) return;
      std::vector<Edge>& f = follow[static_cast<size_t>(p)];
      f.insert(f.end(), to.begin(), to.end());
    }
  }

  Sets Glushkov(const ContentModel& model, int32_t index) {
    const RegexNode& n = model.node(index);
    Sets r;
    if (over_budget) return r;
    switch (n.kind) {
      case RegexKind::kEpsilon:
        break;
      case RegexKind::kName:
      case RegexKind::kAny: {
        MatchState pos = static_cast<MatchState>(follow.size());
        follow.emplace_back();
        accepting.push_back(0);
        bool any = n.kind == RegexKind::kAny;
        r.nullable = any;
        r.first = {Edge{any ? kNoName : n.name, pos}};
        r.last = {pos};
        if (any) Link(r.last, r.first);  // ANY repeats
        break;
      }
      case RegexKind::kSeq:
        for (int32_t c : n.children) {
          Sets cr = Glushkov(model, c);
          Link(r.last, cr.first);
          if (r.nullable) {
            r.first.insert(r.first.end(), cr.first.begin(), cr.first.end());
          }
          if (cr.nullable) {
            r.last.insert(r.last.end(), cr.last.begin(), cr.last.end());
          } else {
            r.last = std::move(cr.last);
          }
          r.nullable = r.nullable && cr.nullable;
        }
        break;
      case RegexKind::kChoice:
        r.nullable = false;
        for (int32_t c : n.children) {
          Sets cr = Glushkov(model, c);
          r.nullable = r.nullable || cr.nullable;
          r.first.insert(r.first.end(), cr.first.begin(), cr.first.end());
          r.last.insert(r.last.end(), cr.last.begin(), cr.last.end());
        }
        break;
      case RegexKind::kStar:
      case RegexKind::kPlus:
      case RegexKind::kOpt: {
        r = Glushkov(model, n.children[0]);
        if (n.kind != RegexKind::kOpt) Link(r.last, r.first);
        r.nullable = r.nullable || n.kind != RegexKind::kPlus;
        break;
      }
    }
    return r;
  }

  // Rewrites each follow list, in state order, so that no name occurs in
  // it twice: the states one name reaches become one merged state, whose
  // list is the union of theirs and which is accepting if any of them is.
  // An any-name edge (kNoName sorts first) joins every named group. A
  // merged state is interned by its set of Glushkov states, so merging a
  // merged state with its own members reuses it; the loop rewrites its
  // list in turn. A list that needs merging is rewritten from a copy, and
  // a merge reads its members' lists by index: adding a state grows
  // `follow`, and a member may be the list being rewritten.
  void Determinize() {
    const MatchState glushkov = static_cast<MatchState>(follow.size());
    std::map<std::vector<MatchState>, MatchState> merged;
    std::vector<std::vector<MatchState>> members;  // of state glushkov + i
    std::vector<Edge> list;
    std::vector<Edge> out;
    std::vector<MatchState> set;
    auto add_members = [&](MatchState s) {
      if (s < glushkov) {
        set.push_back(s);
      } else {
        const auto& m = members[static_cast<size_t>(s - glushkov)];
        set.insert(set.end(), m.begin(), m.end());
      }
    };
    auto same_name = [](const Edge& a, const Edge& b) {
      return a.name == b.name;
    };
    for (size_t s = 0; s < follow.size() && !over_budget; ++s) {
      std::vector<Edge>& edges = follow[s];
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      size_t any_end = 0;
      while (any_end < edges.size() && edges[any_end].name == kNoName) {
        ++any_end;
      }
      if ((any_end == 0 || edges.size() == 1) &&
          std::adjacent_find(edges.begin(), edges.end(), same_name) ==
              edges.end()) {
        continue;  // already deterministic
      }
      list = edges;
      out.clear();
      for (size_t i = 0, j = 0; i < list.size(); i = j) {
        while (j < list.size() && list[j].name == list[i].name) ++j;
        size_t with_any = i < any_end ? 0 : any_end;
        if (j - i + with_any == 1) {
          out.push_back(list[i]);
          continue;
        }
        set.clear();
        for (size_t k = i; k < j; ++k) add_members(list[k].to);
        for (size_t k = 0; k < with_any; ++k) add_members(list[k].to);
        std::sort(set.begin(), set.end());
        set.erase(std::unique(set.begin(), set.end()), set.end());
        auto [it, inserted] =
            merged.emplace(set, static_cast<MatchState>(follow.size()));
        if (inserted) {
          if (!ChargeMergedState()) return;
          members.push_back(set);
          follow.emplace_back();
          accepting.push_back(0);
          for (MatchState m : set) {
            const std::vector<Edge>& f = follow[static_cast<size_t>(m)];
            if (!Charge(f.size())) return;
            follow.back().insert(follow.back().end(), f.begin(), f.end());
            accepting.back() |= accepting[static_cast<size_t>(m)];
          }
        }
        out.push_back(Edge{list[i].name, it->second});
      }
      follow[s] = std::vector<Edge>(out);  // drops the merged-away capacity
    }
  }
};

ContentMatcher::ContentMatcher(const ContentModel& model, Budget* budget) {
  Builder{follow_, accepting_, budget}.Run(model);
}

ContentMatcher::MatchState ContentMatcher::Advance(MatchState state,
                                                   NameId child) const {
  if (state == kDead) return kDead;
  const std::vector<Edge>& edges = follow_[static_cast<size_t>(state)];
  auto it = std::lower_bound(
      edges.begin(), edges.end(), child,
      [](const Edge& e, NameId name) { return e.name < name; });
  if (it != edges.end() && it->name == child) return it->to;
  bool any = !edges.empty() && edges.front().name == kNoName;
  return any ? edges.front().to : kDead;
}

}  // namespace xmlproj
