#include "dtd/dtd.h"

#include <cassert>
#include <unordered_set>

#include "common/strings.h"

namespace xmlproj {

namespace {

// FNV-1a. The table is tiny (DTD name sets are static and small), so a
// simple byte-at-a-time hash beats anything fancier once inlined.
uint32_t HashTag(std::string_view tag) {
  uint32_t h = 2166136261u;
  for (char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

}  // namespace

NameId Dtd::NameOfTag(std::string_view tag) const {
  if (tag_table_.empty()) {
    // Pre-Finalize (builder internals) or default-constructed Dtd.
    auto it = name_of_tag_.find(std::string(tag));
    return it == name_of_tag_.end() ? kNoName : it->second;
  }
  uint32_t h = HashTag(tag);
  for (size_t i = h & tag_table_mask_;; i = (i + 1) & tag_table_mask_) {
    const TagSlot& slot = tag_table_[i];
    if (slot.id == kNoName) return kNoName;
    if (slot.hash == h && slot.tag == tag) return slot.id;
  }
}

NameSet Dtd::AllNames() const {
  NameSet all(name_count());
  for (NameId i = 0; i < static_cast<NameId>(name_count()); ++i) all.Add(i);
  return all;
}

NameSet Dtd::Children(const NameSet& set) const {
  NameSet out(name_count());
  set.ForEach([this, &out](NameId n) { out |= ChildrenOf(n); });
  return out;
}

NameSet Dtd::Parents(const NameSet& set) const {
  NameSet out(name_count());
  set.ForEach([this, &out](NameId n) { out |= ParentsOf(n); });
  return out;
}

NameSet Dtd::Descendants(const NameSet& set) const {
  NameSet out(name_count());
  set.ForEach([this, &out](NameId n) { out |= DescendantsOf(n); });
  return out;
}

NameSet Dtd::Ancestors(const NameSet& set) const {
  NameSet out(name_count());
  set.ForEach([this, &out](NameId n) { out |= AncestorsOf(n); });
  return out;
}

NameSet Dtd::NamesWithTag(std::string_view tag) const {
  NameSet out(name_count());
  NameId id = NameOfTag(tag);
  if (id != kNoName) out.Add(id);
  return out;
}

bool Dtd::IsStarGuarded() const {
  for (const Production& p : productions_) {
    if (!p.is_string && !p.content.IsStarGuarded()) return false;
  }
  return true;
}

bool Dtd::IsRecursive() const {
  for (NameId i = 0; i < static_cast<NameId>(name_count()); ++i) {
    if (descendant_[static_cast<size_t>(i)].Contains(i)) return true;
  }
  return false;
}

bool Dtd::IsParentUnambiguous() const {
  // Def 4.3(3) asks that no chain cYZ coexists with cYc'Z for c' != ε.
  // For any reachable Y this reduces to: Y must not have a name Z both as a
  // direct child and as a strict descendant of one of its children.
  for (NameId y = 0; y < static_cast<NameId>(name_count()); ++y) {
    if (!reachable_.Contains(y)) continue;
    if (productions_[static_cast<size_t>(y)].is_document) continue;
    const NameSet& direct = child_[static_cast<size_t>(y)];
    NameSet deeper(name_count());
    direct.ForEach([this, &deeper](NameId w) {
      deeper |= descendant_[static_cast<size_t>(w)];
    });
    if (direct.Intersects(deeper)) return false;
  }
  return true;
}

std::string Dtd::ToString() const {
  std::vector<std::string> names = NameStrings();
  std::string out;
  for (NameId i = 0; i < static_cast<NameId>(name_count()); ++i) {
    const Production& p = productions_[static_cast<size_t>(i)];
    out += p.name;
    if (i == root_) out += " (root)";
    out += " -> ";
    if (p.is_string) {
      out += "String";
    } else {
      out += p.tag;
      out += "[";
      out += p.content.ToString(names);
      out += "]";
    }
    out += "\n";
  }
  return out;
}

std::vector<std::string> Dtd::NameStrings() const {
  std::vector<std::string> out;
  out.reserve(productions_.size());
  for (const Production& p : productions_) out.push_back(p.name);
  return out;
}

Status Dtd::Finalize() {
  const size_t n = productions_.size();
  if (n > kMaxDtdNames) {
    return InvalidError(StringPrintf("DTD has %zu grammar names, more than %zu",
                                     n, kMaxDtdNames));
  }
  string_names_ = NameSet(n);
  child_.assign(n, NameSet(n));
  parent_.assign(n, NameSet(n));
  descendant_.assign(n, NameSet(n));
  ancestor_.assign(n, NameSet(n));
  matchers_.clear();
  matchers_.resize(n);

  NameSet element_names(n);
  for (NameId i = 0; i < static_cast<NameId>(n); ++i) {
    const Production& p = productions_[static_cast<size_t>(i)];
    if (p.is_string) {
      string_names_.Add(i);
    } else if (!p.is_document) {
      element_names.Add(i);
    }
  }

  ContentMatcher::Budget automaton_budget{kMaxDtdAutomatonEntries,
                                          kMaxDtdMergedStates};
  for (NameId i = 0; i < static_cast<NameId>(n); ++i) {
    Production& p = productions_[static_cast<size_t>(i)];
    if (p.is_string) continue;
    std::unordered_set<std::string_view> declared;
    for (const AttributeDecl& decl : p.attributes) {
      if (!declared.insert(decl.name).second || !decl.required) continue;
      p.required_index.emplace(
          decl.name, static_cast<uint32_t>(p.required_attributes.size()));
      p.required_attributes.push_back(decl.name);
    }
    // ANY content ranges over all element names plus this element's own
    // String name (text is allowed anywhere under ANY).
    NameSet any_names = element_names;
    if (string_name_of_[static_cast<size_t>(i)] != kNoName) {
      any_names.Add(string_name_of_[static_cast<size_t>(i)]);
    }
    child_[static_cast<size_t>(i)] =
        p.content.CollectNames(n, &any_names);
    matchers_[static_cast<size_t>(i)] =
        std::make_unique<ContentMatcher>(p.content, &automaton_budget);
    if (automaton_budget.entries == 0) {
      return InvalidError(StringPrintf(
          "content model of element '%s' takes the DTD's automata past "
          "%zu entries",
          p.name.c_str(), kMaxDtdAutomatonEntries));
    }
    if (automaton_budget.merged_states == 0) {
      return InvalidError(StringPrintf(
          "content model of element '%s' takes the DTD's automata past "
          "%zu merged states",
          p.name.c_str(), kMaxDtdMergedStates));
    }
  }

  for (NameId i = 0; i < static_cast<NameId>(n); ++i) {
    child_[static_cast<size_t>(i)].ForEach([this, i](NameId c) {
      parent_[static_cast<size_t>(c)].Add(i);
    });
  }

  // descendant_ = transitive closure of child_, computed by iterating to a
  // fixpoint (name counts are small; this is at worst O(n^2) set unions).
  for (NameId i = 0; i < static_cast<NameId>(n); ++i) {
    descendant_[static_cast<size_t>(i)] = child_[static_cast<size_t>(i)];
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (NameId i = 0; i < static_cast<NameId>(n); ++i) {
      NameSet next = descendant_[static_cast<size_t>(i)];
      descendant_[static_cast<size_t>(i)].ForEach([this, &next](NameId d) {
        next |= descendant_[static_cast<size_t>(d)];
      });
      if (!(next == descendant_[static_cast<size_t>(i)])) {
        descendant_[static_cast<size_t>(i)] = std::move(next);
        changed = true;
      }
    }
  }
  for (NameId i = 0; i < static_cast<NameId>(n); ++i) {
    descendant_[static_cast<size_t>(i)].ForEach([this, i](NameId d) {
      ancestor_[static_cast<size_t>(d)].Add(i);
    });
  }

  reachable_ = NameSet(n);
  if (root_ != kNoName) {
    reachable_.Add(root_);
    reachable_ |= descendant_[static_cast<size_t>(root_)];
  }

  // Intern the (now-frozen) tag set into the open-addressed lookup table
  // at <= 50% load, linear probing.
  size_t tagged = 0;
  for (const Production& p : productions_) {
    if (!p.tag.empty()) ++tagged;
  }
  size_t table_size = 4;
  while (table_size < tagged * 2) table_size *= 2;
  tag_table_.assign(table_size, TagSlot{});
  tag_table_mask_ = static_cast<uint32_t>(table_size - 1);
  for (NameId i = 0; i < static_cast<NameId>(n); ++i) {
    const Production& p = productions_[static_cast<size_t>(i)];
    if (p.tag.empty() || p.is_string) continue;
    uint32_t h = HashTag(p.tag);
    size_t slot = h & tag_table_mask_;
    while (tag_table_[slot].id != kNoName) {
      slot = (slot + 1) & tag_table_mask_;
    }
    tag_table_[slot] = TagSlot{h, i, p.tag};
  }
  return Status::Ok();
}

Result<NameId> DtdBuilder::DeclareElement(std::string_view tag) {
  NameId existing = FindElement(tag);
  if (existing != kNoName) {
    if (declared_[static_cast<size_t>(existing)]) {
      return InvalidError("duplicate declaration of element '" +
                          std::string(tag) + "'");
    }
    declared_[static_cast<size_t>(existing)] = true;
    return existing;
  }
  NameId id = static_cast<NameId>(dtd_.productions_.size());
  Production p;
  p.name = std::string(tag);
  p.tag = std::string(tag);
  dtd_.productions_.push_back(std::move(p));
  dtd_.string_name_of_.push_back(kNoName);
  dtd_.name_of_tag_.emplace(std::string(tag), id);
  declared_.push_back(true);
  return id;
}

NameId DtdBuilder::StringNameFor(NameId owner) {
  NameId existing = dtd_.string_name_of_[static_cast<size_t>(owner)];
  if (existing != kNoName) return existing;
  NameId id = static_cast<NameId>(dtd_.productions_.size());
  Production p;
  p.name = dtd_.productions_[static_cast<size_t>(owner)].tag + "#text";
  p.is_string = true;
  dtd_.productions_.push_back(std::move(p));
  dtd_.string_name_of_.push_back(kNoName);
  dtd_.string_name_of_[static_cast<size_t>(owner)] = id;
  declared_.push_back(true);
  return id;
}

ContentModel* DtdBuilder::MutableContent(NameId id) {
  return &dtd_.productions_[static_cast<size_t>(id)].content;
}

void DtdBuilder::AddAttribute(NameId id, AttributeDecl attribute) {
  dtd_.productions_[static_cast<size_t>(id)].attributes.push_back(
      std::move(attribute));
}

NameId DtdBuilder::FindElement(std::string_view tag) const {
  auto it = dtd_.name_of_tag_.find(std::string(tag));
  return it == dtd_.name_of_tag_.end() ? kNoName : it->second;
}

Result<NameId> DtdBuilder::DeclareOrFindElement(std::string_view tag) {
  NameId existing = FindElement(tag);
  if (existing != kNoName) return existing;
  NameId id = static_cast<NameId>(dtd_.productions_.size());
  Production p;
  p.name = std::string(tag);
  p.tag = std::string(tag);
  dtd_.productions_.push_back(std::move(p));
  dtd_.string_name_of_.push_back(kNoName);
  dtd_.name_of_tag_.emplace(std::string(tag), id);
  declared_.push_back(false);
  return id;
}

std::vector<std::string> DtdBuilder::UndeclaredTags() const {
  std::vector<std::string> out;
  for (size_t i = 0; i < declared_.size(); ++i) {
    if (!declared_[i] && !dtd_.productions_[i].is_string) {
      out.push_back(dtd_.productions_[i].tag);
    }
  }
  return out;
}

Result<Dtd> DtdBuilder::Build(std::string_view root_tag) {
  std::vector<std::string> undeclared = UndeclaredTags();
  if (!undeclared.empty()) {
    return InvalidError("content models reference undeclared elements: " +
                        Join(undeclared, ", "));
  }
  NameId root = FindElement(root_tag);
  if (root == kNoName) {
    return InvalidError("root element '" + std::string(root_tag) +
                        "' is not declared");
  }
  dtd_.root_ = root;
  // Synthetic document name: #document -> [X].
  {
    NameId doc_id = static_cast<NameId>(dtd_.productions_.size());
    Production p;
    p.name = "#document";
    p.is_document = true;
    p.content.set_root(p.content.Name(root));
    dtd_.productions_.push_back(std::move(p));
    dtd_.string_name_of_.push_back(kNoName);
    dtd_.document_name_ = doc_id;
  }
  XMLPROJ_RETURN_IF_ERROR(dtd_.Finalize());
  return std::move(dtd_);
}

}  // namespace xmlproj
