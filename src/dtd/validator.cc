#include "dtd/validator.h"

#include <string>

#include "common/strings.h"

namespace xmlproj {
namespace {

// CheckRequiredAttributes over a start tag whose attribute k < `count` is
// named `name_at(k)`.
template <typename NameAt>
Status CheckRequired(const Dtd& dtd, NameId name, size_t count,
                     NameAt name_at, std::vector<bool>* seen) {
  const Production& p = dtd.production(name);
  const std::vector<std::string>& required = p.required_attributes;
  if (required.empty()) return Status::Ok();
  // One mark per required attribute, since a tag may repeat a name.
  seen->assign(required.size(), false);
  size_t present = 0;
  for (size_t k = 0; k < count; ++k) {
    auto it = p.required_index.find(name_at(k));
    if (it == p.required_index.end() || (*seen)[it->second]) continue;
    (*seen)[it->second] = true;
    ++present;
  }
  if (present == required.size()) return Status::Ok();
  size_t missing = 0;
  while ((*seen)[missing]) ++missing;
  return InvalidError("element '" + p.tag +
                      "' is missing required attribute '" +
                      required[missing] + "'");
}

}  // namespace

Status CheckRequiredAttributes(const Dtd& dtd, NameId name,
                               std::span<const SaxAttribute> attributes,
                               std::vector<bool>* seen) {
  return CheckRequired(
      dtd, name, attributes.size(),
      [attributes](size_t k) { return attributes[k].name; }, seen);
}

Result<Interpretation> Interpret(const Document& doc, const Dtd& dtd) {
  Interpretation interp;
  interp.name_of_node.assign(doc.size(), kNoName);
  interp.name_of_node[doc.document_node()] = dtd.document_name();

  // Tag symbol -> name id, resolved once per distinct tag.
  std::vector<NameId> name_of_tag(doc.symbols().size(), kNoName);
  std::vector<bool> tag_resolved(doc.symbols().size(), false);

  NodeId root = doc.root();
  if (root == kNullNode) return InvalidError("document has no root element");

  const NodeId total = static_cast<NodeId>(doc.size());
  for (NodeId id = 1; id < total; ++id) {
    const Node& n = doc.node(id);
    if (n.kind == NodeKind::kText) {
      NameId parent_name = interp.name_of_node[n.parent];
      if (parent_name == kNoName) {
        return InvalidError("text node at top level");
      }
      NameId string_name = dtd.StringNameOf(parent_name);
      if (string_name == kNoName) {
        return InvalidError(
            "text content not allowed inside element '" +
            dtd.production(parent_name).tag + "'");
      }
      interp.name_of_node[id] = string_name;
      continue;
    }
    if (n.kind != NodeKind::kElement) continue;
    TagId tag = n.tag;
    if (!tag_resolved[static_cast<size_t>(tag)]) {
      name_of_tag[static_cast<size_t>(tag)] =
          dtd.NameOfTag(doc.symbols().NameOf(tag));
      tag_resolved[static_cast<size_t>(tag)] = true;
    }
    NameId name = name_of_tag[static_cast<size_t>(tag)];
    if (name == kNoName) {
      return InvalidError("undeclared element '" + doc.tag_name(id) + "'");
    }
    interp.name_of_node[id] = name;
  }

  if (interp.name_of_node[root] != dtd.root()) {
    return InvalidError("root element '" + doc.tag_name(root) +
                        "' does not match DTD root '" +
                        dtd.production(dtd.root()).tag + "'");
  }

  return interp;
}

Result<Interpretation> Validate(const Document& doc, const Dtd& dtd) {
  Result<Interpretation> interp = Interpret(doc, dtd);
  if (!interp.ok()) return interp;
  const NodeId total = static_cast<NodeId>(doc.size());
  std::vector<bool> seen;
  for (NodeId id = 1; id < total; ++id) {
    const Node& n = doc.node(id);
    if (n.kind != NodeKind::kElement) continue;
    NameId name = (*interp)[id];
    const Production& production = dtd.production(name);
    XMLPROJ_RETURN_IF_ERROR(CheckRequired(
        dtd, name, doc.attr_count(id),
        [&doc, id](size_t k) {
          const TagId attribute = doc.attr(id, static_cast<uint32_t>(k)).name;
          return std::string_view(doc.symbols().NameOf(attribute));
        },
        &seen));
    const ContentMatcher& matcher = dtd.MatcherOf(name);
    ContentMatcher::MatchState state = ContentMatcher::kStart;
    for (NodeId c = n.first_child; c != kNullNode;
         c = doc.node(c).next_sibling) {
      state = matcher.Advance(state, (*interp)[c]);
    }
    if (!matcher.Accepts(state)) {
      return InvalidError(StringPrintf(
          "children of element '%s' (node %u) do not match its content "
          "model %s",
          doc.tag_name(id).c_str(), id,
          production.content.ToString(dtd.NameStrings()).c_str()));
    }
  }
  return interp;
}

}  // namespace xmlproj
