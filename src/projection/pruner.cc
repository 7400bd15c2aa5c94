#include "projection/pruner.h"

#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlproj {

Result<Document> PruneDocument(const Document& doc,
                               const Interpretation& interp,
                               const NameSet& projector, PruneStats* stats,
                               std::vector<NodeId>* new_to_old) {
  DocumentBuilder builder;
  PruneStats local;
  if (new_to_old != nullptr) {
    new_to_old->clear();
    new_to_old->push_back(doc.document_node());
  }
  const NodeId total = static_cast<NodeId>(doc.size());
  // Pre-order walk; skip over pruned subtrees using subtree_end, closing
  // elements as we pass their extent.
  std::vector<NodeId> end_stack;
  NodeId id = 1;
  while (id < total) {
    while (!end_stack.empty() && id >= end_stack.back()) {
      builder.EndElement();
      end_stack.pop_back();
    }
    const Node& n = doc.node(id);
    ++local.input_nodes;
    NameId name = interp[id];
    if (n.kind == NodeKind::kText) {
      local.input_text_bytes += doc.text(id).size();
      if (projector.Contains(name)) {
        builder.AddText(doc.text(id));
        if (new_to_old != nullptr) new_to_old->push_back(id);
        ++local.kept_nodes;
        local.kept_text_bytes += doc.text(id).size();
      }
      ++id;
      continue;
    }
    if (!projector.Contains(name)) {
      // Count the discarded subtree, then jump over it.
      for (NodeId j = id + 1; j < n.subtree_end; ++j) {
        ++local.input_nodes;
        if (doc.kind(j) == NodeKind::kText) {
          local.input_text_bytes += doc.text(j).size();
        }
      }
      id = n.subtree_end;
      continue;
    }
    ++local.kept_nodes;
    if (new_to_old != nullptr) new_to_old->push_back(id);
    builder.StartElement(doc.tag_name(id));
    for (uint32_t k = 0; k < doc.attr_count(id); ++k) {
      const Attribute& a = doc.attr(id, k);
      builder.AddAttribute(doc.symbols().NameOf(a.name), a.value);
    }
    end_stack.push_back(n.subtree_end);
    ++id;
  }
  while (!end_stack.empty()) {
    builder.EndElement();
    end_stack.pop_back();
  }
  if (stats != nullptr) *stats = local;
  return builder.Finish();
}

StreamingPruner::StreamingPruner(const Dtd& dtd, const NameSet& projector,
                                 SaxHandler* downstream)
    : dtd_(dtd),
      projector_(projector),
      downstream_(downstream),
      emptied_(dtd.name_count()) {
  // A name's DTD children include its text name (A_E's child axis).
  projector.ForEach([&](NameId name) {
    if (!dtd.IsStringName(name) &&
        !dtd.ChildrenOf(name).Intersects(projector)) {
      emptied_.Add(name);
    }
  });
}

Status StreamingPruner::StartDocument() {
  return downstream_->StartDocument();
}

Status StreamingPruner::EndDocument() {
  if (locator_ != nullptr) {
    stats_.input_nodes += locator_->skipped_elements();
    stats_.skipped_bytes += locator_->skipped_bytes();
  }
  return downstream_->EndDocument();
}

Status StreamingPruner::StartElement(
    std::string_view tag, const std::vector<SaxAttribute>& attributes) {
  XMLPROJ_RETURN_IF_ERROR(XMLPROJ_FAULT_HIT(fault_, "prune.element"));
  ++stats_.input_nodes;
  NameId name = dtd_.NameOfTag(tag);
  if (name == kNoName) {
    return InvalidError("undeclared element '" + std::string(tag) +
                        "' while pruning");
  }
  // A rejected element takes its whole subtree along (Def 2.7).
  if (!projector_.Contains(name)) return SkipSubtree();
  ++stats_.kept_nodes;
  // Nothing inside an emptied element survives: it closes at once, and
  // the producer crosses its content as it crosses a rejected element.
  if (emptied_.Contains(name)) {
    XMLPROJ_RETURN_IF_ERROR(downstream_->StartElement(tag, attributes));
    XMLPROJ_RETURN_IF_ERROR(downstream_->EndElement(tag));
    return SkipSubtree();
  }
  open_names_.push_back(name);
  return downstream_->StartElement(tag, attributes);
}

Status StreamingPruner::EndElement(std::string_view tag) {
  open_names_.pop_back();
  return downstream_->EndElement(tag);
}

Status StreamingPruner::Characters(std::string_view text) {
  ++stats_.input_nodes;
  stats_.input_text_bytes += text.size();
  if (open_names_.empty()) {
    return InvalidError("text content outside the root element");
  }
  NameId string_name = dtd_.StringNameOf(open_names_.back());
  if (string_name == kNoName || !projector_.Contains(string_name)) {
    return Status::Ok();
  }
  ++stats_.kept_nodes;
  stats_.kept_text_bytes += text.size();
  return downstream_->Characters(text);
}

ValidatingPruner::ValidatingPruner(const Dtd& dtd, const NameSet& projector,
                                   SaxHandler* downstream)
    : dtd_(dtd), projector_(projector), downstream_(downstream) {}

Status ValidatingPruner::StartDocument() {
  return downstream_->StartDocument();
}

Status ValidatingPruner::EndDocument() {
  if (!saw_root_) return InvalidError("document has no root element");
  return downstream_->EndDocument();
}

Status ValidatingPruner::StartElement(
    std::string_view tag, const std::vector<SaxAttribute>& attributes) {
  XMLPROJ_RETURN_IF_ERROR(XMLPROJ_FAULT_HIT(fault_, "prune.element"));
  ++stats_.input_nodes;
  NameId name = dtd_.NameOfTag(tag);
  if (name == kNoName) {
    return InvalidError("undeclared element '" + std::string(tag) + "'");
  }
  if (open_.empty()) {
    if (saw_root_) {
      return InvalidError("multiple root elements");
    }
    if (name != dtd_.root()) {
      return InvalidError("root element '" + std::string(tag) +
                          "' does not match DTD root '" +
                          dtd_.production(dtd_.root()).tag + "'");
    }
    saw_root_ = true;
  } else {
    // The child participates in the parent's content model whether or not
    // it survives projection: validation is of the *input*.
    OpenElement& parent = open_.back();
    parent.state = dtd_.MatcherOf(parent.name).Advance(parent.state, name);
    if (parent.state == ContentMatcher::kDead) {
      return InvalidError(
          "children of element '" + dtd_.production(parent.name).tag +
          "' do not match its content model (at child '" +
          std::string(tag) + "')");
    }
  }
  XMLPROJ_RETURN_IF_ERROR(
      CheckRequiredAttributes(dtd_, name, attributes, &required_seen_));

  bool kept = projector_.Contains(name) && (open_.empty() || open_.back().kept);
  open_.push_back(OpenElement{name, ContentMatcher::kStart, kept});
  if (kept) {
    ++stats_.kept_nodes;
    return downstream_->StartElement(tag, attributes);
  }
  return Status::Ok();
}

Status ValidatingPruner::EndElement(std::string_view tag) {
  OpenElement& top = open_.back();
  if (!dtd_.MatcherOf(top.name).Accepts(top.state)) {
    return InvalidError("children of element '" + std::string(tag) +
                        "' do not match its content model " +
                        dtd_.production(top.name)
                            .content.ToString(dtd_.NameStrings()));
  }
  bool kept = top.kept;
  open_.pop_back();
  if (kept) return downstream_->EndElement(tag);
  return Status::Ok();
}

Status ValidatingPruner::Characters(std::string_view text) {
  ++stats_.input_nodes;
  stats_.input_text_bytes += text.size();
  if (open_.empty()) {
    return InvalidError("text content outside the root element");
  }
  OpenElement& parent = open_.back();
  NameId string_name = dtd_.StringNameOf(parent.name);
  if (string_name == kNoName) {
    return InvalidError("text content not allowed inside element '" +
                        dtd_.production(parent.name).tag + "'");
  }
  parent.state = dtd_.MatcherOf(parent.name).Advance(parent.state, string_name);
  if (parent.state == ContentMatcher::kDead) {
    return InvalidError("text content violates the content model of '" +
                        dtd_.production(parent.name).tag + "'");
  }
  if (parent.kept && projector_.Contains(string_name)) {
    ++stats_.kept_nodes;
    stats_.kept_text_bytes += text.size();
    return downstream_->Characters(text);
  }
  return Status::Ok();
}

Result<Document> ParseValidateAndPrune(std::string_view xml_text,
                                       const Dtd& dtd,
                                       const NameSet& projector,
                                       PruneStats* stats) {
  DomBuilderHandler dom;
  ValidatingPruner pruner(dtd, projector, &dom);
  XMLPROJ_RETURN_IF_ERROR(ParseXmlStream(xml_text, &pruner));
  if (stats != nullptr) *stats = pruner.stats();
  return dom.TakeDocument();
}

Result<Document> ParseAndPrune(std::string_view xml_text, const Dtd& dtd,
                               const NameSet& projector, PruneStats* stats) {
  DomBuilderHandler dom;
  StreamingPruner pruner(dtd, projector, &dom);
  XMLPROJ_RETURN_IF_ERROR(ParseXmlStream(xml_text, &pruner));
  if (stats != nullptr) *stats = pruner.stats();
  return dom.TakeDocument();
}

Result<Document> PruneViaStreaming(const Document& doc, const Dtd& dtd,
                                   const NameSet& projector,
                                   PruneStats* stats) {
  DomBuilderHandler dom;
  StreamingPruner pruner(dtd, projector, &dom);
  XMLPROJ_RETURN_IF_ERROR(ReplayAsSax(doc, &pruner));
  if (stats != nullptr) *stats = pruner.stats();
  return dom.TakeDocument();
}

}  // namespace xmlproj
