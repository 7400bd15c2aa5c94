#include "xml/serializer.h"

#include <cassert>

namespace xmlproj {

void AppendEscaped(std::string_view text, bool for_attribute,
                   std::string* out) {
  for (char c : text) {
    switch (c) {
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      case '&':
        out->append("&amp;");
        break;
      case '"':
        if (for_attribute) {
          out->append("&quot;");
        } else {
          out->push_back(c);
        }
        break;
      default:
        out->push_back(c);
    }
  }
}

void XmlWriter::CloseStartTagIfOpen() {
  if (start_tag_open_) {
    out_->push_back('>');
    start_tag_open_ = false;
  }
}

void XmlWriter::StartElement(std::string_view tag) {
  CloseStartTagIfOpen();
  out_->push_back('<');
  out_->append(tag);
  open_tags_.emplace_back(tag);
  start_tag_open_ = true;
}

void XmlWriter::Attribute(std::string_view name, std::string_view value) {
  assert(start_tag_open_);
  out_->push_back(' ');
  out_->append(name);
  out_->append("=\"");
  AppendEscaped(value, /*for_attribute=*/true, out_);
  out_->push_back('"');
}

void XmlWriter::Text(std::string_view text) {
  CloseStartTagIfOpen();
  AppendEscaped(text, /*for_attribute=*/false, out_);
}

void XmlWriter::EndElement() {
  assert(!open_tags_.empty());
  if (start_tag_open_) {
    out_->append("/>");
    start_tag_open_ = false;
  } else {
    out_->append("</");
    out_->append(open_tags_.back());
    out_->push_back('>');
  }
  open_tags_.pop_back();
}

namespace {

void SerializeNode(const Document& doc, NodeId id, XmlWriter* writer) {
  const Node& n = doc.node(id);
  switch (n.kind) {
    case NodeKind::kDocument:
      for (NodeId c = n.first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        SerializeNode(doc, c, writer);
      }
      break;
    case NodeKind::kText:
      writer->Text(doc.text(id));
      break;
    case NodeKind::kElement: {
      writer->StartElement(doc.tag_name(id));
      for (uint32_t k = 0; k < doc.attr_count(id); ++k) {
        const Attribute& a = doc.attr(id, k);
        writer->Attribute(doc.symbols().NameOf(a.name), a.value);
      }
      for (NodeId c = n.first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        SerializeNode(doc, c, writer);
      }
      writer->EndElement();
      break;
    }
  }
}

}  // namespace

std::string SerializeDocument(const Document& doc) {
  std::string out;
  XmlWriter writer(&out);
  SerializeNode(doc, doc.document_node(), &writer);
  return out;
}

std::string SerializeSubtree(const Document& doc, NodeId id) {
  std::string out;
  XmlWriter writer(&out);
  SerializeNode(doc, id, &writer);
  return out;
}

Status ReplayAsSax(const Document& doc, SaxHandler* handler) {
  XMLPROJ_RETURN_IF_ERROR(handler->StartDocument());
  if (!doc.doctype_name().empty()) {
    XMLPROJ_RETURN_IF_ERROR(handler->Doctype(
        doc.doctype_name(), doc.doctype_internal_subset()));
  }
  // Iterative pre-order traversal emitting start/end events; recursion
  // would overflow the stack on deep documents.
  std::vector<NodeId> end_stack;
  std::vector<std::string_view> tag_stack;
  NodeId total = static_cast<NodeId>(doc.size());
  std::vector<SaxAttribute> attributes;
  for (NodeId id = 1; id < total; ++id) {
    while (!end_stack.empty() && id >= end_stack.back()) {
      XMLPROJ_RETURN_IF_ERROR(handler->EndElement(tag_stack.back()));
      end_stack.pop_back();
      tag_stack.pop_back();
    }
    const Node& n = doc.node(id);
    if (n.kind == NodeKind::kText) {
      XMLPROJ_RETURN_IF_ERROR(handler->Characters(doc.text(id)));
    } else {
      attributes.clear();
      for (uint32_t k = 0; k < doc.attr_count(id); ++k) {
        const Attribute& a = doc.attr(id, k);
        attributes.push_back(
            SaxAttribute{doc.symbols().NameOf(a.name), a.value});
      }
      Status verdict = handler->StartElement(doc.tag_name(id), attributes);
      if (verdict.code() == StatusCode::kSkipSubtree) {
        // Skipped: jump past its descendants; no EndElement follows.
        id = n.subtree_end - 1;
        continue;
      }
      XMLPROJ_RETURN_IF_ERROR(verdict);
      end_stack.push_back(n.subtree_end);
      tag_stack.push_back(doc.tag_name(id));
    }
  }
  while (!end_stack.empty()) {
    XMLPROJ_RETURN_IF_ERROR(handler->EndElement(tag_stack.back()));
    end_stack.pop_back();
    tag_stack.pop_back();
  }
  return handler->EndDocument();
}

}  // namespace xmlproj
