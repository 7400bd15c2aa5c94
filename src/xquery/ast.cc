#include "xquery/ast.h"

namespace xmlproj {

XQueryPtr MakeEmptyQuery() {
  auto q = std::make_unique<XQueryExpr>();
  q->kind = XQueryKind::kEmpty;
  return q;
}

XQueryPtr MakeScalarQuery(ExprPtr expr) {
  auto q = std::make_unique<XQueryExpr>();
  q->kind = XQueryKind::kScalar;
  q->scalar = std::move(expr);
  return q;
}

std::string ToString(const XQueryExpr& q) {
  switch (q.kind) {
    case XQueryKind::kEmpty:
      return "()";
    case XQueryKind::kSequence: {
      std::string out = "(";
      for (size_t i = 0; i < q.items.size(); ++i) {
        if (i > 0) out += ", ";
        out += ToString(*q.items[i]);
      }
      out += ")";
      return out;
    }
    case XQueryKind::kElement: {
      std::string out = "<" + q.tag;
      for (const ConstructedAttr& a : q.attributes) {
        out += " " + a.name + "=\"";
        for (const AttrValuePart& part : a.parts) {
          if (part.expr != nullptr) {
            out += "{";
            out += ToString(*part.expr);
            out += "}";
          } else {
            out += part.text;
          }
        }
        out += "\"";
      }
      if (q.content == nullptr) return out + "/>";
      out += ">{" + ToString(*q.content) + "}</" + q.tag + ">";
      return out;
    }
    case XQueryKind::kText:
      return "'" + q.text + "'";
    case XQueryKind::kFor: {
      std::string out =
          "for $" + q.variable + " in " + ToString(*q.binding);
      if (q.where != nullptr) out += " where " + ToString(*q.where);
      if (q.order_key != nullptr) {
        out += " order by " + ToString(*q.order_key);
        if (q.order_descending) out += " descending";
      }
      out += " return " + ToString(*q.body);
      return out;
    }
    case XQueryKind::kLet:
      return "let $" + q.variable + " := " + ToString(*q.binding) +
             " return " + ToString(*q.body);
    case XQueryKind::kIf: {
      std::string out = "if (" + ToString(*q.condition) + ") then " +
                        ToString(*q.then_branch) + " else ";
      out += q.else_branch != nullptr ? ToString(*q.else_branch) : "()";
      return out;
    }
    case XQueryKind::kScalar:
      return ToString(*q.scalar);
    case XQueryKind::kSome:
    case XQueryKind::kEvery:
      return std::string(q.kind == XQueryKind::kSome ? "some" : "every") +
             " $" + q.variable + " in " + ToString(*q.binding) +
             " satisfies " + ToString(*q.body);
  }
  return "?";
}

}  // namespace xmlproj
