#include "xpath/ast.h"

#include "common/strings.h"

namespace xmlproj {

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kSelf:
      return "self";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kAttribute:
      return "attribute";
  }
  return "?";
}

bool IsUpwardAxis(Axis axis) {
  return axis == Axis::kParent || axis == Axis::kAncestor ||
         axis == Axis::kAncestorOrSelf;
}

bool IsDownwardAxis(Axis axis) {
  return axis == Axis::kChild || axis == Axis::kDescendant ||
         axis == Axis::kDescendantOrSelf;
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr:
      return "or";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "div";
    case BinaryOp::kMod:
      return "mod";
    case BinaryOp::kUnion:
      return "|";
  }
  return "?";
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr MakePath(LocationPath path) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kPath;
  e->path = std::move(path);
  return e;
}

ExprPtr MakeLiteral(std::string value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(value);
  return e;
}

ExprPtr MakeNumber(double value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNumber;
  e->number = value;
  return e;
}

ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->function = std::move(name);
  e->args = std::move(args);
  return e;
}

LocationPath ClonePath(const LocationPath& path) {
  LocationPath out;
  out.start = path.start;
  out.variable = path.variable;
  out.steps.reserve(path.steps.size());
  for (const Step& s : path.steps) {
    Step copy;
    copy.axis = s.axis;
    copy.test = s.test;
    for (const ExprPtr& p : s.predicates) {
      copy.predicates.push_back(CloneExpr(*p));
    }
    out.steps.push_back(std::move(copy));
  }
  return out;
}

ExprPtr CloneExpr(const Expr& expr) {
  auto e = std::make_unique<Expr>();
  e->kind = expr.kind;
  e->op = expr.op;
  e->function = expr.function;
  e->literal = expr.literal;
  e->number = expr.number;
  e->path = ClonePath(expr.path);
  for (const ExprPtr& a : expr.args) e->args.push_back(CloneExpr(*a));
  return e;
}

namespace {

void AppendTest(const NodeTest& test, std::string* out) {
  switch (test.kind) {
    case TestKind::kName:
      out->append(test.name);
      break;
    case TestKind::kAnyElement:
      out->append("*");
      break;
    case TestKind::kNode:
      out->append("node()");
      break;
    case TestKind::kText:
      out->append("text()");
      break;
  }
}

}  // namespace

std::string ToString(const LocationPath& path) {
  std::string out;
  if (path.start == PathStart::kRoot) {
    out.append("/");
  } else if (path.start == PathStart::kVariable) {
    out.append("$");
    out.append(path.variable);
    if (!path.steps.empty()) out.append("/");
  }
  for (size_t i = 0; i < path.steps.size(); ++i) {
    if (i > 0) out.append("/");
    const Step& s = path.steps[i];
    out.append(AxisName(s.axis));
    out.append("::");
    AppendTest(s.test, &out);
    for (const ExprPtr& p : s.predicates) {
      out.append("[");
      out.append(ToString(*p));
      out.append("]");
    }
  }
  if (path.steps.empty() && path.start == PathStart::kContext) {
    out.append(".");
  }
  return out;
}

std::string ToString(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kBinary: {
      std::string out = "(";
      out += ToString(*expr.args[0]);
      out += " ";
      out += BinaryOpName(expr.op);
      out += " ";
      out += ToString(*expr.args[1]);
      out += ")";
      return out;
    }
    case ExprKind::kNegate: {
      std::string out = "-";
      out += ToString(*expr.args[0]);
      return out;
    }
    case ExprKind::kPath:
      return ToString(expr.path);
    case ExprKind::kFunction: {
      std::string out = expr.function;
      out += "(";
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += ToString(*expr.args[i]);
      }
      out += ")";
      return out;
    }
    case ExprKind::kLiteral:
      return "'" + expr.literal + "'";
    case ExprKind::kNumber:
      return StringPrintf("%g", expr.number);
  }
  return "?";
}

}  // namespace xmlproj
