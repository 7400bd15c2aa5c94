#include "xpath/parser.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/nesting.h"
#include "common/strings.h"

namespace xmlproj {
namespace {

enum class TokKind : uint8_t {
  kEnd,
  kName,      // NCName (possibly an operator keyword; disambiguated later)
  kNumber,
  kLiteral,   // quoted string
  kVariable,  // $name
  kSlash,
  kDoubleSlash,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kDot,
  kDotDot,
  kAt,
  kComma,
  kColonColon,
  kPipe,
  kPlus,
  kMinus,
  kStar,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  double number = 0;
  size_t offset = 0;
};

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
         static_cast<unsigned char>(c) >= 0x80;
}
bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  auto push = [&tokens](TokKind kind, std::string tok_text, size_t offset) {
    Token t;
    t.kind = kind;
    t.text = std::move(tok_text);
    t.offset = offset;
    tokens.push_back(std::move(t));
  };
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    switch (c) {
      case '/':
        if (i + 1 < text.size() && text[i + 1] == '/') {
          push(TokKind::kDoubleSlash, "//", start);
          i += 2;
        } else {
          push(TokKind::kSlash, "/", start);
          ++i;
        }
        continue;
      case '(':
        push(TokKind::kLParen, "(", start);
        ++i;
        continue;
      case ')':
        push(TokKind::kRParen, ")", start);
        ++i;
        continue;
      case '[':
        push(TokKind::kLBracket, "[", start);
        ++i;
        continue;
      case ']':
        push(TokKind::kRBracket, "]", start);
        ++i;
        continue;
      case '@':
        push(TokKind::kAt, "@", start);
        ++i;
        continue;
      case ',':
        push(TokKind::kComma, ",", start);
        ++i;
        continue;
      case '|':
        push(TokKind::kPipe, "|", start);
        ++i;
        continue;
      case '+':
        push(TokKind::kPlus, "+", start);
        ++i;
        continue;
      case '-':
        push(TokKind::kMinus, "-", start);
        ++i;
        continue;
      case '*':
        push(TokKind::kStar, "*", start);
        ++i;
        continue;
      case '=':
        push(TokKind::kEq, "=", start);
        ++i;
        continue;
      case '!':
        if (i + 1 < text.size() && text[i + 1] == '=') {
          push(TokKind::kNe, "!=", start);
          i += 2;
          continue;
        }
        return ParseError("XPath: '!' without '='");
      case '<':
        if (i + 1 < text.size() && text[i + 1] == '=') {
          push(TokKind::kLe, "<=", start);
          i += 2;
        } else {
          push(TokKind::kLt, "<", start);
          ++i;
        }
        continue;
      case '>':
        if (i + 1 < text.size() && text[i + 1] == '=') {
          push(TokKind::kGe, ">=", start);
          i += 2;
        } else {
          push(TokKind::kGt, ">", start);
          ++i;
        }
        continue;
      case ':':
        if (i + 1 < text.size() && text[i + 1] == ':') {
          push(TokKind::kColonColon, "::", start);
          i += 2;
          continue;
        }
        return ParseError("XPath: single ':' outside an axis specifier");
      case '.':
        if (i + 1 < text.size() && text[i + 1] == '.') {
          push(TokKind::kDotDot, "..", start);
          i += 2;
          continue;
        }
        if (i + 1 < text.size() &&
            std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
          break;  // fall through to number scanning
        }
        push(TokKind::kDot, ".", start);
        ++i;
        continue;
      case '\'':
      case '"': {
        size_t end = text.find(c, i + 1);
        if (end == std::string_view::npos) {
          return ParseError("XPath: unterminated string literal");
        }
        Token t;
        t.kind = TokKind::kLiteral;
        t.text = std::string(text.substr(i + 1, end - i - 1));
        t.offset = start;
        tokens.push_back(std::move(t));
        i = end + 1;
        continue;
      }
      case '$': {
        ++i;
        size_t name_start = i;
        while (i < text.size() && IsNameChar(text[i])) ++i;
        if (i == name_start) {
          return ParseError("XPath: '$' must be followed by a name");
        }
        Token t;
        t.kind = TokKind::kVariable;
        t.text = std::string(text.substr(name_start, i - name_start));
        t.offset = start;
        tokens.push_back(std::move(t));
        continue;
      }
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      size_t end = i;
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) ||
              text[end] == '.')) {
        ++end;
      }
      Token t;
      t.kind = TokKind::kNumber;
      t.text = std::string(text.substr(i, end - i));
      t.number = std::strtod(t.text.c_str(), nullptr);
      t.offset = start;
      tokens.push_back(std::move(t));
      i = end;
      continue;
    }
    if (IsNameStart(c)) {
      size_t end = i;
      while (end < text.size() && IsNameChar(text[end])) ++end;
      Token t;
      t.kind = TokKind::kName;
      t.text = std::string(text.substr(i, end - i));
      t.offset = start;
      tokens.push_back(std::move(t));
      i = end;
      continue;
    }
    return ParseError(StringPrintf("XPath: unexpected character '%c'", c));
  }
  Token end_tok;
  end_tok.kind = TokKind::kEnd;
  end_tok.offset = text.size();
  tokens.push_back(std::move(end_tok));
  return tokens;
}

// Axis keyword table.
bool LookupAxis(std::string_view name, Axis* axis) {
  struct Entry {
    const char* name;
    Axis axis;
  };
  static constexpr Entry kAxes[] = {
      {"child", Axis::kChild},
      {"descendant", Axis::kDescendant},
      {"parent", Axis::kParent},
      {"ancestor", Axis::kAncestor},
      {"self", Axis::kSelf},
      {"descendant-or-self", Axis::kDescendantOrSelf},
      {"ancestor-or-self", Axis::kAncestorOrSelf},
      {"following", Axis::kFollowing},
      {"preceding", Axis::kPreceding},
      {"following-sibling", Axis::kFollowingSibling},
      {"preceding-sibling", Axis::kPrecedingSibling},
      {"attribute", Axis::kAttribute},
  };
  for (const Entry& e : kAxes) {
    if (name == e.name) {
      *axis = e.axis;
      return true;
    }
  }
  return false;
}

class XPathParser {
 public:
  explicit XPathParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<ExprPtr> ParseFullExpr() {
    XMLPROJ_ASSIGN_OR_RETURN(ExprPtr e, ParseOr());
    if (Peek().kind != TokKind::kEnd) {
      return Error("trailing tokens after expression");
    }
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Eat(TokKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool EatKeyword(std::string_view word) {
    if (Peek().kind == TokKind::kName && Peek().text == word) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Error(const std::string& message) const {
    return ParseError(StringPrintf("XPath at offset %zu: %s",
                                   Peek().offset, message.c_str()));
  }
  // Every parenthesis, predicate, function argument, unary minus and
  // binary operator deepens the expression tree by one level.
  Status TooDeep() const {
    return Error(StringPrintf("expression nests deeper than %d levels",
                              kMaxParseDepth));
  }

  Result<ExprPtr> ParseOr() {
    NestingGuard nesting(&depth_);
    if (!nesting.Enter()) return TooDeep();
    XMLPROJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (EatKeyword("or")) {
      if (!nesting.Enter()) return TooDeep();
      XMLPROJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    NestingGuard nesting(&depth_);
    XMLPROJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseEquality());
    while (EatKeyword("and")) {
      if (!nesting.Enter()) return TooDeep();
      XMLPROJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseEquality());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseEquality() {
    NestingGuard nesting(&depth_);
    XMLPROJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRelational());
    while (true) {
      BinaryOp op;
      if (Eat(TokKind::kEq) || EatKeyword("eq")) {
        op = BinaryOp::kEq;
      } else if (Eat(TokKind::kNe) || EatKeyword("ne")) {
        op = BinaryOp::kNe;
      } else {
        return lhs;
      }
      if (!nesting.Enter()) return TooDeep();
      XMLPROJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRelational());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseRelational() {
    NestingGuard nesting(&depth_);
    XMLPROJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    while (true) {
      BinaryOp op;
      if (Eat(TokKind::kLt) || EatKeyword("lt")) {
        op = BinaryOp::kLt;
      } else if (Eat(TokKind::kLe) || EatKeyword("le")) {
        op = BinaryOp::kLe;
      } else if (Eat(TokKind::kGt) || EatKeyword("gt")) {
        op = BinaryOp::kGt;
      } else if (Eat(TokKind::kGe) || EatKeyword("ge")) {
        op = BinaryOp::kGe;
      } else {
        return lhs;
      }
      if (!nesting.Enter()) return TooDeep();
      XMLPROJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseAdditive() {
    NestingGuard nesting(&depth_);
    XMLPROJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Eat(TokKind::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Eat(TokKind::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      if (!nesting.Enter()) return TooDeep();
      XMLPROJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    NestingGuard nesting(&depth_);
    XMLPROJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Eat(TokKind::kStar)) {
        op = BinaryOp::kMul;
      } else if (EatKeyword("div")) {
        op = BinaryOp::kDiv;
      } else if (EatKeyword("mod")) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      if (!nesting.Enter()) return TooDeep();
      XMLPROJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (Eat(TokKind::kMinus)) {
      NestingGuard nesting(&depth_);
      if (!nesting.Enter()) return TooDeep();
      XMLPROJ_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kNegate;
      e->args.push_back(std::move(inner));
      return ExprPtr(std::move(e));
    }
    return ParseUnion();
  }

  Result<ExprPtr> ParseUnion() {
    NestingGuard nesting(&depth_);
    XMLPROJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePathExpr());
    while (Eat(TokKind::kPipe)) {
      if (!nesting.Enter()) return TooDeep();
      XMLPROJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePathExpr());
      lhs = MakeBinary(BinaryOp::kUnion, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  // True when the upcoming tokens start a location-path step rather than a
  // primary expression.
  bool StartsLocationPath() const {
    switch (Peek().kind) {
      case TokKind::kSlash:
      case TokKind::kDoubleSlash:
      case TokKind::kDot:
      case TokKind::kDotDot:
      case TokKind::kAt:
      case TokKind::kStar:
        return true;
      case TokKind::kName: {
        // A name starts a path unless it is a function call: name '('.
        // node() and text() are node-type tests, not functions.
        if (Peek(1).kind == TokKind::kLParen) {
          return Peek().text == "node" || Peek().text == "text" ||
                 Peek().text == "element";
        }
        return true;
      }
      default:
        return false;
    }
  }

  Result<ExprPtr> ParsePathExpr() {
    if (Peek().kind == TokKind::kVariable) {
      LocationPath path;
      path.start = PathStart::kVariable;
      path.variable = Advance().text;
      if (Eat(TokKind::kSlash)) {
        XMLPROJ_RETURN_IF_ERROR(ParseRelativePath(&path));
      } else if (Eat(TokKind::kDoubleSlash)) {
        Step dos;
        dos.axis = Axis::kDescendantOrSelf;
        dos.test.kind = TestKind::kNode;
        path.steps.push_back(std::move(dos));
        XMLPROJ_RETURN_IF_ERROR(ParseRelativePath(&path));
      }
      return MakePath(std::move(path));
    }
    if (Peek().kind == TokKind::kSlash ||
        Peek().kind == TokKind::kDoubleSlash) {
      LocationPath path;
      path.start = PathStart::kRoot;
      if (Eat(TokKind::kDoubleSlash)) {
        Step dos;
        dos.axis = Axis::kDescendantOrSelf;
        dos.test.kind = TestKind::kNode;
        path.steps.push_back(std::move(dos));
        XMLPROJ_RETURN_IF_ERROR(ParseRelativePath(&path));
      } else {
        Advance();  // '/'
        // "/" alone denotes the document root.
        if (StartsLocationPath()) {
          XMLPROJ_RETURN_IF_ERROR(ParseRelativePath(&path));
        }
      }
      return MakePath(std::move(path));
    }
    if (StartsLocationPath()) {
      LocationPath path;
      path.start = PathStart::kContext;
      XMLPROJ_RETURN_IF_ERROR(ParseRelativePath(&path));
      return MakePath(std::move(path));
    }
    // Primary expression (optionally followed by a path: "(...)/a" is not
    // supported; the paper's fragment never needs it).
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokKind::kNumber: {
        double v = Advance().number;
        return MakeNumber(v);
      }
      case TokKind::kLiteral: {
        std::string v = Advance().text;
        return MakeLiteral(std::move(v));
      }
      case TokKind::kLParen: {
        Advance();
        XMLPROJ_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
        if (!Eat(TokKind::kRParen)) return Error("expected ')'");
        return inner;
      }
      case TokKind::kName: {
        if (Peek(1).kind == TokKind::kLParen) {
          std::string name = Advance().text;
          Advance();  // '('
          std::vector<ExprPtr> args;
          if (Peek().kind != TokKind::kRParen) {
            while (true) {
              XMLPROJ_ASSIGN_OR_RETURN(ExprPtr arg, ParseOr());
              args.push_back(std::move(arg));
              if (!Eat(TokKind::kComma)) break;
            }
          }
          if (!Eat(TokKind::kRParen)) {
            return Error("expected ')' after function arguments");
          }
          return MakeFunction(std::move(name), std::move(args));
        }
        return Error("unexpected name '" + t.text + "'");
      }
      default:
        return Error("expected an expression");
    }
  }

  Status ParseRelativePath(LocationPath* path) {
    while (true) {
      XMLPROJ_RETURN_IF_ERROR(ParseStep(path));
      if (Eat(TokKind::kSlash)) continue;
      if (Eat(TokKind::kDoubleSlash)) {
        Step dos;
        dos.axis = Axis::kDescendantOrSelf;
        dos.test.kind = TestKind::kNode;
        path->steps.push_back(std::move(dos));
        continue;
      }
      return Status::Ok();
    }
  }

  Status ParseStep(LocationPath* path) {
    Step step;
    if (Eat(TokKind::kDot)) {
      step.axis = Axis::kSelf;
      step.test.kind = TestKind::kNode;
    } else if (Eat(TokKind::kDotDot)) {
      step.axis = Axis::kParent;
      step.test.kind = TestKind::kNode;
    } else {
      if (Eat(TokKind::kAt)) {
        step.axis = Axis::kAttribute;
      } else if (Peek().kind == TokKind::kName &&
                 Peek(1).kind == TokKind::kColonColon) {
        Axis axis;
        if (!LookupAxis(Peek().text, &axis)) {
          return Error("unknown axis '" + Peek().text + "'");
        }
        step.axis = axis;
        Advance();
        Advance();
      } else {
        step.axis = Axis::kChild;
      }
      XMLPROJ_RETURN_IF_ERROR(ParseNodeTest(&step.test));
    }
    while (Eat(TokKind::kLBracket)) {
      XMLPROJ_ASSIGN_OR_RETURN(ExprPtr pred, ParseOr());
      if (!Eat(TokKind::kRBracket)) return Error("expected ']'");
      step.predicates.push_back(std::move(pred));
    }
    path->steps.push_back(std::move(step));
    return Status::Ok();
  }

  Status ParseNodeTest(NodeTest* test) {
    if (Eat(TokKind::kStar)) {
      test->kind = TestKind::kAnyElement;
      return Status::Ok();
    }
    if (Peek().kind != TokKind::kName) {
      return Error("expected a node test");
    }
    std::string name = Advance().text;
    if (Eat(TokKind::kLParen)) {
      if (!Eat(TokKind::kRParen)) {
        return Error("node type tests take no arguments");
      }
      if (name == "node") {
        test->kind = TestKind::kNode;
      } else if (name == "text") {
        test->kind = TestKind::kText;
      } else if (name == "element") {
        test->kind = TestKind::kAnyElement;
      } else {
        return Error("unknown node type test '" + name + "'");
      }
      return Status::Ok();
    }
    // Per the W3C grammar, node type tests require parentheses; a bare
    // name is always an element name test (XMark, for one, has elements
    // named "text").
    test->kind = TestKind::kName;
    test->name = std::move(name);
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<ExprPtr> ParseXPathExpr(std::string_view text) {
  XMLPROJ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  XPathParser parser(std::move(tokens));
  return parser.ParseFullExpr();
}

Result<LocationPath> ParseXPath(std::string_view text) {
  XMLPROJ_ASSIGN_OR_RETURN(ExprPtr expr, ParseXPathExpr(text));
  if (expr->kind != ExprKind::kPath) {
    return ParseError("expression is not a location path: " +
                      std::string(text));
  }
  return std::move(expr->path);
}

}  // namespace xmlproj
