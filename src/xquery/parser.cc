#include "xquery/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "common/nesting.h"
#include "common/strings.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace xmlproj {
namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

// Keywords that terminate a scalar-expression scan at nesting depth 0.
bool IsStopKeyword(std::string_view word) {
  return word == "return" || word == "where" || word == "order" ||
         word == "for" || word == "let" || word == "if" ||
         word == "then" || word == "else" || word == "in" ||
         word == "ascending" || word == "descending" || word == "by" ||
         word == "stable" || word == "some" || word == "every" ||
         word == "satisfies";
}

class XQueryParser {
 public:
  explicit XQueryParser(std::string_view input) : input_(input) {}

  Result<XQueryPtr> Run() {
    XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr q, ParseQuery());
    SkipSpace();
    if (!AtEnd()) return Error("trailing content after query");
    return q;
  }

 private:
  Status Error(const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') ++line;
    }
    return ParseError(
        StringPrintf("XQuery line %zu: %s", line, message.c_str()));
  }

  // Every nested query, element constructor and FLWR clause deepens the
  // query tree by one level.
  Status TooDeep() const {
    return Error(
        StringPrintf("query nests deeper than %d levels", kMaxParseDepth));
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  void SkipSpace() {
    while (!AtEnd()) {
      if (std::isspace(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      } else if (Peek() == '(' && Peek(1) == ':') {
        // XQuery comment (: ... :), possibly nested.
        int depth = 0;
        while (!AtEnd()) {
          if (Peek() == '(' && Peek(1) == ':') {
            ++depth;
            pos_ += 2;
          } else if (Peek() == ':' && Peek(1) == ')') {
            --depth;
            pos_ += 2;
            if (depth == 0) break;
          } else {
            ++pos_;
          }
        }
      } else {
        break;
      }
    }
  }

  // Returns the keyword starting at pos_ (after SkipSpace), or empty.
  std::string_view PeekWord() const {
    if (AtEnd() || !IsNameStart(Peek())) return {};
    size_t end = pos_;
    while (end < input_.size() && IsNameChar(input_[end])) ++end;
    return input_.substr(pos_, end - pos_);
  }

  bool EatKeyword(std::string_view word) {
    SkipSpace();
    if (PeekWord() == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<std::string> ParseVariableName() {
    SkipSpace();
    if (AtEnd() || Peek() != '$') return Error("expected '$variable'");
    ++pos_;
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a variable name after '$'");
    return std::string(input_.substr(start, pos_ - start));
  }

  // --- Scalar expressions ----------------------------------------------

  // Finds the end of a scalar expression starting at pos_: scans until a
  // stop keyword, ',', ')', '}', ']' at depth 0, or end of input.
  size_t ScalarExtent() const {
    size_t i = pos_;
    int depth = 0;
    while (i < input_.size()) {
      char c = input_[i];
      if (c == '(' && i + 1 < input_.size() && input_[i + 1] == ':') {
        // Skip an XQuery comment (nested).
        int comment_depth = 0;
        while (i < input_.size()) {
          if (input_[i] == '(' && i + 1 < input_.size() &&
              input_[i + 1] == ':') {
            ++comment_depth;
            i += 2;
          } else if (input_[i] == ':' && i + 1 < input_.size() &&
                     input_[i + 1] == ')') {
            --comment_depth;
            i += 2;
            if (comment_depth == 0) break;
          } else {
            ++i;
          }
        }
        continue;
      }
      if (c == '\'' || c == '"') {
        size_t close = input_.find(c, i + 1);
        if (close == std::string_view::npos) return input_.size();
        i = close + 1;
        continue;
      }
      if (c == '(' || c == '[' || c == '{') {
        ++depth;
        ++i;
        continue;
      }
      if (c == ')' || c == ']' || c == '}') {
        if (depth == 0) return i;
        --depth;
        ++i;
        continue;
      }
      if (c == ',' && depth == 0) return i;
      if (IsNameStart(c) && depth == 0 &&
          (i == pos_ || !IsNameChar(input_[i - 1]))) {
        size_t end = i;
        while (end < input_.size() && IsNameChar(input_[end])) ++end;
        std::string_view word = input_.substr(i, end - i);
        if (IsStopKeyword(word)) return i;
        i = end;
        continue;
      }
      ++i;
    }
    return input_.size();
  }

  Result<ExprPtr> ParseScalar() {
    SkipSpace();
    size_t end = ScalarExtent();
    std::string_view raw = input_.substr(pos_, end - pos_);
    // Blank out comments so the XPath tokenizer never sees them.
    std::string text(raw);
    for (size_t i = 0; i + 1 < text.size();) {
      if (text[i] == '(' && text[i + 1] == ':') {
        int depth = 0;
        size_t j = i;
        while (j < text.size()) {
          if (j + 1 < text.size() && text[j] == '(' && text[j + 1] == ':') {
            ++depth;
            text[j] = text[j + 1] = ' ';
            j += 2;
          } else if (j + 1 < text.size() && text[j] == ':' &&
                     text[j + 1] == ')') {
            --depth;
            text[j] = text[j + 1] = ' ';
            j += 2;
            if (depth == 0) break;
          } else {
            text[j] = ' ';
            ++j;
          }
        }
        i = j;
      } else {
        ++i;
      }
    }
    if (StripWhitespace(text).empty()) {
      return Error("expected an expression");
    }
    auto expr = ParseXPathExpr(text);
    if (!expr.ok()) return expr.status();
    pos_ = end;
    return std::move(expr).value();
  }

  // --- Query expressions -------------------------------------------------

  Result<XQueryPtr> ParseQuery() {
    std::vector<XQueryPtr> items;
    XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr first, ParseQuerySingle());
    items.push_back(std::move(first));
    while (true) {
      SkipSpace();
      if (AtEnd() || Peek() != ',') break;
      ++pos_;
      XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr next, ParseQuerySingle());
      items.push_back(std::move(next));
    }
    if (items.size() == 1) return std::move(items[0]);
    auto seq = std::make_unique<XQueryExpr>();
    seq->kind = XQueryKind::kSequence;
    seq->items = std::move(items);
    return XQueryPtr(std::move(seq));
  }

  Result<XQueryPtr> ParseQuerySingle() {
    NestingGuard nesting(&depth_);
    if (!nesting.Enter()) return TooDeep();
    SkipSpace();
    if (AtEnd()) return Error("expected a query expression");
    std::string_view word = PeekWord();
    if (word == "for" || word == "let") return ParseFlwr();
    if (word == "if") return ParseIf();
    if (word == "some" || word == "every") return ParseQuantified();
    if (Peek() == '<' && IsNameStart(Peek(1))) return ParseConstructor();
    if (Peek() == '(') {
      // '()' is the empty sequence; '(' followed by a structural query is
      // a parenthesized query; anything else is a scalar expression whose
      // parentheses the XPath parser handles.
      size_t save = pos_;
      ++pos_;
      SkipSpace();
      if (Peek() == ')') {
        ++pos_;
        return MakeEmptyQuery();
      }
      std::string_view inner = PeekWord();
      if (inner == "for" || inner == "let" || inner == "if" ||
          inner == "some" || inner == "every" ||
          (Peek() == '<' && IsNameStart(Peek(1)))) {
        XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr q, ParseQuery());
        SkipSpace();
        if (AtEnd() || Peek() != ')') return Error("expected ')'");
        ++pos_;
        return q;
      }
      pos_ = save;
    }
    XMLPROJ_ASSIGN_OR_RETURN(ExprPtr scalar, ParseScalar());
    return MakeScalarQuery(std::move(scalar));
  }

  Result<XQueryPtr> ParseFlwr() {
    struct Clause {
      bool is_for;
      std::string variable;
      XQueryPtr binding;
    };
    std::vector<Clause> clauses;
    NestingGuard nesting(&depth_);
    while (true) {
      if (EatKeyword("for")) {
        while (true) {
          if (!nesting.Enter()) return TooDeep();
          Clause c;
          c.is_for = true;
          XMLPROJ_ASSIGN_OR_RETURN(c.variable, ParseVariableName());
          if (!EatKeyword("in")) return Error("expected 'in'");
          XMLPROJ_ASSIGN_OR_RETURN(c.binding, ParseQuerySingle());
          clauses.push_back(std::move(c));
          SkipSpace();
          if (Peek() == ',') {
            ++pos_;
            continue;
          }
          break;
        }
        continue;
      }
      if (EatKeyword("let")) {
        if (!nesting.Enter()) return TooDeep();
        Clause c;
        c.is_for = false;
        XMLPROJ_ASSIGN_OR_RETURN(c.variable, ParseVariableName());
        SkipSpace();
        if (Peek() != ':' || Peek(1) != '=') return Error("expected ':='");
        pos_ += 2;
        XMLPROJ_ASSIGN_OR_RETURN(c.binding, ParseQuerySingle());
        clauses.push_back(std::move(c));
        continue;
      }
      break;
    }
    if (clauses.empty()) return Error("expected 'for' or 'let'");

    XQueryPtr where;
    if (EatKeyword("where")) {
      XMLPROJ_ASSIGN_OR_RETURN(where, ParseQuerySingle());
    }
    ExprPtr order_key;
    bool order_descending = false;
    EatKeyword("stable");
    if (EatKeyword("order")) {
      if (!EatKeyword("by")) return Error("expected 'by' after 'order'");
      XMLPROJ_ASSIGN_OR_RETURN(order_key, ParseScalar());
      if (EatKeyword("descending")) {
        order_descending = true;
      } else {
        EatKeyword("ascending");
      }
    }
    if (!EatKeyword("return")) return Error("expected 'return'");
    XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr body, ParseQuerySingle());

    // Build nested For/Let nodes, innermost first. `where` and `order by`
    // attach to the innermost *for* clause (trailing lets become part of
    // its body), which matches tuple-stream semantics for filtering;
    // ordering across multiple for-clauses is lexicographic by clause,
    // which the benchmark queries (single for) do not exercise. A where
    // or order key may not reference let-variables introduced after the
    // last for clause.
    size_t attach = clauses.size();
    for (size_t i = clauses.size(); i-- > 0;) {
      if (clauses[i].is_for) {
        attach = i;
        break;
      }
    }
    if (attach == clauses.size() && order_key != nullptr) {
      return Error("'order by' requires a 'for' clause");
    }
    for (size_t i = clauses.size(); i-- > 0;) {
      Clause& c = clauses[i];
      auto node = std::make_unique<XQueryExpr>();
      node->kind = c.is_for ? XQueryKind::kFor : XQueryKind::kLet;
      node->variable = std::move(c.variable);
      node->binding = std::move(c.binding);
      node->body = std::move(body);
      if (i == attach) {
        node->where = std::move(where);
        node->order_key = std::move(order_key);
        node->order_descending = order_descending;
      } else if (i + 1 == clauses.size() && attach == clauses.size() &&
                 where != nullptr) {
        // where on a pure-let FLWR: wrap the body in an if.
        auto cond = std::make_unique<XQueryExpr>();
        cond->kind = XQueryKind::kIf;
        cond->condition = std::move(where);
        cond->then_branch = std::move(node->body);
        cond->else_branch = MakeEmptyQuery();
        node->body = std::move(cond);
      }
      body = std::move(node);
    }
    return body;
  }

  Result<XQueryPtr> ParseQuantified() {
    bool is_every = false;
    if (EatKeyword("some")) {
      is_every = false;
    } else if (EatKeyword("every")) {
      is_every = true;
    } else {
      return Error("expected 'some' or 'every'");
    }
    auto node = std::make_unique<XQueryExpr>();
    node->kind = is_every ? XQueryKind::kEvery : XQueryKind::kSome;
    XMLPROJ_ASSIGN_OR_RETURN(node->variable, ParseVariableName());
    if (!EatKeyword("in")) return Error("expected 'in'");
    XMLPROJ_ASSIGN_OR_RETURN(node->binding, ParseQuerySingle());
    if (!EatKeyword("satisfies")) return Error("expected 'satisfies'");
    XMLPROJ_ASSIGN_OR_RETURN(node->body, ParseQuerySingle());
    return XQueryPtr(std::move(node));
  }

  Result<XQueryPtr> ParseIf() {
    if (!EatKeyword("if")) return Error("expected 'if'");
    SkipSpace();
    if (Peek() != '(') return Error("expected '(' after 'if'");
    ++pos_;
    XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr condition, ParseQuery());
    SkipSpace();
    if (Peek() != ')') return Error("expected ')' after if-condition");
    ++pos_;
    if (!EatKeyword("then")) return Error("expected 'then'");
    XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr then_branch, ParseQuerySingle());
    if (!EatKeyword("else")) return Error("expected 'else'");
    XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr else_branch, ParseQuerySingle());
    auto node = std::make_unique<XQueryExpr>();
    node->kind = XQueryKind::kIf;
    node->condition = std::move(condition);
    node->then_branch = std::move(then_branch);
    node->else_branch = std::move(else_branch);
    return XQueryPtr(std::move(node));
  }

  Result<XQueryPtr> ParseConstructor() {
    NestingGuard nesting(&depth_);
    if (!nesting.Enter()) return TooDeep();
    // pos_ is at '<'.
    ++pos_;
    size_t tag_start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == tag_start) return Error("expected an element name");
    auto node = std::make_unique<XQueryExpr>();
    node->kind = XQueryKind::kElement;
    node->tag = std::string(input_.substr(tag_start, pos_ - tag_start));

    // Attributes.
    while (true) {
      SkipSpace();
      if (AtEnd()) return Error("unterminated element constructor");
      if (Peek() == '>' || Peek() == '/') break;
      ConstructedAttr attr;
      size_t name_start = pos_;
      while (!AtEnd() && IsNameChar(Peek())) ++pos_;
      if (pos_ == name_start) return Error("expected an attribute name");
      attr.name = std::string(input_.substr(name_start, pos_ - name_start));
      SkipSpace();
      if (Peek() != '=') return Error("expected '=' in attribute");
      ++pos_;
      SkipSpace();
      char quote = Peek();
      if (quote != '"' && quote != '\'') {
        return Error("expected a quoted attribute value");
      }
      ++pos_;
      std::string literal;
      while (!AtEnd() && Peek() != quote) {
        if (Peek() == '{') {
          if (!literal.empty()) {
            AttrValuePart part;
            part.text = std::move(literal);
            literal.clear();
            attr.parts.push_back(std::move(part));
          }
          ++pos_;
          XMLPROJ_ASSIGN_OR_RETURN(ExprPtr expr, ParseScalar());
          SkipSpace();
          if (Peek() != '}') return Error("expected '}'");
          ++pos_;
          AttrValuePart part;
          part.expr = std::move(expr);
          attr.parts.push_back(std::move(part));
        } else {
          literal.push_back(Peek());
          ++pos_;
        }
      }
      if (AtEnd()) return Error("unterminated attribute value");
      ++pos_;  // closing quote
      if (!literal.empty()) {
        AttrValuePart part;
        part.text = std::move(literal);
        attr.parts.push_back(std::move(part));
      }
      node->attributes.push_back(std::move(attr));
    }

    if (Peek() == '/') {
      ++pos_;
      if (Peek() != '>') return Error("expected '/>'");
      ++pos_;
      return XQueryPtr(std::move(node));
    }
    ++pos_;  // '>'

    // Content: text runs, embedded queries, nested constructors.
    std::vector<XQueryPtr> content;
    std::string text;
    auto flush_text = [&content, &text]() {
      if (IsAllXmlWhitespace(text)) {
        text.clear();
        return;
      }
      auto t = std::make_unique<XQueryExpr>();
      t->kind = XQueryKind::kText;
      t->text = std::move(text);
      text.clear();
      content.push_back(std::move(t));
    };
    while (true) {
      if (AtEnd()) return Error("unterminated element constructor");
      char c = Peek();
      if (c == '<') {
        if (Peek(1) == '/') {
          flush_text();
          pos_ += 2;
          size_t close_start = pos_;
          while (!AtEnd() && IsNameChar(Peek())) ++pos_;
          std::string_view close =
              input_.substr(close_start, pos_ - close_start);
          if (close != node->tag) {
            return Error("mismatched closing tag </" + std::string(close) +
                         ">");
          }
          SkipSpace();
          if (Peek() != '>') return Error("expected '>'");
          ++pos_;
          break;
        }
        if (!IsNameStart(Peek(1))) return Error("stray '<' in content");
        flush_text();
        XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr child, ParseConstructor());
        content.push_back(std::move(child));
      } else if (c == '{') {
        flush_text();
        ++pos_;
        XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr q, ParseQuery());
        SkipSpace();
        if (Peek() != '}') return Error("expected '}'");
        ++pos_;
        content.push_back(std::move(q));
      } else if (c == '&') {
        size_t end = input_.find(';', pos_);
        if (end == std::string_view::npos) {
          return Error("unterminated entity reference");
        }
        auto decoded =
            DecodeXmlReferences(input_.substr(pos_, end - pos_ + 1));
        if (!decoded.ok()) return decoded.status();
        text += *decoded;
        pos_ = end + 1;
      } else {
        text.push_back(c);
        ++pos_;
      }
    }

    if (content.size() == 1) {
      node->content = std::move(content[0]);
    } else if (!content.empty()) {
      auto seq = std::make_unique<XQueryExpr>();
      seq->kind = XQueryKind::kSequence;
      seq->items = std::move(content);
      node->content = std::move(seq);
    }
    return XQueryPtr(std::move(node));
  }

  std::string_view input_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<XQueryPtr> ParseXQuery(std::string_view text) {
  XQueryParser parser(text);
  return parser.Run();
}

}  // namespace xmlproj
