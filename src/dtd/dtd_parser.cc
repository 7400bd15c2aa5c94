#include "dtd/dtd_parser.h"

#include <string>
#include <vector>

#include "common/nesting.h"
#include "common/strings.h"

namespace xmlproj {
namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
         c == ':' || static_cast<unsigned char>(c) >= 0x80;
}

class DtdParser {
 public:
  explicit DtdParser(std::string_view input) : input_(input) {}

  Status Run(DtdBuilder* builder);

 private:
  Status Error(const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') ++line;
    }
    return ParseError(StringPrintf("DTD line %zu: %s", line,
                                   message.c_str()));
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool LookingAt(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }
  void SkipSpace() {
    while (!AtEnd() && IsSpace(Peek())) ++pos_;
  }
  Status Expect(char c) {
    if (AtEnd() || Peek() != c) {
      return Error(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::Ok();
  }

  Status ParseName(std::string_view* name) {
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a name");
    *name = input_.substr(start, pos_ - start);
    return Status::Ok();
  }

  Status ParseElementDecl(DtdBuilder* builder);
  Status ParseAttlistDecl(DtdBuilder* builder);
  Status SkipDecl();  // balanced skip of <!ENTITY ...> / <!NOTATION ...>

  // children content: cp ::= (name | choice | seq) ('?'|'*'|'+')?
  Status ParseCp(DtdBuilder* builder, NameId owner, ContentModel* model,
                 int32_t* out);
  Status ParseGroup(DtdBuilder* builder, NameId owner, ContentModel* model,
                    int32_t* out);
  int32_t ApplyOccurrence(ContentModel* model, int32_t node);

  std::string_view input_;
  size_t pos_ = 0;
  int depth_ = 0;  // groups open in the current content model
};

int32_t DtdParser::ApplyOccurrence(ContentModel* model, int32_t node) {
  if (AtEnd()) return node;
  char c = Peek();
  if (c == '*') {
    ++pos_;
    return model->Star(node);
  }
  if (c == '+') {
    ++pos_;
    return model->Plus(node);
  }
  if (c == '?') {
    ++pos_;
    return model->Opt(node);
  }
  return node;
}

Status DtdParser::ParseCp(DtdBuilder* builder, NameId owner,
                          ContentModel* model, int32_t* out) {
  SkipSpace();
  if (AtEnd()) return Error("unexpected end of content model");
  if (Peek() == '(') {
    return ParseGroup(builder, owner, model, out);
  }
  std::string_view name;
  XMLPROJ_RETURN_IF_ERROR(ParseName(&name));
  XMLPROJ_ASSIGN_OR_RETURN(NameId id, builder->DeclareOrFindElement(name));
  *out = ApplyOccurrence(model, model->Name(id));
  return Status::Ok();
}

Status DtdParser::ParseGroup(DtdBuilder* builder, NameId owner,
                             ContentModel* model, int32_t* out) {
  NestingGuard nesting(&depth_);
  if (!nesting.Enter()) {
    return Error(StringPrintf("content model nests deeper than %d groups",
                              kMaxParseDepth));
  }
  XMLPROJ_RETURN_IF_ERROR(Expect('('));
  SkipSpace();
  // Mixed content starts with #PCDATA.
  if (LookingAt("#PCDATA")) {
    pos_ += 7;
    std::vector<int32_t> alternatives;
    alternatives.push_back(model->Name(builder->StringNameFor(owner)));
    SkipSpace();
    bool has_names = false;
    while (!AtEnd() && Peek() == '|') {
      ++pos_;
      SkipSpace();
      std::string_view name;
      XMLPROJ_RETURN_IF_ERROR(ParseName(&name));
      XMLPROJ_ASSIGN_OR_RETURN(NameId id,
                               builder->DeclareOrFindElement(name));
      alternatives.push_back(model->Name(id));
      has_names = true;
      SkipSpace();
    }
    XMLPROJ_RETURN_IF_ERROR(Expect(')'));
    int32_t choice = alternatives.size() == 1
                         ? alternatives[0]
                         : model->Choice(std::move(alternatives));
    // "(#PCDATA)" may omit the star; "(#PCDATA | a)*" requires it.
    if (!AtEnd() && Peek() == '*') {
      ++pos_;
      *out = model->Star(choice);
    } else if (has_names) {
      return Error("mixed content with element names requires a trailing *");
    } else {
      *out = model->Star(choice);
    }
    return Status::Ok();
  }

  std::vector<int32_t> items;
  int32_t first;
  XMLPROJ_RETURN_IF_ERROR(ParseCp(builder, owner, model, &first));
  items.push_back(first);
  SkipSpace();
  char sep = 0;
  while (!AtEnd() && (Peek() == ',' || Peek() == '|')) {
    if (sep == 0) {
      sep = Peek();
    } else if (Peek() != sep) {
      return Error("cannot mix ',' and '|' at the same level");
    }
    ++pos_;
    int32_t item;
    XMLPROJ_RETURN_IF_ERROR(ParseCp(builder, owner, model, &item));
    items.push_back(item);
    SkipSpace();
  }
  XMLPROJ_RETURN_IF_ERROR(Expect(')'));
  int32_t group;
  if (items.size() == 1) {
    group = items[0];
  } else if (sep == '|') {
    group = model->Choice(std::move(items));
  } else {
    group = model->Seq(std::move(items));
  }
  *out = ApplyOccurrence(model, group);
  return Status::Ok();
}

Status DtdParser::ParseElementDecl(DtdBuilder* builder) {
  // pos_ is just past "<!ELEMENT".
  SkipSpace();
  std::string_view tag;
  XMLPROJ_RETURN_IF_ERROR(ParseName(&tag));
  XMLPROJ_ASSIGN_OR_RETURN(NameId id, builder->DeclareElement(tag));
  // Parse into a local model: declaring forward-referenced elements while
  // parsing may reallocate the production table, so a pointer obtained via
  // MutableContent up-front would dangle.
  ContentModel model;
  SkipSpace();
  if (LookingAt("EMPTY")) {
    pos_ += 5;
    // Empty model: root stays -1, matcher accepts only the empty sequence.
  } else if (LookingAt("ANY")) {
    pos_ += 3;
    model.set_root(model.Any());
  } else if (!AtEnd() && Peek() == '(') {
    int32_t root;
    XMLPROJ_RETURN_IF_ERROR(ParseGroup(builder, id, &model, &root));
    model.set_root(root);
  } else {
    return Error("expected EMPTY, ANY or a content model for element '" +
                 std::string(tag) + "'");
  }
  *builder->MutableContent(id) = std::move(model);
  SkipSpace();
  return Expect('>');
}

Status DtdParser::ParseAttlistDecl(DtdBuilder* builder) {
  // pos_ is just past "<!ATTLIST".
  SkipSpace();
  std::string_view tag;
  XMLPROJ_RETURN_IF_ERROR(ParseName(&tag));
  XMLPROJ_ASSIGN_OR_RETURN(NameId id, builder->DeclareOrFindElement(tag));
  while (true) {
    SkipSpace();
    if (AtEnd()) return Error("unterminated ATTLIST");
    if (Peek() == '>') {
      ++pos_;
      return Status::Ok();
    }
    AttributeDecl decl;
    std::string_view name;
    XMLPROJ_RETURN_IF_ERROR(ParseName(&name));
    decl.name = std::string(name);
    SkipSpace();
    // Type: a name (CDATA, ID, IDREF, ...) or an enumeration.
    if (!AtEnd() && Peek() == '(') {
      int depth = 0;
      while (!AtEnd()) {
        if (Peek() == '(') ++depth;
        if (Peek() == ')' && --depth == 0) {
          ++pos_;
          break;
        }
        ++pos_;
      }
    } else {
      std::string_view type;
      XMLPROJ_RETURN_IF_ERROR(ParseName(&type));
      if (type == "NOTATION") {
        SkipSpace();
        if (!AtEnd() && Peek() == '(') {
          while (!AtEnd() && Peek() != ')') ++pos_;
          if (!AtEnd()) ++pos_;
        }
      }
    }
    SkipSpace();
    // Default declaration.
    if (LookingAt("#REQUIRED")) {
      pos_ += 9;
      decl.required = true;
    } else if (LookingAt("#IMPLIED")) {
      pos_ += 8;
    } else {
      if (LookingAt("#FIXED")) {
        pos_ += 6;
        SkipSpace();
      }
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected default value in ATTLIST");
      }
      char quote = Peek();
      ++pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated default value");
      ++pos_;
    }
    builder->AddAttribute(id, std::move(decl));
  }
}

Status DtdParser::SkipDecl() {
  // pos_ is at "<!"; skip to the matching '>' respecting quotes.
  while (!AtEnd()) {
    char c = Peek();
    if (c == '"' || c == '\'') {
      char quote = c;
      ++pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated literal in declaration");
      ++pos_;
    } else if (c == '>') {
      ++pos_;
      return Status::Ok();
    } else {
      ++pos_;
    }
  }
  return Error("unterminated declaration");
}

Status DtdParser::Run(DtdBuilder* builder) {
  while (true) {
    SkipSpace();
    if (AtEnd()) return Status::Ok();
    if (LookingAt("<!--")) {
      size_t end = input_.find("-->", pos_ + 4);
      if (end == std::string_view::npos) return Error("unterminated comment");
      pos_ = end + 3;
    } else if (LookingAt("<!ELEMENT")) {
      pos_ += 9;
      XMLPROJ_RETURN_IF_ERROR(ParseElementDecl(builder));
    } else if (LookingAt("<!ATTLIST")) {
      pos_ += 9;
      XMLPROJ_RETURN_IF_ERROR(ParseAttlistDecl(builder));
    } else if (LookingAt("<!ENTITY") || LookingAt("<!NOTATION")) {
      XMLPROJ_RETURN_IF_ERROR(SkipDecl());
    } else if (LookingAt("<?")) {
      size_t end = input_.find("?>", pos_ + 2);
      if (end == std::string_view::npos) {
        return Error("unterminated processing instruction");
      }
      pos_ = end + 2;
    } else if (Peek() == '%') {
      return Error("parameter entities are not supported");
    } else {
      return Error("unexpected content in DTD");
    }
  }
}

}  // namespace

Result<Dtd> ParseDtd(std::string_view dtd_text, std::string_view root_tag) {
  DtdBuilder builder;
  DtdParser parser(dtd_text);
  XMLPROJ_RETURN_IF_ERROR(parser.Run(&builder));
  return builder.Build(root_tag);
}

}  // namespace xmlproj
