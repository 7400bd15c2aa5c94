#include "xml/parser.h"

#include <cassert>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.h"

namespace xmlproj {
namespace {

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':' || static_cast<unsigned char>(c) >= 0x80;
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

// Appends the UTF-8 encoding of `cp` to `out`.
void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

class Parser {
 public:
  Parser(std::string_view input, SaxHandler* handler,
         const XmlParseOptions& options)
      : input_(input), handler_(handler), options_(options) {}

  Status Run();

  size_t open_bytes_peak() const { return open_bytes_peak_; }

 private:
  // Byte spans handed to the handler through SaxHandler::SetLocator.
  struct Locator : SaxLocator {
    size_t begin = 0;
    size_t end = 0;
    size_t event_begin() const override { return begin; }
    size_t event_end() const override { return end; }
  };

  // Publishes the current event's [begin,end) span (input_-relative).
  void SetSpan(size_t begin, size_t end) {
    locator_.begin = begin;
    locator_.end = end;
  }
  Status Error(const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') ++line;
    }
    return ParseError(StringPrintf("line %zu: %s", line, message.c_str()));
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool LookingAt(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }
  void SkipSpace() {
    while (!AtEnd() && IsSpace(Peek())) ++pos_;
  }

  Status ParseProlog();
  Status ParseDoctype();
  // Parses the element starting at pos_ and all of its content,
  // iteratively (no recursion: document depth must not bound the stack).
  Status ParseTree();
  // Parses one start tag, emitting StartElement. Sets *closed when the
  // element was self-closing (EndElement already emitted).
  Status ParseStartTag(bool* closed);
  Status ParseName(std::string_view* name);
  Status ParseAttributes();
  Status SkipComment();
  Status SkipProcessingInstruction();
  Status AppendReference(std::string* out);
  // Adds one piece of character data. A piece that arrives while nothing
  // is pending stays a zero-copy view into input_; a second piece (or a
  // reference) forces materialization into pending_text_.
  void AddTextPiece(std::string_view piece, size_t begin_offset);
  // Materializes pending_view_ into pending_text_ (before appending a
  // decoded reference, which must write into an owned buffer).
  void MaterializePendingText() {
    if (!pending_view_.empty()) {
      pending_text_.assign(pending_view_);
      pending_view_ = {};
    }
  }
  Status FlushText();

  std::string_view input_;
  SaxHandler* handler_;
  XmlParseOptions options_;
  Locator locator_;
  size_t pos_ = 0;
  // Pending character data: at most one of these is non-empty. The common
  // case (one uninterrupted run, no references, no CDATA) never copies.
  std::string_view pending_view_;
  std::string pending_text_;
  bool pending_text_nonempty_ = false;
  size_t pending_text_begin_ = 0;  // offset of the first pending byte
  // One open element: its tag and the open-element charge while it is
  // open (tag bytes + kOpenElementBytes for it and each ancestor).
  struct OpenTag {
    std::string_view tag;
    size_t open_bytes;
  };
  std::vector<OpenTag> open_tags_;
  // High-water mark of the open-element charge: the pass's O(depth)
  // working state, read by the pipeline's per-task memory peak.
  size_t open_bytes_peak_ = 0;
  // Per-start-tag scratch, reused across elements so the hot loop does
  // not allocate. Attribute values are views into input_ unless they
  // contained references; decoded values live in attr_storage_ and are
  // re-pointed after the tag is fully parsed (the vector may grow).
  std::vector<SaxAttribute> attributes_;
  std::vector<std::string> attr_storage_;
  size_t attr_storage_used_ = 0;
  struct DecodedValue {
    uint32_t attr_index;
    uint32_t storage_index;
  };
  std::vector<DecodedValue> decoded_values_;
};

Status Parser::ParseName(std::string_view* name) {
  size_t start = pos_;
  if (AtEnd() || !IsNameStartChar(Peek())) {
    return Error("expected a name");
  }
  ++pos_;
  while (!AtEnd() && IsNameChar(Peek())) ++pos_;
  *name = input_.substr(start, pos_ - start);
  return Status::Ok();
}

Status Parser::AppendReference(std::string* out) {
  // pos_ is at '&'.
  size_t end = input_.find(';', pos_);
  if (end == std::string_view::npos || end - pos_ > 12) {
    return Error("unterminated entity reference");
  }
  std::string_view body = input_.substr(pos_ + 1, end - pos_ - 1);
  pos_ = end + 1;
  if (body == "lt") {
    out->push_back('<');
  } else if (body == "gt") {
    out->push_back('>');
  } else if (body == "amp") {
    out->push_back('&');
  } else if (body == "apos") {
    out->push_back('\'');
  } else if (body == "quot") {
    out->push_back('"');
  } else if (!body.empty() && body[0] == '#') {
    uint32_t cp = 0;
    bool ok = body.size() > 1;
    if (body.size() > 2 && (body[1] == 'x' || body[1] == 'X')) {
      for (size_t i = 2; i < body.size() && ok; ++i) {
        char c = body[i];
        uint32_t digit;
        if (c >= '0' && c <= '9') {
          digit = static_cast<uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          digit = static_cast<uint32_t>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
          digit = static_cast<uint32_t>(c - 'A' + 10);
        } else {
          ok = false;
          break;
        }
        cp = cp * 16 + digit;
      }
    } else {
      for (size_t i = 1; i < body.size() && ok; ++i) {
        if (body[i] < '0' || body[i] > '9') {
          ok = false;
          break;
        }
        cp = cp * 10 + static_cast<uint32_t>(body[i] - '0');
      }
    }
    if (!ok || cp == 0 || cp > 0x10ffff) {
      return Error("malformed character reference");
    }
    AppendUtf8(cp, out);
  } else {
    return Error("unknown entity '&" + std::string(body) + ";'");
  }
  return Status::Ok();
}

void Parser::AddTextPiece(std::string_view piece, size_t begin_offset) {
  if (piece.empty()) return;
  if (pending_view_.empty() && pending_text_.empty()) {
    pending_text_begin_ = begin_offset;
    pending_view_ = piece;
  } else {
    MaterializePendingText();
    pending_text_.append(piece);
  }
  if (!IsAllXmlWhitespace(piece)) pending_text_nonempty_ = true;
}

Status Parser::FlushText() {
  if (!pending_view_.empty()) {
    // The zero-copy fast path: one uninterrupted run, handed to the
    // handler as a view into input_ (splicing sinks detect this by
    // pointer identity and copy the raw span instead of re-escaping).
    std::string_view text = pending_view_;
    pending_view_ = {};
    bool emit = pending_text_nonempty_ || options_.keep_whitespace_text;
    pending_text_nonempty_ = false;
    if (emit) {
      SetSpan(pending_text_begin_, pos_);
      return handler_->Characters(text);
    }
    return Status::Ok();
  }
  if (pending_text_.empty()) return Status::Ok();
  bool emit = pending_text_nonempty_ || options_.keep_whitespace_text;
  std::string text = std::move(pending_text_);
  pending_text_.clear();
  pending_text_nonempty_ = false;
  if (emit) {
    // pos_ is at the markup that terminated the run, so the span covers
    // every text/CDATA/reference piece accumulated since it began.
    SetSpan(pending_text_begin_, pos_);
    return handler_->Characters(text);
  }
  return Status::Ok();
}

Status Parser::SkipComment() {
  // pos_ is at "<!--".
  size_t end = input_.find("-->", pos_ + 4);
  if (end == std::string_view::npos) return Error("unterminated comment");
  pos_ = end + 3;
  return Status::Ok();
}

Status Parser::SkipProcessingInstruction() {
  // pos_ is at "<?".
  size_t end = input_.find("?>", pos_ + 2);
  if (end == std::string_view::npos) {
    return Error("unterminated processing instruction");
  }
  pos_ = end + 2;
  return Status::Ok();
}

Status Parser::ParseDoctype() {
  // pos_ is at "<!DOCTYPE".
  size_t doctype_begin = pos_;
  pos_ += 9;
  SkipSpace();
  std::string_view name;
  XMLPROJ_RETURN_IF_ERROR(ParseName(&name));
  std::string_view internal_subset;
  // Scan to the closing '>', capturing an internal subset if present.
  while (!AtEnd() && Peek() != '>' && Peek() != '[') ++pos_;
  if (!AtEnd() && Peek() == '[') {
    size_t subset_start = pos_ + 1;
    size_t end = input_.find(']', subset_start);
    if (end == std::string_view::npos) {
      return Error("unterminated DOCTYPE internal subset");
    }
    internal_subset = input_.substr(subset_start, end - subset_start);
    pos_ = end + 1;
    while (!AtEnd() && Peek() != '>') ++pos_;
  }
  if (AtEnd()) return Error("unterminated DOCTYPE");
  ++pos_;  // '>'
  SetSpan(doctype_begin, pos_);
  return handler_->Doctype(name, internal_subset);
}

Status Parser::ParseAttributes() {
  while (true) {
    SkipSpace();
    if (AtEnd()) return Error("unterminated start tag");
    if (Peek() == '>' || Peek() == '/') return Status::Ok();
    std::string_view name;
    XMLPROJ_RETURN_IF_ERROR(ParseName(&name));
    SkipSpace();
    if (AtEnd() || Peek() != '=') return Error("expected '=' in attribute");
    ++pos_;
    SkipSpace();
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected quoted attribute value");
    }
    char quote = Peek();
    ++pos_;
    size_t value_begin = pos_;
    size_t quote_end = input_.find(quote, pos_);
    if (quote_end == std::string_view::npos) {
      return Error("unterminated attribute value");
    }
    const char* value_data = input_.data() + value_begin;
    size_t value_len = quote_end - value_begin;
    if (memchr(value_data, '<', value_len) != nullptr) {
      pos_ = value_begin +
             static_cast<size_t>(
                 static_cast<const char*>(memchr(value_data, '<', value_len)) -
                 value_data);
      return Error("'<' in attribute value");
    }
    if (memchr(value_data, '&', value_len) == nullptr) {
      // Zero-copy value: a view straight into the buffer.
      pos_ = quote_end + 1;
      attributes_.push_back(
          SaxAttribute{name, std::string_view(value_data, value_len)});
      continue;
    }
    // Slow path: references force decoding into owned storage. The view
    // is re-pointed by ParseStartTag once all attributes are parsed
    // (attr_storage_ may reallocate while growing).
    if (attr_storage_used_ == attr_storage_.size()) {
      attr_storage_.emplace_back();
    }
    std::string* value = &attr_storage_[attr_storage_used_];
    value->clear();
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '&') {
        XMLPROJ_RETURN_IF_ERROR(AppendReference(value));
      } else {
        value->push_back(Peek());
        ++pos_;
      }
    }
    if (AtEnd()) return Error("unterminated attribute value");
    ++pos_;  // closing quote
    decoded_values_.push_back(
        DecodedValue{static_cast<uint32_t>(attributes_.size()),
                     static_cast<uint32_t>(attr_storage_used_)});
    ++attr_storage_used_;
    attributes_.push_back(SaxAttribute{name, std::string_view()});
  }
}

Status Parser::ParseStartTag(bool* closed) {
  XMLPROJ_RETURN_IF_ERROR(XMLPROJ_FAULT_HIT(options_.fault, "xml.parse"));
  // pos_ is at '<' of a start tag.
  size_t tag_begin = pos_;
  ++pos_;
  std::string_view tag;
  XMLPROJ_RETURN_IF_ERROR(ParseName(&tag));
  attributes_.clear();
  attr_storage_used_ = 0;
  decoded_values_.clear();
  XMLPROJ_RETURN_IF_ERROR(ParseAttributes());
  // Re-point decoded views: attr_storage_ may have reallocated while
  // growing (zero-copy values already point into input_ and stay put).
  for (const DecodedValue& d : decoded_values_) {
    attributes_[d.attr_index].value = attr_storage_[d.storage_index];
  }
  bool self_closing = false;
  if (Peek() == '/') {
    self_closing = true;
    ++pos_;
    if (AtEnd() || Peek() != '>') return Error("expected '>' after '/'");
  }
  ++pos_;  // '>'
  // A self-closing tag is one markup span producing two events; both
  // report it.
  SetSpan(tag_begin, pos_);
  const size_t open_bytes =
      (open_tags_.empty() ? 0 : open_tags_.back().open_bytes) + tag.size() +
      kOpenElementBytes;
  if (open_bytes > open_bytes_peak_) open_bytes_peak_ = open_bytes;
  XMLPROJ_RETURN_IF_ERROR(handler_->StartElement(tag, attributes_));
  if (self_closing) {
    *closed = true;
    return handler_->EndElement(tag);
  }
  *closed = false;
  open_tags_.push_back(OpenTag{tag, open_bytes});
  return Status::Ok();
}

Status Parser::ParseTree() {
  bool closed = false;
  XMLPROJ_RETURN_IF_ERROR(ParseStartTag(&closed));
  const char* base = input_.data();
  const size_t limit = input_.size();
  while (!open_tags_.empty()) {
    if (AtEnd()) return Error("unexpected end of input inside element");
    char c = Peek();
    if (c == '<') {
      // Dispatch on the byte after '<': start and end tags are the hot
      // cases, comments/CDATA/PIs the cold ones.
      char next = pos_ + 1 < limit ? base[pos_ + 1] : '\0';
      if (next == '/') {
        XMLPROJ_RETURN_IF_ERROR(FlushText());
        size_t end_tag_begin = pos_;
        pos_ += 2;
        std::string_view name;
        XMLPROJ_RETURN_IF_ERROR(ParseName(&name));
        if (open_tags_.empty() || name != open_tags_.back().tag) {
          return Error("mismatched end tag </" + std::string(name) + ">");
        }
        SkipSpace();
        if (AtEnd() || Peek() != '>') return Error("malformed end tag");
        ++pos_;
        SetSpan(end_tag_begin, pos_);
        std::string_view closed_tag = open_tags_.back().tag;
        open_tags_.pop_back();
        XMLPROJ_RETURN_IF_ERROR(handler_->EndElement(closed_tag));
      } else if (next == '!') {
        if (LookingAt("<!--")) {
          XMLPROJ_RETURN_IF_ERROR(SkipComment());
        } else if (LookingAt("<![CDATA[")) {
          size_t end = input_.find("]]>", pos_ + 9);
          if (end == std::string_view::npos) {
            return Error("unterminated CDATA section");
          }
          AddTextPiece(input_.substr(pos_ + 9, end - pos_ - 9), pos_);
          pos_ = end + 3;
        } else {
          XMLPROJ_RETURN_IF_ERROR(FlushText());
          XMLPROJ_RETURN_IF_ERROR(ParseStartTag(&closed));
        }
      } else if (next == '?') {
        XMLPROJ_RETURN_IF_ERROR(SkipProcessingInstruction());
      } else {
        XMLPROJ_RETURN_IF_ERROR(FlushText());
        XMLPROJ_RETURN_IF_ERROR(ParseStartTag(&closed));
      }
    } else if (c == '&') {
      MaterializePendingText();
      if (pending_text_.empty()) pending_text_begin_ = pos_;
      size_t before = pending_text_.size();
      XMLPROJ_RETURN_IF_ERROR(AppendReference(&pending_text_));
      if (!IsAllXmlWhitespace(
              std::string_view(pending_text_).substr(before))) {
        pending_text_nonempty_ = true;
      }
    } else {
      // memchr-based run scan: find the next '<', then any '&' before it.
      size_t run_start = pos_;
      const void* lt = memchr(base + pos_, '<', limit - pos_);
      size_t lt_pos =
          lt != nullptr
              ? static_cast<size_t>(static_cast<const char*>(lt) - base)
              : limit;
      const void* amp = memchr(base + pos_, '&', lt_pos - pos_);
      pos_ = amp != nullptr
                 ? static_cast<size_t>(static_cast<const char*>(amp) - base)
                 : lt_pos;
      AddTextPiece(input_.substr(run_start, pos_ - run_start), run_start);
    }
  }
  return Status::Ok();
}

Status Parser::ParseProlog() {
  while (true) {
    SkipSpace();
    if (AtEnd()) return Error("no root element");
    if (LookingAt("<?")) {
      XMLPROJ_RETURN_IF_ERROR(SkipProcessingInstruction());
    } else if (LookingAt("<!--")) {
      XMLPROJ_RETURN_IF_ERROR(SkipComment());
    } else if (LookingAt("<!DOCTYPE")) {
      XMLPROJ_RETURN_IF_ERROR(ParseDoctype());
    } else if (Peek() == '<') {
      return Status::Ok();
    } else {
      return Error("text before root element");
    }
  }
}

Status Parser::Run() {
  handler_->SetLocator(&locator_);
  SetSpan(0, 0);
  XMLPROJ_RETURN_IF_ERROR(handler_->StartDocument());
  XMLPROJ_RETURN_IF_ERROR(ParseProlog());
  XMLPROJ_RETURN_IF_ERROR(ParseTree());
  // Trailing misc: comments, PIs, whitespace only.
  while (true) {
    SkipSpace();
    if (AtEnd()) break;
    if (LookingAt("<!--")) {
      XMLPROJ_RETURN_IF_ERROR(SkipComment());
    } else if (LookingAt("<?")) {
      XMLPROJ_RETURN_IF_ERROR(SkipProcessingInstruction());
    } else {
      return Error("content after root element");
    }
  }
  SetSpan(input_.size(), input_.size());
  return handler_->EndDocument();
}

}  // namespace

Status ParseXmlStream(std::string_view input, SaxHandler* handler,
                      const XmlParseOptions& options,
                      size_t* open_bytes_peak) {
  Parser parser(input, handler, options);
  Status status = parser.Run();
  if (open_bytes_peak != nullptr) *open_bytes_peak = parser.open_bytes_peak();
  return status;
}

Result<Document> ParseXml(std::string_view input,
                          const XmlParseOptions& options) {
  DomBuilderHandler handler;
  XMLPROJ_RETURN_IF_ERROR(ParseXmlStream(input, &handler, options));
  return handler.TakeDocument();
}

Result<std::string> DecodeXmlReferences(std::string_view text) {
  // Reuse the content scanner by wrapping the text in a root element would
  // be heavyweight; decode directly instead.
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out.push_back(text[i++]);
      continue;
    }
    size_t end = text.find(';', i);
    if (end == std::string_view::npos) {
      return ParseError("unterminated entity reference");
    }
    std::string_view body = text.substr(i + 1, end - i - 1);
    if (body == "lt") {
      out.push_back('<');
    } else if (body == "gt") {
      out.push_back('>');
    } else if (body == "amp") {
      out.push_back('&');
    } else if (body == "apos") {
      out.push_back('\'');
    } else if (body == "quot") {
      out.push_back('"');
    } else {
      return ParseError("unknown entity '&" + std::string(body) + ";'");
    }
    i = end + 1;
  }
  return out;
}

}  // namespace xmlproj
