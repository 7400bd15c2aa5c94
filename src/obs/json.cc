#include "obs/json.h"

#include <unistd.h>

#include <charconv>

namespace xmlproj {
namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Parses all of `text` as one T; false when empty, out of range, or not
// wholly consumed.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  T v{};
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || stop != end) return false;
  *out = v;
  return true;
}

}  // namespace

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendI64(int64_t v, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void JsonReader::SkipSpace() {
  while (pos_ < in_.size() && (in_[pos_] == ' ' || in_[pos_] == '\t' ||
                               in_[pos_] == '\n' || in_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::Consume(char c) {
  if (!Peek(c)) return false;
  ++pos_;
  return true;
}

bool JsonReader::Peek(char c) {
  SkipSpace();
  return pos_ < in_.size() && in_[pos_] == c;
}

bool JsonReader::AtEnd() {
  SkipSpace();
  return pos_ >= in_.size();
}

bool JsonReader::ReadString(std::string* out) {
  if (!Consume('"')) return false;
  out->clear();
  while (pos_ < in_.size()) {
    char c = in_[pos_++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) return false;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (pos_ >= in_.size()) return false;
    switch (char esc = in_[pos_++]) {
      case '"':
      case '\\':
      case '/':
        out->push_back(esc);
        break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (in_.size() - pos_ < 4) return false;
        int code = 0;
        for (int i = 0; i < 4; ++i) {
          int digit = HexValue(in_[pos_++]);
          if (digit < 0) return false;
          code = code * 16 + digit;
        }
        // The writer only escapes control bytes this way; anything that
        // would need UTF-16 decoding is not ours.
        if (code > 0x7f) return false;
        out->push_back(static_cast<char>(code));
        break;
      }
      default:
        return false;
    }
  }
  return false;  // unterminated
}

size_t JsonReader::NumberLength() const {
  size_t i = pos_;
  auto digits = [&] {
    size_t start = i;
    while (i < in_.size() && IsDigit(in_[i])) ++i;
    return i > start;
  };
  if (i < in_.size() && in_[i] == '-') ++i;
  if (!digits()) return 0;
  if (i < in_.size() && in_[i] == '.') {
    ++i;
    if (!digits()) return 0;
  }
  if (i < in_.size() && (in_[i] == 'e' || in_[i] == 'E')) {
    ++i;
    if (i < in_.size() && (in_[i] == '+' || in_[i] == '-')) ++i;
    if (!digits()) return 0;
  }
  return i - pos_;
}

bool JsonReader::ReadU64(uint64_t* out) {
  SkipSpace();
  size_t length = NumberLength();
  // from_chars stops at the first non-digit: a sign, fraction or
  // exponent is left over, and so fails.
  if (!ParseWhole(in_.substr(pos_, length), out)) return false;
  pos_ += length;
  return true;
}

bool JsonReader::ReadDouble(double* out) {
  SkipSpace();
  size_t length = NumberLength();
  if (!ParseWhole(in_.substr(pos_, length), out)) return false;
  pos_ += length;
  return true;
}

bool JsonReader::SkipScalar() {
  if (Peek('"')) {
    std::string sink;
    return ReadString(&sink);
  }
  size_t length = NumberLength();
  pos_ += length;
  return length > 0;
}

bool AppendJsonlLine(std::FILE* file, std::string line, bool durable) {
  line.push_back('\n');
  return std::fwrite(line.data(), 1, line.size(), file) == line.size() &&
         std::fflush(file) == 0 && (!durable || ::fsync(::fileno(file)) == 0);
}

bool ReadJsonlLines(const std::string& path,
                    const std::function<bool(std::string_view)>& parse,
                    size_t* skipped_lines) {
  if (skipped_lines != nullptr) *skipped_lines = 0;
  std::FILE* f = std::fopen(path.c_str(), "re");
  if (f == nullptr) return false;
  std::string line;
  auto flush_line = [&] {
    if (!line.empty() && !parse(line) && skipped_lines != nullptr) {
      ++*skipped_lines;
    }
    line.clear();
  };
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    line.append(buf);
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      flush_line();
    }
  }
  flush_line();  // a final line without '\n' is a torn append: try it
  std::fclose(f);
  return true;
}

}  // namespace xmlproj
