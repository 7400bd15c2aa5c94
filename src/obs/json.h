// The one JSON codec in the tree: every error body, /statusz block,
// metrics export, trace, log line, OTLP span line, run-journal record
// and checkpoint line is written and read through this file.
//
// Writers still spell out their own records — each owner knows the
// field order its format pins — and call in here for the parts that must
// agree everywhere: string escaping and integer formatting. The reader
// is deliberately narrow: objects, strings and exact uint64, plus a
// double only where the caller asks for one. Anything else fails, which
// is what the JSONL loaders' corrupt-line tolerance builds on.
//
// Like the rest of obs/, standard library + POSIX only.

#ifndef XMLPROJ_OBS_JSON_H_
#define XMLPROJ_OBS_JSON_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

namespace xmlproj {

// Appends `s` as a quoted JSON string, escaping `\"`, `\\`, `\n`, `\r`,
// `\t`, and the other bytes below 0x20 as `\u00XX`; every other byte
// (0x7f, UTF-8 sequences) goes out verbatim.
void AppendJsonString(std::string_view s, std::string* out);

// Decimal integers (JSON numbers, and the Prometheus text values).
void AppendU64(uint64_t v, std::string* out);
void AppendI64(int64_t v, std::string* out);

// Strict pull reader over one JSON text. JSON whitespace is skipped
// before every token; every Read* returns false on malformed input.
class JsonReader {
 public:
  explicit JsonReader(std::string_view in) : in_(in) {}

  // True when only whitespace is left.
  bool AtEnd();

  // Decodes the short escapes and `\u0000`–`\u007f`; a wider `\u`
  // escape or a raw control byte fails. `out` is cleared first.
  bool ReadString(std::string* out);
  // Digits only, exact: a sign, fraction, exponent, or a value above
  // UINT64_MAX fails. `out` is written only on success.
  bool ReadU64(uint64_t* out);
  // A JSON number, for the fields that are doubles.
  bool ReadDouble(double* out);
  // Skips one string or number: a newer writer's unknown field.
  bool SkipScalar();

  // Reads `{"key": value, ...}`, calling `field(key)` once per member;
  // `field` must consume the value from this reader and return false to
  // reject it.
  template <typename Fn>
  bool ReadObject(Fn&& field) {
    if (!Consume('{')) return false;
    std::string key;
    for (bool first = true; !Peek('}'); first = false) {
      if (!first && !Consume(',')) return false;
      if (!ReadString(&key) || !Consume(':') || !field(key)) return false;
    }
    return Consume('}');
  }

  // Reads `[value, ...]`, calling `element()` once per element.
  template <typename Fn>
  bool ReadArray(Fn&& element) {
    if (!Consume('[')) return false;
    for (bool first = true; !Peek(']'); first = false) {
      if (!first && !Consume(',')) return false;
      if (!element()) return false;
    }
    return Consume(']');
  }

 private:
  bool Consume(char c);
  bool Peek(char c);
  void SkipSpace();
  // Length of the JSON number at the cursor, 0 when there is none.
  size_t NumberLength() const;

  std::string_view in_;
  size_t pos_ = 0;
};

// Appends `line` and a newline to `file` in one write and flushes it to
// the OS; with `durable`, fsync()s it too. False on any failure, with
// errno describing it. Locking stays with the caller.
bool AppendJsonlLine(std::FILE* file, std::string line, bool durable);

// Calls `parse` on every non-empty line of `path`, in file order and
// without the newline. Lines longer than the read buffer are joined; a
// final line with no newline (a torn append) is tried too. Each line
// `parse` rejects is counted into *skipped_lines (nullable; reset
// first). False only when the file cannot be opened, with errno set.
bool ReadJsonlLines(const std::string& path,
                    const std::function<bool(std::string_view)>& parse,
                    size_t* skipped_lines);

}  // namespace xmlproj

#endif  // XMLPROJ_OBS_JSON_H_
