// How deep the recursive-descent parsers (DTD content models, XPath,
// XQuery) let their input nest.
//
// Each level costs the parser stack frames, and the trees it builds are
// walked recursively later (analysis, evaluation, destruction). The text
// comes from outside the program, for example a POST to xmlprojd, so the
// parsers count levels and fail past kMaxParseDepth instead of letting
// the input choose how deep the stack grows.

#ifndef XMLPROJ_COMMON_NESTING_H_
#define XMLPROJ_COMMON_NESTING_H_

namespace xmlproj {

// Far above anything a real schema or query nests.
inline constexpr int kMaxParseDepth = 256;

// The levels one parser function has entered; it leaves them when the
// function returns.
class NestingGuard {
 public:
  explicit NestingGuard(int* depth) : depth_(depth) {}
  ~NestingGuard() { *depth_ -= entered_; }
  NestingGuard(const NestingGuard&) = delete;
  NestingGuard& operator=(const NestingGuard&) = delete;

  // Enters one more level; false once the depth passes kMaxParseDepth.
  bool Enter() {
    ++entered_;
    return ++*depth_ <= kMaxParseDepth;
  }

 private:
  int* depth_;
  int entered_ = 0;
};

}  // namespace xmlproj

#endif  // XMLPROJ_COMMON_NESTING_H_
