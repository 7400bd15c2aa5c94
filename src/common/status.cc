#include "common/status.h"

namespace xmlproj {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kParseError:
      return "PARSE_ERROR";
    case StatusCode::kInvalid:
      return "INVALID";
    case StatusCode::kUnsupported:
      return "UNSUPPORTED";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kSkipSubtree:
      return "SKIP_SUBTREE";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace xmlproj
