// Lightweight error propagation for a no-exceptions codebase.
//
// All fallible operations in this library return Status (no payload) or
// Result<T> (payload or error). Both carry a StatusCode and a human-readable
// message with enough context to diagnose a malformed document, DTD, or
// query without a debugger.

#ifndef XMLPROJ_COMMON_STATUS_H_
#define XMLPROJ_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace xmlproj {

enum class StatusCode {
  kOk = 0,
  // Input could not be parsed (XML, DTD, XPath or XQuery syntax errors).
  kParseError,
  // Input parsed but violates a semantic rule (e.g. document not valid
  // with respect to the DTD, duplicate element declaration).
  kInvalid,
  // The operation is outside the supported fragment (e.g. an XQuery
  // feature the evaluator does not implement).
  kUnsupported,
  // A lookup failed (unknown element name, unknown variable).
  kNotFound,
  // The operation was abandoned before it ran (e.g. a pipeline task
  // skipped after an earlier document failed).
  kCancelled,
  // A per-task resource budget was exhausted (e.g. the pruning pass hit
  // its byte cap). Retrying without raising the budget will fail again.
  kResourceExhausted,
  // A per-task wall-clock deadline passed before the operation finished.
  kDeadlineExceeded,
  // A failure outside the operation's input (e.g. an I/O error, or an open
  // circuit breaker): the same operation may succeed later.
  kUnavailable,
  kInternal,
  // Not an error: a SAX handler's verdict that the element whose
  // StartElement returned it is dropped whole (xml/sax.h). Event
  // producers consume it; no public entry point returns it.
  kSkipSubtree,
};

const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != StatusCode::kOk);
  }

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline Status ParseError(std::string message) {
  return Status(StatusCode::kParseError, std::move(message));
}
inline Status InvalidError(std::string message) {
  return Status(StatusCode::kInvalid, std::move(message));
}
inline Status UnsupportedError(std::string message) {
  return Status(StatusCode::kUnsupported, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status CancelledError(std::string message) {
  return Status(StatusCode::kCancelled, std::move(message));
}
inline Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
inline Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
inline Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
inline Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
// The skip verdict of SaxHandler::StartElement (xml/sax.h). Not ok(), so
// XMLPROJ_RETURN_IF_ERROR forwards it through filters unchanged.
inline Status SkipSubtree() {
  return Status(StatusCode::kSkipSubtree, std::string());
}

// Result<T> is either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagates a non-OK status out of the enclosing function.
#define XMLPROJ_RETURN_IF_ERROR(expr)         \
  do {                                        \
    ::xmlproj::Status _st = (expr);           \
    if (!_st.ok()) return _st;                \
  } while (0)

// Evaluates a Result expression, propagating errors, and binds the value.
#define XMLPROJ_ASSIGN_OR_RETURN(lhs, expr)   \
  XMLPROJ_ASSIGN_OR_RETURN_IMPL_(             \
      XMLPROJ_CONCAT_(_result_, __LINE__), lhs, expr)

#define XMLPROJ_CONCAT_INNER_(a, b) a##b
#define XMLPROJ_CONCAT_(a, b) XMLPROJ_CONCAT_INNER_(a, b)
#define XMLPROJ_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                   \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).value()

}  // namespace xmlproj

#endif  // XMLPROJ_COMMON_STATUS_H_
