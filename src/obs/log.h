// Leveled, rate-limited, one-line-JSON structured logging.
//
// The daemon's log plane: every line is a single JSON object
// (`{"ts_unix_ms":...,"level":"info","event":"http.access",...}`) so
// logs grep/jq-join against the run journal, the OTLP exports, and
// /tracez by trace_id and workload. Standard library only, written
// through the shared JSON codec (obs/json.h).
//
// Call sites hold a nullable StructuredLogger* and follow the
// null-pointer idiom of every other instrumentation hook: a null
// logger costs one pointer compare, an off-level line one enum
// compare — no formatting, no lock.
//
// Rate limiting is a per-second budget: past
// `max_lines_per_second` within one wall-clock second, lines are
// dropped and counted; the first line of the next second is preceded
// by a `log.dropped` summary so the gap is visible in the stream
// itself. Error-level lines bypass the limiter — an error burst is
// exactly what the log is for.

#ifndef XMLPROJ_OBS_LOG_H_
#define XMLPROJ_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>

namespace xmlproj {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

// "debug" | "info" | "warn" | "error" → level; false on anything else.
bool ParseLogLevel(std::string_view text, LogLevel* out);
const char* LogLevelName(LogLevel level);

// One key/value on a log line. Values are strings or 64-bit integers —
// the two shapes every consumer (jq, grep, a log pipeline) handles
// without schema negotiation.
struct LogField {
  LogField(std::string_view k, std::string_view v)
      : key(k), text(v), is_text(true) {}
  LogField(std::string_view k, const char* v)
      : key(k), text(v), is_text(true) {}
  LogField(std::string_view k, const std::string& v)
      : key(k), text(v), is_text(true) {}
  LogField(std::string_view k, int64_t v) : key(k), number(v) {}
  LogField(std::string_view k, uint64_t v)
      : key(k), number(static_cast<int64_t>(v)) {}
  LogField(std::string_view k, int v) : key(k), number(v) {}

  std::string_view key;
  std::string_view text;
  int64_t number = 0;
  bool is_text = false;
};

struct StructuredLoggerOptions {
  LogLevel min_level = LogLevel::kInfo;
  // Lines per wall-clock second before dropping (error lines exempt);
  // 0 disables the limiter.
  uint64_t max_lines_per_second = 1000;
};

class StructuredLogger {
 public:
  StructuredLogger() = default;
  ~StructuredLogger() { Close(); }
  StructuredLogger(const StructuredLogger&) = delete;
  StructuredLogger& operator=(const StructuredLogger&) = delete;

  // Opens the destination: "stderr" (never closed) or a file path
  // (append mode, O_CLOEXEC). False with a description on failure.
  bool Open(const std::string& destination,
            const StructuredLoggerOptions& options, std::string* error);
  bool Open(const std::string& destination, std::string* error) {
    return Open(destination, StructuredLoggerOptions{}, error);
  }

  // Emits one line. Below min_level: one comparison and out. Fields
  // with empty keys are skipped; "ts_unix_ms", "level" and "event" are
  // reserved keys the logger itself writes.
  void Log(LogLevel level, std::string_view event,
           std::initializer_list<LogField> fields);

  // The call-site fast path: lock-free, so a disabled level costs two
  // relaxed loads and nothing else.
  bool enabled(LogLevel level) const {
    return open_.load(std::memory_order_relaxed) &&
           static_cast<int>(level) >= min_level_.load(std::memory_order_relaxed);
  }

  uint64_t lines_written() const;
  uint64_t lines_dropped() const;

  // Flushes and closes a file destination (stderr stays open).
  // Idempotent; Open may be called again after.
  void Close();

 private:
  std::atomic<bool> open_{false};
  std::atomic<int> min_level_{static_cast<int>(LogLevel::kInfo)};
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  StructuredLoggerOptions options_;
  mutable std::mutex mu_;
  uint64_t window_second_ = 0;   // wall-clock second of the open window
  uint64_t window_lines_ = 0;    // lines emitted in the window
  uint64_t window_dropped_ = 0;  // lines dropped in the window
  uint64_t written_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace xmlproj

#endif  // XMLPROJ_OBS_LOG_H_
