#include "obs/log.h"

#include <cerrno>
#include <cstring>

#include "obs/json.h"
#include "obs/metrics.h"

namespace xmlproj {
namespace {

void FormatLine(uint64_t ts_unix_ms, LogLevel level, std::string_view event,
                std::initializer_list<LogField> fields, std::string* out) {
  out->append("{\"ts_unix_ms\":");
  AppendU64(ts_unix_ms, out);
  out->append(",\"level\":\"");
  out->append(LogLevelName(level));
  out->append("\",\"event\":");
  AppendJsonString(event, out);
  for (const LogField& field : fields) {
    if (field.key.empty()) continue;
    out->push_back(',');
    AppendJsonString(field.key, out);
    out->push_back(':');
    if (field.is_text) {
      AppendJsonString(field.text, out);
    } else {
      AppendI64(field.number, out);
    }
  }
  out->push_back('}');
}

}  // namespace

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  if (text == "debug") {
    *out = LogLevel::kDebug;
  } else if (text == "info") {
    *out = LogLevel::kInfo;
  } else if (text == "warn") {
    *out = LogLevel::kWarn;
  } else if (text == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

bool StructuredLogger::Open(const std::string& destination,
                            const StructuredLoggerOptions& options,
                            std::string* error) {
  Close();
  std::FILE* file;
  bool owns;
  if (destination == "stderr") {
    file = stderr;
    owns = false;
  } else {
    file = std::fopen(destination.c_str(), "ae");
    if (file == nullptr) {
      if (error != nullptr) {
        *error = "cannot open log file \"" + destination +
                 "\": " + std::strerror(errno);
      }
      return false;
    }
    owns = true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  file_ = file;
  owns_file_ = owns;
  options_ = options;
  window_second_ = 0;
  window_lines_ = 0;
  window_dropped_ = 0;
  written_ = 0;
  dropped_ = 0;
  min_level_.store(static_cast<int>(options.min_level),
                   std::memory_order_relaxed);
  open_.store(true, std::memory_order_release);
  return true;
}

void StructuredLogger::Log(LogLevel level, std::string_view event,
                           std::initializer_list<LogField> fields) {
  if (!enabled(level)) return;
  uint64_t now_ms = UnixNowMs();
  std::string line;
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;  // raced with Close
  uint64_t second = now_ms / 1000;
  if (second != window_second_) {
    // New wall-clock second: surface what the limiter swallowed before
    // anything else, so the stream itself records the gap.
    if (window_dropped_ > 0) {
      std::string summary;
      FormatLine(now_ms, LogLevel::kWarn, "log.dropped",
                 {{"lines", window_dropped_}, {"window_s", uint64_t{1}}},
                 &summary);
      AppendJsonlLine(file_, std::move(summary), /*durable=*/false);
      ++written_;
    }
    window_second_ = second;
    window_lines_ = 0;
    window_dropped_ = 0;
  }
  if (options_.max_lines_per_second != 0 &&
      window_lines_ >= options_.max_lines_per_second &&
      level < LogLevel::kError) {
    ++window_dropped_;
    ++dropped_;
    return;
  }
  FormatLine(now_ms, level, event, fields, &line);
  AppendJsonlLine(file_, std::move(line), /*durable=*/false);
  ++window_lines_;
  ++written_;
}

uint64_t StructuredLogger::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

uint64_t StructuredLogger::lines_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void StructuredLogger::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  open_.store(false, std::memory_order_release);
  if (file_ == nullptr) return;
  std::fflush(file_);
  if (owns_file_) std::fclose(file_);
  file_ = nullptr;
  owns_file_ = false;
}

}  // namespace xmlproj
