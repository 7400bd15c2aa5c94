#include "obs/journal.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <iterator>
#include <limits>

#include "obs/json.h"
#include "obs/metrics.h"

namespace xmlproj {

namespace {

// The integer fields in on-disk order: the first kFieldsBeforeWall
// precede wall_seconds, the rest follow it.
constexpr std::pair<const char*, uint64_t RunRecord::*> kU64Fields[] = {
    {"start_unix_ms", &RunRecord::start_unix_ms},
    {"end_unix_ms", &RunRecord::end_unix_ms},
    {"tasks", &RunRecord::tasks},
    {"failed", &RunRecord::failed},
    {"degraded", &RunRecord::degraded},
    {"input_bytes", &RunRecord::input_bytes},
    {"output_bytes", &RunRecord::output_bytes},
    {"peak_memory_bytes", &RunRecord::peak_memory_bytes},
    {"budget_trips", &RunRecord::budget_trips},
    {"resume_skipped", &RunRecord::resume_skipped},
    {"resume_rerun", &RunRecord::resume_rerun},
};
constexpr size_t kFieldsBeforeWall = 2;

}  // namespace

std::string GenerateRunId() {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "run-%011" PRIx64 "-%04x", UnixNowMs(),
                static_cast<unsigned>(::getpid()) & 0xffff);
  return buf;
}

RunJournal::~RunJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

std::string RunJournal::PathFor(const std::string& dir) {
  if (dir.empty() || dir.back() == '/') return dir + "journal.jsonl";
  return dir + "/journal.jsonl";
}

bool RunJournal::Open(const std::string& dir, std::string* error) {
  if (dir.empty()) {
    if (error != nullptr) *error = "journal directory must be non-empty";
    return false;
  }
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (error != nullptr) {
      *error = "cannot create journal directory \"" + dir +
               "\": " + std::strerror(errno);
    }
    return false;
  }
  std::string path = PathFor(dir);
  std::FILE* f = std::fopen(path.c_str(), "ae");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open journal \"" + path + "\": " + std::strerror(errno);
    }
    return false;
  }
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  path_ = std::move(path);
  return true;
}

std::string RunJournal::FormatRecord(const RunRecord& record) {
  std::string out = "{\"run_id\":";
  out.reserve(384);
  AppendJsonString(record.run_id, &out);
  out.append(",\"corpus\":");
  AppendJsonString(record.corpus, &out);
  for (size_t i = 0; i < std::size(kU64Fields); ++i) {
    if (i == kFieldsBeforeWall) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), ",\"wall_seconds\":%.6f",
                    record.wall_seconds);
      out.append(buf);
    }
    out.append(",\"").append(kU64Fields[i].first).append("\":");
    AppendU64(record.*kU64Fields[i].second, &out);
  }
  out.append(",\"quarantine\":{");
  for (size_t i = 0; i < record.quarantine.size(); ++i) {
    if (i != 0) out.push_back(',');
    AppendJsonString(record.quarantine[i].first, &out);
    out.push_back(':');
    AppendU64(record.quarantine[i].second, &out);
  }
  out.append("}}");
  return out;
}

bool RunJournal::ParseRecord(std::string_view line, RunRecord* out) {
  JsonReader r(line);
  RunRecord record;
  bool ok = r.ReadObject([&](const std::string& key) {
    if (key == "run_id") return r.ReadString(&record.run_id);
    if (key == "corpus") return r.ReadString(&record.corpus);
    if (key == "wall_seconds") return r.ReadDouble(&record.wall_seconds);
    if (key == "quarantine") {
      return r.ReadObject([&](const std::string& stage) {
        uint64_t count = 0;
        if (!r.ReadU64(&count)) return false;
        record.quarantine.emplace_back(stage, count);
        return true;
      });
    }
    for (const auto& [name, field] : kU64Fields) {
      if (key == name) return r.ReadU64(&(record.*field));
    }
    return r.SkipScalar();
  });
  if (!ok || !r.AtEnd()) return false;
  if (record.run_id.empty()) return false;  // not one of ours
  *out = std::move(record);
  return true;
}

bool RunJournal::Append(const RunRecord& record, std::string* error) {
  if (file_ == nullptr) {
    if (error != nullptr) *error = "journal is not open";
    return false;
  }
  if (!AppendJsonlLine(file_, FormatRecord(record), fsync_)) {
    if (error != nullptr) {
      *error = "cannot append to journal \"" + path_ +
               "\": " + std::strerror(errno);
    }
    return false;
  }
  return true;
}

bool RunJournal::Load(const std::string& dir, std::vector<RunRecord>* records,
                      size_t* skipped_lines, std::string* error) {
  records->clear();
  std::string path = PathFor(dir);
  bool opened = ReadJsonlLines(
      path,
      [records](std::string_view line) {
        RunRecord record;
        if (!ParseRecord(line, &record)) return false;
        records->push_back(std::move(record));
        return true;
      },
      skipped_lines);
  if (!opened) {
    if (errno == ENOENT) return true;  // first run: empty history
    if (error != nullptr) {
      *error = "cannot read journal \"" + path + "\": " + std::strerror(errno);
    }
    return false;
  }
  return true;
}

BudgetSuggestion SuggestBudgets(const std::vector<RunRecord>& records,
                                std::string_view corpus, double headroom) {
  BudgetSuggestion suggestion;
  std::vector<uint64_t> peaks;
  peaks.reserve(records.size());
  for (const RunRecord& record : records) {
    if (!corpus.empty() && record.corpus != corpus) continue;
    if (record.peak_memory_bytes == 0) continue;
    peaks.push_back(record.peak_memory_bytes);
  }
  suggestion.runs = peaks.size();
  if (peaks.empty()) return suggestion;
  std::sort(peaks.begin(), peaks.end());
  // 1-based rank-ceil p99, the same convention as Histogram's percentile.
  size_t rank = static_cast<size_t>(0.99 * static_cast<double>(peaks.size()));
  if (static_cast<double>(rank) < 0.99 * static_cast<double>(peaks.size())) {
    ++rank;
  }
  if (rank == 0) rank = 1;
  if (rank > peaks.size()) rank = peaks.size();
  suggestion.p99_peak_bytes = peaks[rank - 1];
  if (headroom < 1.0) headroom = 1.0;
  double scaled = static_cast<double>(suggestion.p99_peak_bytes) * headroom;
  // Saturate: casting a double >= 2^64 is undefined, and a 0 would mean
  // "no cap". The max() keeps double rounding from dipping below p99.
  suggestion.suggested_max_bytes =
      scaled >= static_cast<double>(std::numeric_limits<uint64_t>::max())
          ? std::numeric_limits<uint64_t>::max()
          : std::max(suggestion.p99_peak_bytes,
                     static_cast<uint64_t>(scaled));
  return suggestion;
}

}  // namespace xmlproj
