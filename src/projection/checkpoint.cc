#include "projection/checkpoint.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "obs/export.h"

namespace xmlproj {
namespace {

constexpr uint64_t kFnv1aPrime = 0x100000001b3ull;

// JSON writer fragments, the same journal-style escaping as
// obs/journal.cc (a checkpoint line must survive any byte a stage name
// or workload label can carry).
void AppendJsonEscaped(std::string_view s, std::string* out) {
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
}

void AppendKeyU64(const char* key, uint64_t value, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(buf);
}

// 64-bit hashes are written as fixed-width hex *strings*: the journal's
// number path round-trips through double (53-bit mantissa), which would
// silently corrupt high hash bits.
void AppendKeyHex64(const char* key, uint64_t value, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  out->push_back('"');
  out->append(key);
  out->append("\":\"");
  out->append(buf);
  out->append("\"");
}

void AppendKeyString(const char* key, std::string_view value,
                     std::string* out) {
  out->push_back('"');
  out->append(key);
  out->append("\":\"");
  AppendJsonEscaped(value, out);
  out->append("\"");
}

bool ParseHex64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<uint64_t>(c - 'A' + 10);
    else return false;
  }
  *out = v;
  return true;
}

// Micro JSON reader, same dialect as obs/journal.cc: objects, strings,
// non-negative numbers, strict about everything else — which is the
// corrupt-line tolerance LoadCheckpoint() builds on. (Deliberately
// duplicated rather than exported from the journal: obs/ sits below this
// library and keeps its parser private to its own format.)
class JsonReader {
 public:
  explicit JsonReader(std::string_view in) : in_(in) {}

  bool AtEnd() {
    SkipSpace();
    return pos_ >= in_.size();
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= in_.size() || in_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < in_.size() && in_[pos_] == c;
  }

  bool ReadString(std::string* out) {
    SkipSpace();
    if (pos_ >= in_.size() || in_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= in_.size()) return false;
        char esc = in_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > in_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = in_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (code > 0x7f) return false;
            out->push_back(static_cast<char>(code));
            break;
          }
          default:
            return false;
        }
        continue;
      }
      out->push_back(c);
    }
    return false;  // unterminated
  }

  bool ReadU64(uint64_t* out) {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < in_.size() &&
           std::isdigit(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || pos_ - start > 20) return false;
    errno = 0;
    char* end = nullptr;
    std::string num(in_.substr(start, pos_ - start));
    uint64_t v = std::strtoull(num.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') return false;
    *out = v;
    return true;
  }

 private:
  void SkipSpace() {
    while (pos_ < in_.size() && (in_[pos_] == ' ' || in_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
};

uint64_t HashU64(uint64_t value, uint64_t seed) {
  char bytes[8];
  std::memcpy(bytes, &value, sizeof(bytes));
  return Fnv1a64(std::string_view(bytes, sizeof(bytes)), seed);
}

uint64_t HashNameSet(const NameSet& set, uint64_t seed) {
  uint64_t h = HashU64(set.universe_size(), seed);
  // No raw-word accessor on NameSet; a few hundred Contains() probes per
  // run is nothing, and the result is layout-independent.
  for (size_t n = 0; n < set.universe_size(); ++n) {
    if (set.Contains(static_cast<NameId>(n))) h = HashU64(n, h);
  }
  return h;
}

bool MkdirOneLevel(const std::string& dir, std::string* error) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (error != nullptr) {
      *error = "cannot create directory \"" + dir +
               "\": " + std::strerror(errno);
    }
    return false;
  }
  return true;
}

}  // namespace

uint64_t Fnv1a64(std::string_view data, uint64_t seed) {
  uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

uint64_t ContentHash64(std::string_view data) {
  uint64_t h = kFnv1aOffset ^ (data.size() * kFnv1aPrime);
  size_t pos = 0;
  for (; pos + 8 <= data.size(); pos += 8) {
    uint64_t word;
    std::memcpy(&word, data.data() + pos, sizeof(word));
    h = (h ^ word) * kFnv1aPrime;
  }
  return Fnv1a64(data.substr(pos), h);
}

StatusCode StatusCodeFromName(std::string_view name) {
  struct Entry {
    const char* name;
    StatusCode code;
  };
  static constexpr Entry kEntries[] = {
      {"OK", StatusCode::kOk},
      {"PARSE_ERROR", StatusCode::kParseError},
      {"INVALID", StatusCode::kInvalid},
      {"UNSUPPORTED", StatusCode::kUnsupported},
      {"NOT_FOUND", StatusCode::kNotFound},
      {"CANCELLED", StatusCode::kCancelled},
      {"RESOURCE_EXHAUSTED", StatusCode::kResourceExhausted},
      {"DEADLINE_EXCEEDED", StatusCode::kDeadlineExceeded},
      {"UNAVAILABLE", StatusCode::kUnavailable},
      {"INTERNAL", StatusCode::kInternal},
  };
  for (const Entry& e : kEntries) {
    if (name == e.name) return e.code;
  }
  return StatusCode::kInternal;
}

bool CheckpointBinding::Matches(const CheckpointBinding& other,
                                std::string* mismatch) const {
  auto fail = [&](const std::string& what) {
    if (mismatch != nullptr) *mismatch = what;
    return false;
  };
  if (tasks != other.tasks) {
    return fail("task count changed: checkpoint has " +
                std::to_string(tasks) + ", current run has " +
                std::to_string(other.tasks));
  }
  if (workload != other.workload) {
    return fail("workload changed: checkpoint is \"" + workload +
                "\", current run is \"" + other.workload + "\"");
  }
  if (corpus_digest != other.corpus_digest) {
    return fail("corpus digest changed: the input documents differ");
  }
  if (projector_hash != other.projector_hash) {
    return fail("projector hash changed: the workload projectors differ");
  }
  if (options_fingerprint != other.options_fingerprint) {
    return fail("options fingerprint changed: an output-shaping pipeline "
                "option (validate/policy/degrade/budget) differs");
  }
  return true;
}

CheckpointBinding ComputeCorpusBinding(std::span<const std::string> corpus,
                                       std::span<const NameSet> projectors,
                                       const PipelineOptions& options,
                                       std::string workload) {
  CheckpointBinding binding;
  binding.workload = std::move(workload);
  binding.tasks = corpus.size() * std::max<size_t>(1, projectors.size());

  uint64_t h = HashU64(corpus.size(), kFnv1aOffset);
  for (const std::string& doc : corpus) {
    h = HashU64(doc.size(), h);
    h = Fnv1a64(doc, h);
  }
  binding.corpus_digest = h;

  h = HashU64(projectors.size(), kFnv1aOffset);
  for (const NameSet& projector : projectors) h = HashNameSet(projector, h);
  binding.projector_hash = h;

  // Only fields that change which bytes a task produces or whether it
  // reaches a terminal outcome. Threads, telemetry, queue capacity and
  // drain settings are free to differ between the runs.
  h = HashU64(options.validate ? 1 : 0, kFnv1aOffset);
  h = HashU64(static_cast<uint64_t>(options.policy), h);
  h = HashU64(options.degrade_on_invalid ? 1 : 0, h);
  h = HashU64(options.budget.max_bytes, h);
  h = HashU64(options.budget.deadline_ms, h);
  // Hashes the removed chunking option as off, so older checkpoints resume.
  h = HashU64(0, h);
  binding.options_fingerprint = h;
  return binding;
}

RunCheckpoint::~RunCheckpoint() {
  if (file_ != nullptr) std::fclose(file_);
}

std::string RunCheckpoint::PathFor(const std::string& dir) {
  if (dir.empty() || dir.back() == '/') return dir + "checkpoint.jsonl";
  return dir + "/checkpoint.jsonl";
}

std::string RunCheckpoint::TaskOutputRelPath(uint64_t task) {
  return "out/task-" + std::to_string(task) + ".xml";
}

std::string RunCheckpoint::TaskOutputPath(const std::string& dir,
                                          uint64_t task) {
  std::string base = dir;
  if (!base.empty() && base.back() != '/') base.push_back('/');
  return base + TaskOutputRelPath(task);
}

Status RunCheckpoint::OpenFile(const std::string& dir, const char* mode) {
  if (dir.empty()) {
    return InvalidError("checkpoint directory must be non-empty");
  }
  std::string error;
  if (!MkdirOneLevel(dir, &error)) return UnavailableError(error);
  std::string out_dir = dir;
  if (out_dir.back() != '/') out_dir.push_back('/');
  out_dir += "out";
  if (!MkdirOneLevel(out_dir, &error)) return UnavailableError(error);
  std::string path = PathFor(dir);
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) {
    return UnavailableError("cannot open checkpoint \"" + path +
                            "\": " + std::strerror(errno));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  dir_ = dir;
  path_ = std::move(path);
  appends_ = 0;
  return Status::Ok();
}

Status RunCheckpoint::Create(const std::string& dir,
                             const CheckpointHeader& header) {
  XMLPROJ_RETURN_IF_ERROR(OpenFile(dir, "we"));
  std::string line = FormatHeader(header);
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    return UnavailableError("cannot write checkpoint header to \"" + path_ +
                            "\": " + std::strerror(errno));
  }
  return Status::Ok();
}

Status RunCheckpoint::OpenForAppend(const std::string& dir) {
  return OpenFile(dir, "ae");
}

Status RunCheckpoint::CommitOutput(uint64_t task,
                                   const std::string& content) const {
  std::string error;
  // fsync before rename: the whole point is that a file present in out/
  // after a crash is complete and durable.
  if (!AtomicWriteTextFile(TaskOutputPath(dir_, task), content,
                           /*fsync_file=*/true, &error)) {
    return UnavailableError("checkpoint commit failed: " + error);
  }
  return Status::Ok();
}

Status RunCheckpoint::AppendTask(const CheckpointTaskRecord& record) {
  std::string line = FormatRecord(record);
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {
    return InternalError("checkpoint is not open");
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    return UnavailableError("cannot append to checkpoint \"" + path_ +
                            "\": " + std::strerror(errno));
  }
  ++appends_;
  return Status::Ok();
}

uint64_t RunCheckpoint::appends() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appends_;
}

std::string RunCheckpoint::FormatHeader(const CheckpointHeader& header) {
  std::string out;
  out.reserve(256);
  out.append("{\"type\":\"header\",");
  AppendKeyString("run_id", header.run_id, &out);
  out.push_back(',');
  AppendKeyU64("started_unix_ms", header.started_unix_ms, &out);
  out.push_back(',');
  AppendKeyU64("tasks", header.binding.tasks, &out);
  out.push_back(',');
  AppendKeyString("workload", header.binding.workload, &out);
  out.push_back(',');
  AppendKeyHex64("corpus_digest", header.binding.corpus_digest, &out);
  out.push_back(',');
  AppendKeyHex64("projector_hash", header.binding.projector_hash, &out);
  out.push_back(',');
  AppendKeyHex64("options_fingerprint", header.binding.options_fingerprint,
                 &out);
  out.push_back('}');
  return out;
}

std::string RunCheckpoint::FormatRecord(const CheckpointTaskRecord& record) {
  std::string out;
  out.reserve(256);
  out.append("{\"type\":\"task\",");
  AppendKeyU64("task", record.task, &out);
  out.append(",\"outcome\":\"");
  out.append(record.completed ? "completed" : "quarantined");
  out.append("\"");
  if (record.completed) {
    out.push_back(',');
    AppendKeyString("path", record.output_path, &out);
    out.push_back(',');
    AppendKeyU64("bytes", record.output_bytes, &out);
    out.push_back(',');
    AppendKeyHex64("hash", record.output_hash, &out);
    out.push_back(',');
    AppendKeyU64("degraded", record.degraded ? 1 : 0, &out);
    out.push_back(',');
    AppendKeyU64("input_bytes", record.input_bytes, &out);
    out.push_back(',');
    AppendKeyU64("input_nodes", record.input_nodes, &out);
    out.push_back(',');
    AppendKeyU64("kept_nodes", record.kept_nodes, &out);
    out.push_back(',');
    AppendKeyU64("input_text_bytes", record.input_text_bytes, &out);
    out.push_back(',');
    AppendKeyU64("kept_text_bytes", record.kept_text_bytes, &out);
  } else {
    out.push_back(',');
    AppendKeyString("stage", record.stage, &out);
    out.push_back(',');
    AppendKeyString("code", record.code, &out);
    out.push_back(',');
    AppendKeyU64("attempts",
                 static_cast<uint64_t>(record.attempts < 1 ? 1
                                                           : record.attempts),
                 &out);
  }
  out.push_back('}');
  return out;
}

namespace {

// Shared object-scanning loop for header and task lines. Returns false
// on any malformed line; `type_out` receives the "type" value and the
// field callback handles everything else.
template <typename FieldFn>
bool ParseCheckpointObject(std::string_view line, std::string* type_out,
                           FieldFn&& field) {
  JsonReader r(line);
  if (!r.Consume('{')) return false;
  bool first = true;
  while (!r.Peek('}')) {
    if (!first && !r.Consume(',')) return false;
    first = false;
    std::string key;
    if (!r.ReadString(&key) || !r.Consume(':')) return false;
    if (key == "type") {
      if (!r.ReadString(type_out)) return false;
      continue;
    }
    if (!field(key, r)) return false;
  }
  if (!r.Consume('}') || !r.AtEnd()) return false;
  return true;
}

// Unknown-key tolerance, same contract as the journal: a newer writer
// may add scalar fields without breaking this reader.
bool SkipScalar(JsonReader& r) {
  std::string sink_s;
  uint64_t sink_u = 0;
  return r.ReadString(&sink_s) || r.ReadU64(&sink_u);
}

}  // namespace

bool RunCheckpoint::ParseHeader(std::string_view line, CheckpointHeader* out) {
  CheckpointHeader header;
  std::string type;
  bool ok = ParseCheckpointObject(
      line, &type, [&](const std::string& key, JsonReader& r) {
        if (key == "run_id") return r.ReadString(&header.run_id);
        if (key == "started_unix_ms") {
          return r.ReadU64(&header.started_unix_ms);
        }
        if (key == "tasks") return r.ReadU64(&header.binding.tasks);
        if (key == "workload") return r.ReadString(&header.binding.workload);
        std::string hex;
        if (key == "corpus_digest") {
          return r.ReadString(&hex) &&
                 ParseHex64(hex, &header.binding.corpus_digest);
        }
        if (key == "projector_hash") {
          return r.ReadString(&hex) &&
                 ParseHex64(hex, &header.binding.projector_hash);
        }
        if (key == "options_fingerprint") {
          return r.ReadString(&hex) &&
                 ParseHex64(hex, &header.binding.options_fingerprint);
        }
        return SkipScalar(r);
      });
  if (!ok || type != "header" || header.run_id.empty()) return false;
  *out = std::move(header);
  return true;
}

bool RunCheckpoint::ParseRecord(std::string_view line,
                                CheckpointTaskRecord* out) {
  CheckpointTaskRecord record;
  std::string type;
  std::string outcome;
  bool saw_task = false;
  bool ok = ParseCheckpointObject(
      line, &type, [&](const std::string& key, JsonReader& r) {
        if (key == "task") {
          saw_task = true;
          return r.ReadU64(&record.task);
        }
        if (key == "outcome") return r.ReadString(&outcome);
        if (key == "path") return r.ReadString(&record.output_path);
        if (key == "bytes") return r.ReadU64(&record.output_bytes);
        if (key == "hash") {
          std::string hex;
          return r.ReadString(&hex) && ParseHex64(hex, &record.output_hash);
        }
        if (key == "degraded") {
          uint64_t v = 0;
          if (!r.ReadU64(&v)) return false;
          record.degraded = v != 0;
          return true;
        }
        if (key == "input_bytes") return r.ReadU64(&record.input_bytes);
        if (key == "input_nodes") return r.ReadU64(&record.input_nodes);
        if (key == "kept_nodes") return r.ReadU64(&record.kept_nodes);
        if (key == "input_text_bytes") {
          return r.ReadU64(&record.input_text_bytes);
        }
        if (key == "kept_text_bytes") {
          return r.ReadU64(&record.kept_text_bytes);
        }
        if (key == "stage") return r.ReadString(&record.stage);
        if (key == "code") return r.ReadString(&record.code);
        if (key == "attempts") {
          uint64_t v = 0;
          if (!r.ReadU64(&v)) return false;
          record.attempts = static_cast<int>(v);
          return true;
        }
        return SkipScalar(r);
      });
  if (!ok || type != "task" || !saw_task) return false;
  if (outcome == "completed") {
    record.completed = true;
    if (record.output_path.empty()) return false;
  } else if (outcome == "quarantined") {
    record.completed = false;
    if (record.stage.empty() || record.code.empty()) return false;
  } else {
    return false;
  }
  *out = std::move(record);
  return true;
}

bool RunCheckpoint::LoadCheckpoint(const std::string& dir,
                                   CheckpointHeader* header,
                                   std::vector<CheckpointTaskRecord>* records,
                                   size_t* skipped_lines, std::string* error) {
  records->clear();
  if (skipped_lines != nullptr) *skipped_lines = 0;
  std::string path = PathFor(dir);
  std::FILE* f = std::fopen(path.c_str(), "re");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot read checkpoint \"" + path +
               "\": " + std::strerror(errno);
    }
    return false;
  }
  bool have_header = false;
  std::string line;
  char buf[4096];
  auto flush_line = [&]() {
    if (line.empty()) return;
    if (!have_header) {
      // The header must be the first parseable line; anything before it
      // means the file is not a checkpoint.
      have_header = ParseHeader(line, header);
      if (!have_header && skipped_lines != nullptr) ++*skipped_lines;
      line.clear();
      return;
    }
    CheckpointTaskRecord record;
    if (ParseRecord(line, &record)) {
      records->push_back(std::move(record));
    } else if (skipped_lines != nullptr) {
      ++*skipped_lines;
    }
    line.clear();
  };
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    line.append(buf);
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      flush_line();
    }
  }
  // A final line without '\n' is a torn append — try it anyway.
  flush_line();
  std::fclose(f);
  if (!have_header) {
    if (error != nullptr) {
      *error = "checkpoint \"" + path + "\" has no valid header line";
    }
    return false;
  }
  return true;
}

ResumePlan PlanResume(const std::string& dir,
                      const CheckpointBinding& binding,
                      bool retry_quarantined) {
  ResumePlan plan;
  CheckpointHeader header;
  std::vector<CheckpointTaskRecord> records;
  std::string error;
  if (!RunCheckpoint::LoadCheckpoint(dir, &header, &records, &plan.torn_lines,
                                     &error)) {
    plan.mismatch = error;
    return plan;
  }
  if (!header.binding.Matches(binding, &plan.mismatch)) return plan;
  plan.run_id = header.run_id;
  plan.done.assign(binding.tasks, 0);

  // Last record per task wins: a watchdog quarantine written while the
  // task was still wedged is superseded if the task later completed, and
  // a retried task's final outcome supersedes its earlier failures.
  std::unordered_map<uint64_t, const CheckpointTaskRecord*> last;
  for (const CheckpointTaskRecord& record : records) {
    if (record.task >= binding.tasks) {
      ++plan.torn_lines;  // out-of-range: treat like a corrupt line
      continue;
    }
    last[record.task] = &record;
  }

  for (const auto& [task, record] : last) {
    if (!record->completed) {
      if (retry_quarantined) {
        ++plan.retry_quarantined;
        continue;
      }
      plan.done[task] = 1;
      ++plan.skipped_quarantined;
      TaskFailure failure;
      failure.task = task;
      failure.stage = record->stage;
      failure.status = Status(StatusCodeFromName(record->code),
                              "quarantined by interrupted run " +
                                  header.run_id + " (stage " + record->stage +
                                  "), not re-admitted; use "
                                  "--resume-retry-quarantined to re-run");
      failure.attempts = record->attempts;
      plan.prior_failures.push_back(std::move(failure));
      continue;
    }
    // Completed: trust nothing — the committed output must exist with
    // the recorded size and content hash, or the task re-runs.
    std::ifstream in(RunCheckpoint::TaskOutputPath(dir, task),
                     std::ios::binary);
    std::string content;
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      if (!in.bad()) content = std::move(buffer).str();
    }
    if (!in || content.size() != record->output_bytes ||
        ContentHash64(content) != record->output_hash) {
      ++plan.invalidated;
      continue;
    }
    plan.done[task] = 1;
    ++plan.skipped_completed;
    PipelineResult result;
    result.stats.input_nodes = record->input_nodes;
    result.stats.kept_nodes = record->kept_nodes;
    result.stats.input_text_bytes = record->input_text_bytes;
    result.stats.kept_text_bytes = record->kept_text_bytes;
    plan.prior.AddTask(record->input_bytes, result);
    // AddTask reads output size from the (empty) result; fix it up from
    // the record so byte totals fold exactly.
    plan.prior.output_bytes += record->output_bytes;
    if (record->degraded) ++plan.prior.degraded;
  }
  std::sort(plan.prior_failures.begin(), plan.prior_failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.task < b.task;
            });
  plan.resumable = true;
  return plan;
}

}  // namespace xmlproj
