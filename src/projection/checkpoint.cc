#include "projection/checkpoint.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "obs/export.h"
#include "obs/json.h"

namespace xmlproj {
namespace {

void AppendKeyU64(const char* key, uint64_t value, std::string* out) {
  out->push_back('"');
  out->append(key);
  out->append("\":");
  AppendU64(value, out);
}

// 64-bit hashes stay fixed-width hex strings: the format predates exact
// integer reads, and checkpoints written since must keep resuming.
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
  out->append("\":");
  AppendJsonString(value, out);
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

bool ReadHex64(JsonReader& r, uint64_t* out) {
  std::string hex;
  return r.ReadString(&hex) && ParseHex64(hex, out);
}

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
  // reaches a terminal outcome. Threads, telemetry and drain settings
  // are free to differ between the runs.
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
  std::lock_guard<std::mutex> lock(mutex_);
  if (!AppendJsonlLine(file_, std::move(line), /*durable=*/true)) {
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
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {
    return InternalError("checkpoint is not open");
  }
  if (!AppendJsonlLine(file_, std::move(line), /*durable=*/true)) {
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
  }
  out.push_back('}');
  return out;
}

bool RunCheckpoint::ParseHeader(std::string_view line, CheckpointHeader* out) {
  JsonReader r(line);
  CheckpointHeader header;
  std::string type;
  bool ok = r.ReadObject([&](const std::string& key) {
    if (key == "type") return r.ReadString(&type);
    if (key == "run_id") return r.ReadString(&header.run_id);
    if (key == "started_unix_ms") return r.ReadU64(&header.started_unix_ms);
    if (key == "tasks") return r.ReadU64(&header.binding.tasks);
    if (key == "workload") return r.ReadString(&header.binding.workload);
    if (key == "corpus_digest") {
      return ReadHex64(r, &header.binding.corpus_digest);
    }
    if (key == "projector_hash") {
      return ReadHex64(r, &header.binding.projector_hash);
    }
    if (key == "options_fingerprint") {
      return ReadHex64(r, &header.binding.options_fingerprint);
    }
    return r.SkipScalar();
  });
  if (!ok || !r.AtEnd() || type != "header" || header.run_id.empty()) {
    return false;
  }
  *out = std::move(header);
  return true;
}

bool RunCheckpoint::ParseRecord(std::string_view line,
                                CheckpointTaskRecord* out) {
  JsonReader r(line);
  CheckpointTaskRecord record;
  std::string type;
  std::string outcome;
  bool saw_task = false;
  uint64_t degraded = 0;
  bool ok = r.ReadObject([&](const std::string& key) {
    if (key == "type") return r.ReadString(&type);
    if (key == "task") {
      saw_task = true;
      return r.ReadU64(&record.task);
    }
    if (key == "outcome") return r.ReadString(&outcome);
    if (key == "path") return r.ReadString(&record.output_path);
    if (key == "bytes") return r.ReadU64(&record.output_bytes);
    if (key == "hash") return ReadHex64(r, &record.output_hash);
    if (key == "degraded") return r.ReadU64(&degraded);
    if (key == "input_bytes") return r.ReadU64(&record.input_bytes);
    if (key == "input_nodes") return r.ReadU64(&record.input_nodes);
    if (key == "kept_nodes") return r.ReadU64(&record.kept_nodes);
    if (key == "input_text_bytes") return r.ReadU64(&record.input_text_bytes);
    if (key == "kept_text_bytes") return r.ReadU64(&record.kept_text_bytes);
    if (key == "stage") return r.ReadString(&record.stage);
    if (key == "code") return r.ReadString(&record.code);
    return r.SkipScalar();
  });
  if (!ok || !r.AtEnd() || type != "task" || !saw_task) return false;
  record.degraded = degraded != 0;
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
  std::string path = PathFor(dir);
  bool have_header = false;
  bool opened = ReadJsonlLines(
      path,
      [&](std::string_view line) {
        // The header must be the first parseable line; anything before
        // it means the file is not a checkpoint.
        if (!have_header) {
          have_header = ParseHeader(line, header);
          return have_header;
        }
        CheckpointTaskRecord record;
        if (!ParseRecord(line, &record)) return false;
        records->push_back(std::move(record));
        return true;
      },
      skipped_lines);
  if (!opened) {
    if (error != nullptr) {
      *error = "cannot read checkpoint \"" + path +
               "\": " + std::strerror(errno);
    }
    return false;
  }
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

  // Last record per task wins: a re-admitted task's new outcome
  // supersedes its earlier one.
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
