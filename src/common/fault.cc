#include "common/fault.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/strings.h"

namespace xmlproj {
namespace {

bool ParseCode(std::string_view token, StatusCode* code) {
  if (token == "delay" || token == "ok") {
    *code = StatusCode::kOk;
  } else if (token == "parse") {
    *code = StatusCode::kParseError;
  } else if (token == "invalid") {
    *code = StatusCode::kInvalid;
  } else if (token == "unsupported") {
    *code = StatusCode::kUnsupported;
  } else if (token == "notfound") {
    *code = StatusCode::kNotFound;
  } else if (token == "cancelled") {
    *code = StatusCode::kCancelled;
  } else if (token == "resource") {
    *code = StatusCode::kResourceExhausted;
  } else if (token == "deadline") {
    *code = StatusCode::kDeadlineExceeded;
  } else if (token == "unavailable") {
    *code = StatusCode::kUnavailable;
  } else if (token == "internal") {
    *code = StatusCode::kInternal;
  } else {
    return false;
  }
  return true;
}

}  // namespace

void FaultInjector::Arm(std::string_view failpoint, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  ArmedPoint& point = points_[std::string(failpoint)];
  point.spec = std::move(spec);
  point.rng = Rng(SeedFor(failpoint));
  point.hits = 0;
  point.fires = 0;
}

void FaultInjector::Disarm(std::string_view failpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(failpoint);
  if (it != points_.end()) points_.erase(it);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
}

uint64_t FaultInjector::SeedFor(std::string_view failpoint) const {
  uint64_t h = Fnv1a64(failpoint);
  return seed_ ^ (h == 0 ? 1 : h);
}

Status FaultInjector::ArmFromSpec(std::string_view spec_text) {
  for (std::string_view entry : Split(spec_text, ',')) {
    entry = StripWhitespace(entry);
    if (entry.empty()) continue;
    std::vector<std::string_view> fields = Split(entry, ':');
    if (fields.size() < 2 || fields.size() > 5 || fields[0].empty()) {
      return InvalidError("failpoint spec '" + std::string(entry) +
                          "' is not name:code[:prob[:max_fires[:delay_ms]]]");
    }
    FaultSpec spec;
    if (!ParseCode(fields[1], &spec.code)) {
      return InvalidError("failpoint spec '" + std::string(entry) +
                          "' has unknown status code '" +
                          std::string(fields[1]) + "'");
    }
    if (fields.size() > 2 &&
        (!ParseDouble(fields[2], &spec.probability) ||
         spec.probability < 0.0 || spec.probability > 1.0)) {
      return InvalidError("failpoint spec '" + std::string(entry) +
                          "' has bad probability '" + std::string(fields[2]) +
                          "'");
    }
    if (fields.size() > 3) {
      char* end = nullptr;
      std::string text(fields[3]);
      long fires = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || fires < -1) {
        return InvalidError("failpoint spec '" + std::string(entry) +
                            "' has bad max_fires '" + text + "'");
      }
      spec.max_fires = static_cast<int>(fires);
    }
    if (fields.size() > 4) {
      char* end = nullptr;
      std::string text(fields[4]);
      long delay = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || delay < 0) {
        return InvalidError("failpoint spec '" + std::string(entry) +
                            "' has bad delay_ms '" + text + "'");
      }
      spec.delay_ms = static_cast<uint64_t>(delay);
    }
    Arm(fields[0], std::move(spec));
  }
  return Status::Ok();
}

Status FaultInjector::MaybeFail(std::string_view failpoint) {
  StatusCode code;
  std::string message;
  uint64_t delay_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(failpoint);
    if (it == points_.end()) return Status::Ok();
    ArmedPoint& point = it->second;
    ++point.hits;
    if (point.spec.max_fires >= 0 &&
        point.fires >= static_cast<uint64_t>(point.spec.max_fires)) {
      return Status::Ok();
    }
    if (point.spec.probability < 1.0 &&
        point.rng.Double01() >= point.spec.probability) {
      return Status::Ok();
    }
    ++point.fires;
    code = point.spec.code;
    delay_ms = point.spec.delay_ms;
    if (code != StatusCode::kOk) {
      message = point.spec.message.empty()
                    ? "injected fault at failpoint '" +
                          std::string(failpoint) + "'"
                    : point.spec.message;
    }
  }
  // Sleep outside the lock: concurrent slow tasks must stall in parallel,
  // not serialize on the injector.
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  if (code == StatusCode::kOk) return Status::Ok();
  return Status(code, std::move(message));
}

uint64_t FaultInjector::HitCount(std::string_view failpoint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(failpoint);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::FireCount(std::string_view failpoint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(failpoint);
  return it == points_.end() ? 0 : it->second.fires;
}

FaultInjector* FaultInjector::FromEnv() {
  static FaultInjector* instance = []() -> FaultInjector* {
    const char* spec = std::getenv("XMLPROJ_FAILPOINTS");
    if (spec == nullptr || spec[0] == '\0') return nullptr;
    auto* injector = new FaultInjector();
    Status status = injector->ArmFromSpec(spec);
    if (!status.ok()) {
      std::fprintf(stderr, "XMLPROJ_FAILPOINTS: %s\n",
                   status.ToString().c_str());
    }
    return injector;
  }();
  return instance;
}

}  // namespace xmlproj
