#include "obs/slo.h"

#include <cstdio>

#include "obs/json.h"

namespace xmlproj {
namespace {

double BurnOf(uint64_t bad, uint64_t total, double objective) {
  if (total == 0) return 0;
  double budget = 1.0 - objective;
  if (budget <= 0) budget = 1e-9;  // a 100% objective: any failure burns hot
  return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
}

void AppendDouble(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

}  // namespace

SloTracker::SloTracker(const SloOptions& options) : options_(options) {}

uint64_t SloTracker::NowMs() const {
  return options_.now_ms != nullptr ? options_.now_ms() : UnixNowMs();
}

void SloTracker::Record(const std::string& workload, uint64_t duration_ns,
                        bool error) {
  uint64_t minute = NowMs() / 60000;
  bool slow = duration_ns / 1000000 > options_.latency_threshold_ms;
  WindowBurn fast, slowwin;
  std::string key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workloads_.find(workload);
    if (it == workloads_.end()) {
      // Bounded tenant set: past the cap, new workloads fold into
      // "other" rather than growing per-tenant state without limit.
      key = workloads_.size() < options_.max_workloads ? workload : "other";
      it = workloads_.try_emplace(key).first;
    } else {
      key = workload;
    }
    Bucket& bucket = it->second.ring[minute % kRingMinutes];
    if (bucket.minute != minute) {
      bucket = Bucket{};
      bucket.minute = minute;
    }
    ++bucket.requests;
    if (error) ++bucket.errors;
    if (slow) ++bucket.slow;
    if (options_.metrics != nullptr) {
      fast = BurnLocked(it->second, minute, 5);
      slowwin = BurnLocked(it->second, minute, 60);
    }
  }
  if (options_.metrics != nullptr) {
    // Gauges carry integers; burn rates ride in milli-units (1000 =
    // burning the budget exactly as fast as allowed).
    auto gauge = [&](const char* slo, const char* window, double burn) {
      // Null on a kind conflict with a caller-registered name.
      Gauge* g = options_.metrics->GetGauge(
          "xmlproj_slo_burn_milli",
          {{"slo", slo}, {"window", window}, {"workload", key}});
      if (g != nullptr) g->Set(static_cast<int64_t>(burn * 1000));
    };
    gauge("availability", "5m", fast.availability_burn);
    gauge("availability", "1h", slowwin.availability_burn);
    gauge("latency", "5m", fast.latency_burn);
    gauge("latency", "1h", slowwin.latency_burn);
  }
}

SloTracker::WindowBurn SloTracker::BurnLocked(const Workload& workload,
                                              uint64_t now_minute,
                                              uint64_t window_minutes) const {
  if (window_minutes > kRingMinutes) window_minutes = kRingMinutes;
  WindowBurn burn;
  for (uint64_t back = 0; back < window_minutes; ++back) {
    if (back > now_minute) break;
    uint64_t minute = now_minute - back;
    const Bucket& bucket = workload.ring[minute % kRingMinutes];
    if (bucket.minute != minute) continue;  // stale slot from a prior hour
    burn.requests += bucket.requests;
    burn.errors += bucket.errors;
    burn.slow += bucket.slow;
  }
  burn.availability_burn =
      BurnOf(burn.errors, burn.requests, options_.availability_objective);
  burn.latency_burn =
      BurnOf(burn.slow, burn.requests, options_.latency_objective);
  return burn;
}

SloTracker::WindowBurn SloTracker::Burn(const std::string& workload,
                                        uint64_t window_minutes) const {
  uint64_t minute = NowMs() / 60000;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workloads_.find(workload);
  if (it == workloads_.end()) return WindowBurn{};
  return BurnLocked(it->second, minute, window_minutes);
}

void SloTracker::AppendSloJson(std::string* out) const {
  uint64_t minute = NowMs() / 60000;
  std::lock_guard<std::mutex> lock(mu_);
  out->append("{\"latency_threshold_ms\":");
  AppendU64(options_.latency_threshold_ms, out);
  out->append(",\"availability_objective\":");
  AppendDouble(options_.availability_objective, out);
  out->append(",\"latency_objective\":");
  AppendDouble(options_.latency_objective, out);
  out->append(",\"workloads\":[");
  bool first = true;
  for (const auto& [id, workload] : workloads_) {
    if (!first) out->push_back(',');
    first = false;
    out->append("\n    {\"workload\":");
    AppendJsonString(id, out);
    for (const auto& [label, minutes] :
         {std::pair<const char*, uint64_t>{"5m", 5}, {"1h", 60}}) {
      WindowBurn burn = BurnLocked(workload, minute, minutes);
      out->append(",\"");
      out->append(label);
      out->append("\":{\"requests\":");
      AppendU64(burn.requests, out);
      out->append(",\"errors\":");
      AppendU64(burn.errors, out);
      out->append(",\"slow\":");
      AppendU64(burn.slow, out);
      out->append(",\"availability_burn\":");
      AppendDouble(burn.availability_burn, out);
      out->append(",\"latency_burn\":");
      AppendDouble(burn.latency_burn, out);
      out->push_back('}');
    }
    out->push_back('}');
  }
  out->append(first ? "]}" : "\n  ]}");
}

}  // namespace xmlproj
