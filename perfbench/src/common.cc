#include "common.h"

#include <malloc.h>
#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int BenchThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

CpuPin::CpuPin(uint64_t k) {
  CPU_ZERO(&saved_);
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
    return;
  }
  const int n = CPU_COUNT(&saved_);
  if (n < 2) return;
  int skip = static_cast<int>(k % static_cast<uint64_t>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

CpuMigrator::CpuMigrator(int period_ms) : target_(pthread_self()) {
  CPU_ZERO(&saved_);
  if (pthread_getaffinity_np(target_, sizeof(saved_), &saved_) != 0 ||
      CPU_COUNT(&saved_) < 2) {
    return;
  }
  thread_ = std::thread([this, period_ms] {
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t step = 0;
         !cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                       [this] { return stop_; });
         ++step) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[step % cpus.size()], &one);
      pthread_setaffinity_np(target_, sizeof(one), &one);
    }
  });
}

CpuMigrator::~CpuMigrator() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
  pthread_setaffinity_np(target_, sizeof(saved_), &saved_);
}

uint64_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

MachineFloor MeasureFloor(const std::vector<const std::string*>& docs,
                          int reps) {
  size_t total = 0, largest = 0;
  for (const std::string* doc : docs) {
    total += doc->size();
    largest = std::max(largest, doc->size());
  }
  std::string dst(largest, '\0');
  std::vector<double> copy_rates, scan_rates;
  size_t sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t t0 = NowNs();
    for (const std::string* doc : docs) {
      std::memcpy(dst.data(), doc->data(), doc->size());
      sink += static_cast<unsigned char>(dst[doc->size() / 2]);
    }
    uint64_t t1 = NowNs();
    for (const std::string* doc : docs) {
      const char* p = doc->data();
      const char* end = p + doc->size();
      while ((p = static_cast<const char*>(std::memchr(p, '<', end - p)))) {
        ++sink;
        ++p;
      }
    }
    uint64_t t2 = NowNs();
    copy_rates.push_back(total / 1e6 / ((t1 - t0) / 1e9));
    scan_rates.push_back(total / 1e6 / ((t2 - t1) / 1e9));
  }
  // Keeps the copies and the scan observable.
  if (sink == 0) std::fprintf(stderr, "floor: empty input\n");
  return {Median(copy_rates), Median(scan_rates)};
}

uint64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Add(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self_ms;
  for (const SpanRecord& s : spans_) {
    uint64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    uint64_t children = it == child_ns.end() ? 0 : it->second;
    std::string name(s.name);
    std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] += (dur > children ? dur - children : 0) / 1e6;
  }
  return self_ms;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& s : spans_) origin = std::min(origin, s.start_ns);
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"op\":%llu,\"id\":%llu,\"parent\":%llu,"
                 "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                 s.name, static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3);
  }
  return std::fclose(f) == 0;
}

namespace {
thread_local uint64_t current_span = 0;
}  // namespace

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t op)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.name = name;
  span_.op = op;
  span_.id = recorder_->NextId();
  span_.parent = current_span;
  current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = NowNs();
  current_span = span_.parent;
  recorder_->Add(span_);
}

}  // namespace perfbench
