// Shared helpers for the repository benchmark: clocks, order statistics,
// process memory readings, the machine floor, and the in-memory span
// recorder behind the traced mode.

#ifndef XMLPROJ_PERFBENCH_COMMON_H_
#define XMLPROJ_PERFBENCH_COMMON_H_

#include <pthread.h>
#include <sched.h>

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

uint64_t NowNs();

// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Worker threads for the multi-threaded workloads: the machine's
// hardware concurrency, capped at 4 so the workload shape does not change
// with the size of the runner.
int BenchThreads();

// Pins the calling thread to the (k mod n)-th of the n CPUs it may run on
// and restores its CPU mask on destruction. On a shared host one core can
// run much slower than the others for minutes (a busy hyperthread
// sibling); moving single-threaded work across the CPUs makes such a core
// slow every run a little rather than some runs a lot. Threads started
// while a pin is held inherit it, so no pin may span a call that starts
// threads.
class CpuPin {
 public:
  explicit CpuPin(uint64_t k);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t saved_;
};

// While alive, moves the thread that created it to the next of its CPUs
// every `period_ms` from a helper thread, so that each long
// single-threaded operation runs on every core in turn. Must not span a
// call that starts threads.
class CpuMigrator {
 public:
  explicit CpuMigrator(int period_ms);
  ~CpuMigrator();
  CpuMigrator(const CpuMigrator&) = delete;
  CpuMigrator& operator=(const CpuMigrator&) = delete;

 private:
  const pthread_t target_;
  cpu_set_t saved_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // last: starts after the members it reads
};

// /proc/self/status field in kB ("VmRSS", "VmHWM"); 0 when unreadable.
uint64_t ProcStatusKb(const char* field);

// Returns freed heap pages to the kernel, then resets the peak-RSS mark
// (VmHWM) to the current RSS by writing 5 to /proc/self/clear_refs.
// False when the kernel refuses the reset.
bool ResetPeakRss();

// Bytes per second of a plain memcpy of `docs` and of a memchr scan for
// '<' over them: the machine floor every parser is bounded by. Reported
// in decimal MB/s; the median over `reps` passes.
struct MachineFloor {
  double memcpy_mb_s = 0;
  double memchr_mb_s = 0;
};
MachineFloor MeasureFloor(const std::vector<const std::string*>& docs,
                          int reps);

// One closed span: a call from the benchmark into a layer's public
// function. `op` ties it to the operation (or set-up step) that caused
// it; `parent` is the enclosing span on the same thread (0 = root).
struct SpanRecord {
  const char* name = "";
  uint64_t op = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// In-memory span sink shared by every thread of a run. Spans are kept
// until the run ends and then written out as JSON lines.
class SpanRecorder {
 public:
  uint64_t NextId();
  void Add(const SpanRecord& span);
  size_t size() const;

  // Self time (span duration minus the time its children cover), summed
  // per layer: the span name up to its first '.'.
  std::map<std::string, double> SelfMsByLayer() const;

  // One JSON object per line; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;           // guarded by mu_
};

// RAII span around one call. A null recorder makes it a no-op, so the
// untraced path reads no clocks for spans.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  SpanRecord span_;
};

}  // namespace perfbench

#endif  // XMLPROJ_PERFBENCH_COMMON_H_
