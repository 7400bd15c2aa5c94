// Task execution for the parallel pruning pipeline (and any future
// multi-document machinery): a bounded MPMC work queue plus a fixed-size
// thread pool whose tasks report completion through Status-carrying
// futures — errors propagate by value, matching the library's
// no-exceptions discipline (common/status.h).
//
// The queue is bounded so producers that outrun the workers block instead
// of buffering unboundedly (the pipeline submits one task per document; a
// million-document corpus must not materialize a million closures).

#ifndef XMLPROJ_COMMON_THREAD_POOL_H_
#define XMLPROJ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xmlproj {

// Bounded multi-producer multi-consumer FIFO. Push blocks while the queue
// is full, Pop while it is empty; Close releases both sides.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks until there is room. Returns false — leaving `item` untouched —
  // iff the queue has been closed.
  bool Push(T&& item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock,
                     [this] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available. Returns nullopt once the queue is
  // closed *and* drained (pending items are still delivered after Close).
  std::optional<T> Pop() {
    std::optional<T> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return item;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

// Optional telemetry sinks for a ThreadPool. Every pointer is nullable;
// a default-constructed struct (no sinks) keeps the pool on its original
// uninstrumented path — no clock reads, no extra queue locking. Callers
// resolve the metrics from a MetricsRegistry once and pass the handles in.
struct ThreadPoolMetrics {
  Counter* tasks_total = nullptr;     // tasks executed
  Counter* busy_ns_total = nullptr;   // summed task run time (worker
                                      // utilization = busy / (wall×threads))
  Histogram* queue_wait_ns = nullptr;  // submit → dequeue latency
  Histogram* run_ns = nullptr;         // task execution latency
  Gauge* queue_depth = nullptr;        // sampled after each push/pop
  Gauge* queue_depth_peak = nullptr;   // high-water mark of the above
  Gauge* active_workers = nullptr;     // workers currently running a task
                                       // (live view for /statusz)
  // Queue-depth counter events ("C" phase) land here, plotting back
  // pressure over time next to the pipeline's stage spans.
  TraceCollector* trace = nullptr;

  bool enabled() const {
    return tasks_total != nullptr || busy_ns_total != nullptr ||
           queue_wait_ns != nullptr || run_ns != nullptr ||
           queue_depth != nullptr || queue_depth_peak != nullptr ||
           active_workers != nullptr || trace != nullptr;
  }
};

// Fixed-size worker pool. Submitted tasks return Status; the returned
// future resolves to that Status (or kCancelled if the pool shut down
// before the task could be queued). Destruction drains queued tasks and
// joins the workers. Every future a Submit call ever returned resolves —
// a task is run, cancelled, or failed by an injected fault, never
// silently dropped.
//
// `fault` (optional) arms the "pool.task" failpoint: each fire either
// delays the task (delay-only spec — a slow worker) or resolves its
// future with the injected Status without running it (a worker-level
// failure). See common/fault.h.
class ThreadPool {
 public:
  // num_threads <= 0 selects hardware concurrency (at least 1).
  explicit ThreadPool(int num_threads, size_t queue_capacity = 1024,
                      ThreadPoolMetrics metrics = {},
                      FaultInjector* fault = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::future<Status> Submit(std::function<Status()> task);

  // Stops accepting new tasks, runs everything already queued, joins.
  // Idempotent; implied by the destructor. Tasks submitted concurrently
  // with (or after) Shutdown resolve to kCancelled instead of hanging.
  void Shutdown();

  // Bounded drain: stops accepting new tasks and gives queued tasks until
  // `drain_timeout` from now to *start*; tasks still queued past the
  // deadline resolve to kCancelled without running. Returns true iff
  // everything queued ran. In-flight tasks are never interrupted (there
  // is no safe way to kill a thread), so a genuinely wedged task still
  // blocks the join — the deadline bounds queued work, which is what
  // grows unboundedly under load.
  bool Shutdown(std::chrono::milliseconds drain_timeout);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Tasks queued but not yet claimed by a worker (point-in-time; takes
  // the queue lock).
  size_t queue_size() const { return queue_.size(); }

  // Tasks resolved to kCancelled by a deadline Shutdown.
  uint64_t cancelled_tasks() const {
    return cancelled_tasks_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<Status()> fn;
    std::promise<Status> done;
    uint64_t submit_ns = 0;  // only stamped when metrics are enabled
  };

  void WorkerLoop();
  void SampleQueueDepth();
  void Join();

  BoundedQueue<Task> queue_;
  const ThreadPoolMetrics metrics_;
  const bool instrumented_;
  FaultInjector* const fault_;
  // Monotonic-ns deadline after which queued tasks are cancelled instead
  // of run; UINT64_MAX = no deadline (the common case — workers then skip
  // the clock read entirely).
  std::atomic<uint64_t> cancel_after_ns_{UINT64_MAX};
  std::atomic<uint64_t> cancelled_tasks_{0};
  std::vector<std::thread> workers_;
};

}  // namespace xmlproj

#endif  // XMLPROJ_COMMON_THREAD_POOL_H_
