// Task execution for the parallel pruning pipeline: a bounded MPMC work
// queue plus a fixed-size thread pool whose tasks report completion
// through Status-carrying futures — errors propagate by value, matching
// the library's no-exceptions discipline (common/status.h).
//
// The queue is bounded so producers that outrun the workers block instead
// of buffering unboundedly (the pipeline submits one task per document; a
// million-document corpus must not materialize a million closures).
//
// The pool keeps no telemetry and reads no clock. The pipeline times each
// task once and counts its outcomes itself (projection/pipeline.h), so a
// second set of pool-side numbers could only disagree with those.

#ifndef XMLPROJ_COMMON_THREAD_POOL_H_
#define XMLPROJ_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/status.h"

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

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

// Fixed-size worker pool. Submitted tasks return Status; the returned
// future resolves to that Status (or kCancelled if the pool shut down
// before the task could be queued). Shutdown and destruction run every
// queued task and join the workers; a caller that wants queued work
// abandoned makes the task return early (the pipeline's graceful drain
// does exactly that). Every future a Submit call ever returned resolves —
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
                      FaultInjector* fault = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::future<Status> Submit(std::function<Status()> task);

  // Stops accepting new tasks, runs everything already queued, joins.
  // Idempotent; implied by the destructor. Tasks submitted concurrently
  // with (or after) Shutdown resolve to kCancelled instead of hanging.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Task {
    std::function<Status()> fn;
    std::promise<Status> done;
  };

  void WorkerLoop();

  BoundedQueue<Task> queue_;
  FaultInjector* const fault_;
  std::vector<std::thread> workers_;
};

}  // namespace xmlproj

#endif  // XMLPROJ_COMMON_THREAD_POOL_H_
