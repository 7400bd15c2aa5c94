#include "common/thread_pool.h"

#include <algorithm>

namespace xmlproj {

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity,
                       ThreadPoolMetrics metrics, FaultInjector* fault)
    : queue_(queue_capacity),
      metrics_(metrics),
      instrumented_(metrics.enabled()),
      fault_(fault) {
  if (num_threads <= 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::SampleQueueDepth() {
  int64_t depth = static_cast<int64_t>(queue_.size());
  if (metrics_.queue_depth != nullptr) metrics_.queue_depth->Set(depth);
  if (metrics_.queue_depth_peak != nullptr) {
    metrics_.queue_depth_peak->SetMax(depth);
  }
  if (metrics_.trace != nullptr) {
    metrics_.trace->AddCounterEvent("queue depth", MonotonicNowNs(), depth);
  }
}

std::future<Status> ThreadPool::Submit(std::function<Status()> task) {
  Task entry;
  entry.fn = std::move(task);
  std::future<Status> done = entry.done.get_future();
  if (!queue_.Push(std::move(entry))) {
    // Pool already shut down: Push left `entry` untouched, so its promise
    // is still ours to fulfill.
    entry.done.set_value(CancelledError("thread pool is shut down"));
    return done;
  }
  if (instrumented_) SampleQueueDepth();
  return done;
}

void ThreadPool::Join() {
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::Shutdown() {
  queue_.Close();
  Join();
}

bool ThreadPool::Shutdown(std::chrono::milliseconds drain_timeout) {
  uint64_t deadline_ns =
      MonotonicNowNs() +
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(drain_timeout)
              .count());
  cancel_after_ns_.store(deadline_ns, std::memory_order_relaxed);
  queue_.Close();
  Join();
  return cancelled_tasks_.load(std::memory_order_relaxed) == 0;
}

void ThreadPool::WorkerLoop() {
  while (std::optional<Task> task = queue_.Pop()) {
    // Deadline shutdown: queued tasks past the drain deadline resolve to
    // kCancelled instead of running. One relaxed load in the common case.
    uint64_t cancel_after = cancel_after_ns_.load(std::memory_order_relaxed);
    if (cancel_after != UINT64_MAX && MonotonicNowNs() >= cancel_after) {
      cancelled_tasks_.fetch_add(1, std::memory_order_relaxed);
      task->done.set_value(
          CancelledError("thread pool drain deadline passed before this "
                         "task could run"));
      continue;
    }
    if (fault_ != nullptr) {
      Status injected = fault_->MaybeFail("pool.task");
      if (!injected.ok()) {
        // Worker-level failure: the task never runs; its future carries
        // the injected status. Delay-only fires fall through and run the
        // task late (a slow worker).
        task->done.set_value(std::move(injected));
        continue;
      }
    }
    if (!instrumented_) {
      task->done.set_value(task->fn());
      continue;
    }
    SampleQueueDepth();
    uint64_t start_ns = MonotonicNowNs();
    if (metrics_.active_workers != nullptr) metrics_.active_workers->Add(1);
    task->done.set_value(task->fn());
    if (metrics_.active_workers != nullptr) metrics_.active_workers->Sub(1);
    if (metrics_.busy_ns_total != nullptr) {
      metrics_.busy_ns_total->Increment(MonotonicNowNs() - start_ns);
    }
    if (metrics_.tasks_total != nullptr) metrics_.tasks_total->Increment();
  }
}

}  // namespace xmlproj
