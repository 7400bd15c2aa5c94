#include "common/thread_pool.h"

#include <algorithm>

namespace xmlproj {

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity,
                       FaultInjector* fault)
    : queue_(queue_capacity), fault_(fault) {
  if (num_threads <= 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

std::future<Status> ThreadPool::Submit(std::function<Status()> task) {
  Task entry;
  entry.fn = std::move(task);
  std::future<Status> done = entry.done.get_future();
  if (!queue_.Push(std::move(entry))) {
    // Pool already shut down: Push left `entry` untouched, so its promise
    // is still ours to fulfill.
    entry.done.set_value(CancelledError("thread pool is shut down"));
  }
  return done;
}

void ThreadPool::Shutdown() {
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  while (std::optional<Task> task = queue_.Pop()) {
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
    task->done.set_value(task->fn());
  }
}

}  // namespace xmlproj
