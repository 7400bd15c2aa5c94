// Unit tests for the bounded MPMC queue and the Status-propagating thread
// pool (common/thread_pool.h): FIFO order, blocking at capacity,
// close-and-drain semantics, error propagation, shutdown behavior.

#include "common/thread_pool.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace xmlproj {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(10);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(queue.Push(std::move(v)));
  }
  for (int i = 0; i < 5; ++i) {
    std::optional<int> v = queue.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, CloseDrainsPendingItemsThenSignalsEnd) {
  BoundedQueue<int> queue(10);
  int a = 1, b = 2;
  ASSERT_TRUE(queue.Push(std::move(a)));
  ASSERT_TRUE(queue.Push(std::move(b)));
  queue.Close();
  int c = 3;
  EXPECT_FALSE(queue.Push(std::move(c)));  // rejected after Close
  EXPECT_EQ(queue.Pop(), 1);               // pending items still delivered
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), std::nullopt);    // drained
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(BoundedQueueTest, PushBlocksAtCapacityUntilPopped) {
  BoundedQueue<int> queue(2);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      int v = i;
      ASSERT_TRUE(queue.Push(std::move(v)));
      pushed.fetch_add(1);
    }
  });
  // The producer can get at most capacity ahead of the consumer.
  std::vector<int> received;
  for (int i = 0; i < 6; ++i) {
    std::optional<int> v = queue.Pop();
    ASSERT_TRUE(v.has_value());
    received.push_back(*v);
    EXPECT_LE(pushed.load(), i + 1 + 2);
  }
  producer.join();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(BoundedQueueTest, CloseReleasesBlockedProducer) {
  BoundedQueue<int> queue(1);
  int a = 1;
  ASSERT_TRUE(queue.Push(std::move(a)));
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    int b = 2;
    rejected.store(!queue.Push(std::move(b)));  // blocks: queue is full
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  producer.join();
  EXPECT_TRUE(rejected.load());
}

TEST(BoundedQueueTest, ConcurrentProducersAndConsumersLoseNothing) {
  BoundedQueue<int> queue(4);
  constexpr int kPerProducer = 200;
  constexpr int kProducers = 3;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p * kPerProducer + i;
        ASSERT_TRUE(queue.Push(std::move(v)));
      }
    });
  }
  std::mutex mu;
  std::vector<int> received;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (std::optional<int> v = queue.Pop()) {
        std::lock_guard<std::mutex> lock(mu);
        received.push_back(*v);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.Close();
  for (std::thread& t : consumers) t.join();
  std::sort(received.begin(), received.end());
  ASSERT_EQ(received.size(), kPerProducer * kProducers);
  for (int i = 0; i < kPerProducer * kProducers; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<Status>> done;
  for (int i = 0; i < 100; ++i) {
    done.push_back(pool.Submit([&counter] {
      counter.fetch_add(1);
      return Status::Ok();
    }));
  }
  for (std::future<Status>& f : done) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, PropagatesTaskStatusThroughFuture) {
  ThreadPool pool(2);
  std::future<Status> ok = pool.Submit([] { return Status::Ok(); });
  std::future<Status> bad =
      pool.Submit([] { return InvalidError("document 7 is malformed"); });
  EXPECT_TRUE(ok.get().ok());
  Status status = bad.get();
  EXPECT_EQ(status.code(), StatusCode::kInvalid);
  EXPECT_EQ(status.message(), "document 7 is malformed");
}

TEST(ThreadPoolTest, ShutdownRunsQueuedTasksBeforeJoining) {
  std::atomic<int> counter{0};
  std::vector<std::future<Status>> done;
  {
    // One worker and a deep queue: most tasks are still queued when
    // Shutdown starts; all of them must still run.
    ThreadPool pool(1, /*queue_capacity=*/64);
    for (int i = 0; i < 32; ++i) {
      done.push_back(pool.Submit([&counter] {
        counter.fetch_add(1);
        return Status::Ok();
      }));
    }
    pool.Shutdown();
  }
  EXPECT_EQ(counter.load(), 32);
  for (std::future<Status>& f : done) EXPECT_TRUE(f.get().ok());
}

TEST(ThreadPoolTest, SubmitAfterShutdownResolvesToCancelled) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::future<Status> done = pool.Submit([] { return Status::Ok(); });
  Status status = done.get();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.Submit([] { return Status::Ok(); }).get().ok());
  pool.Shutdown();
  pool.Shutdown();  // and the destructor makes a third call
}

TEST(ThreadPoolTest, DefaultThreadCountUsesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, SubmitDuringShutdownResolvesCancelledNotHang) {
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::future<Status> slow = pool.Submit([&started] {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return Status::Ok();
  });
  // Wait for the worker to pick up the slow task, so Shutdown is still
  // joining when the late submission lands.
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Submit from another thread while Shutdown is draining: the queue is
  // already closed, so the task must resolve kCancelled — never hang.
  std::future<Status> late;
  std::thread submitter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    late = pool.Submit([] { return Status::Ok(); });
  });
  pool.Shutdown();  // liveness is the test
  submitter.join();
  EXPECT_TRUE(slow.get().ok());
  EXPECT_EQ(late.get().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace xmlproj
