// Tests for the concurrency primitives in src/common/: ThreadPool
// (submit/futures, ParallelFor, exception propagation, shutdown,
// nesting) and the bounded MPMC Channel (FIFO order, backpressure,
// close semantics, producer/consumer stress).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/channel.h"
#include "common/thread_pool.h"

namespace recd::common {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, NeedsAtLeastOneThread) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPoolTest, SubmitDeliversResultsThroughFutures) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  futures.reserve(32);
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHonorsGrainAndRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(10, 60, [&](std::size_t i) { hits[i].fetch_add(1); },
                   /*grain=*/7);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i >= 10 && i < 60 ? 1 : 0) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyException) {
  // Bodies past the thrower wait for a release task that the thrower
  // posts. The task opens the gate only on the thrower's own thread
  // (elsewhere it re-queues itself), and that thread takes queued work
  // only after leaving its claim loop, that is after the failure is
  // recorded. Each other participant therefore claims at most one
  // index past the thrower before it sees the failure.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kThrower = 17;
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> finished{false};
  std::thread::id thrower;
  std::function<void()> release;
  ThreadPool pool(kThreads);
  release = [&] {
    if (std::this_thread::get_id() != thrower && !finished.load()) {
      pool.Post(release);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  };
  // Reached only if cancellation is broken: then the thrower never
  // leaves its claim loop to open the gate.
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 1000,
                       [&](std::size_t i) {
                         ran.fetch_add(1);
                         if (i == kThrower) {
                           thrower = std::this_thread::get_id();
                           pool.Post(release);
                           throw std::runtime_error("body failed");
                         }
                         if (i > kThrower) {
                           std::unique_lock<std::mutex> lock(mu);
                           cv.wait_until(lock, deadline,
                                         [&] { return released; });
                         }
                       }),
      std::runtime_error);
  finished = true;  // a still-queued release task now just finishes
  // Cancellation: the failure stops remaining indices from running
  // (some in-flight ones may still finish).
  EXPECT_LT(ran.load(), 1000);
  // Indices 0..kThrower, plus at most one in-flight index per other
  // participant (the workers and the caller); the rest never ran.
  EXPECT_LE(ran.load(), static_cast<int>(kThrower + 1 + kThreads));
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // LandTable-over-partitions x stripe-encode shape: outer and inner
  // loops share one pool; waiting threads must help drain the queue.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.ParallelFor(0, 4, [&](std::size_t) {
    pool.ParallelFor(0, 64, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 4u * 64u);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Post([&done] {
        std::this_thread::sleep_for(1ms);
        done.fetch_add(1);
      });
    }
  }  // ~ThreadPool joins after finishing the queue
  EXPECT_EQ(done.load(), 16);
}

// ---------------------------------------------------------- Channel --

TEST(ChannelTest, NeedsPositiveCapacity) {
  EXPECT_THROW(Channel<int>(0), std::invalid_argument);
}

TEST(ChannelTest, FifoOrder) {
  Channel<int> ch(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ch.Push(i));
  for (int i = 0; i < 4; ++i) {
    const auto v = ch.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(ChannelTest, TryPushRespectsCapacity) {
  Channel<int> ch(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(ch.TryPush(a));
  EXPECT_TRUE(ch.TryPush(b));
  EXPECT_FALSE(ch.TryPush(c));  // full
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_EQ(ch.Pop().value(), 1);
  EXPECT_TRUE(ch.TryPush(c));
}

TEST(ChannelTest, TryPopOnEmptyReturnsNullopt) {
  Channel<int> ch(1);
  EXPECT_FALSE(ch.TryPop().has_value());
  EXPECT_TRUE(ch.Push(7));
  EXPECT_EQ(ch.TryPop().value(), 7);
}

TEST(ChannelTest, PushBlocksOnBackpressureUntilPop) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.Push(2));  // blocks: capacity 1, item in flight
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(second_pushed.load()) << "Push must block while full";
  EXPECT_EQ(ch.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(ch.Pop().value(), 2);
}

TEST(ChannelTest, PopForTimesOutOnlyWhileOpenAndEmpty) {
  Channel<int> ch(2);
  // Deadline passes with the channel open and empty: timed out.
  bool timed_out = false;
  EXPECT_FALSE(ch.PopFor(10ms, &timed_out).has_value());
  EXPECT_TRUE(timed_out);
  // An available item returns immediately, no timeout flag.
  EXPECT_TRUE(ch.Push(7));
  EXPECT_EQ(ch.PopFor(10ms, &timed_out).value(), 7);
  EXPECT_FALSE(timed_out);
  // An item arriving within the deadline wakes the waiter.
  std::thread producer([&] {
    std::this_thread::sleep_for(20ms);
    EXPECT_TRUE(ch.Push(8));
  });
  EXPECT_EQ(ch.PopFor(10s, &timed_out).value(), 8);
  EXPECT_FALSE(timed_out);
  producer.join();
  // Closed and drained is end-of-stream, *not* a timeout — the caller
  // must be able to tell a dead producer from a finished one.
  ch.Close();
  EXPECT_FALSE(ch.PopFor(10ms, &timed_out).has_value());
  EXPECT_FALSE(timed_out);
}

TEST(ChannelTest, CloseDrainsThenEndsStream) {
  Channel<int> ch(4);
  EXPECT_TRUE(ch.Push(1));
  EXPECT_TRUE(ch.Push(2));
  ch.Close();
  EXPECT_FALSE(ch.Push(3));  // producers see the close immediately
  EXPECT_EQ(ch.Pop().value(), 1);  // consumers drain whats buffered
  EXPECT_EQ(ch.Pop().value(), 2);
  EXPECT_FALSE(ch.Pop().has_value());  // then observe end of stream
}

TEST(ChannelTest, CloseWakesBlockedConsumerAndProducer) {
  Channel<int> full(1);
  EXPECT_TRUE(full.Push(1));
  Channel<int> empty(1);
  std::atomic<bool> push_returned{false};
  std::atomic<bool> pop_returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(full.Push(2));  // blocked on backpressure, then closed
    push_returned.store(true);
  });
  std::thread consumer([&] {
    EXPECT_FALSE(empty.Pop().has_value());  // blocked on empty, closed
    pop_returned.store(true);
  });
  std::this_thread::sleep_for(20ms);
  full.Close();
  empty.Close();
  producer.join();
  consumer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_TRUE(pop_returned.load());
}

TEST(ChannelTest, MpmcStressDeliversEveryItemExactlyOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::size_t kPerProducer = 2'000;
  Channel<std::size_t> ch(8);  // small capacity: exercise backpressure

  std::mutex seen_mutex;
  std::multiset<std::size_t> seen;
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ch, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.Push(p * kPerProducer + i));
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = ch.Pop()) {
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen.insert(*v);
      }
    });
  }
  for (std::size_t p = 0; p < kProducers; ++p) threads[p].join();
  ch.Close();
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads[kProducers + c].join();
  }

  ASSERT_EQ(seen.size(), kProducers * kPerProducer);
  for (std::size_t v = 0; v < kProducers * kPerProducer; ++v) {
    ASSERT_EQ(seen.count(v), 1u) << "item " << v;
  }
}

}  // namespace
}  // namespace recd::common
