/**
 * @file
 * Tests for the bounded MPMC queue: capacity/backpressure, FIFO
 * order, close semantics, and a multi-producer/multi-consumer
 * stress run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "serving/bounded_queue.h"

namespace mlperf {
namespace serving {
namespace {

TEST(BoundedQueue, TryPushRespectsCapacity)
{
    BoundedQueue<int> queue(2);
    int a = 1, b = 2, c = 3;
    EXPECT_TRUE(queue.tryPush(a));
    EXPECT_TRUE(queue.tryPush(b));
    EXPECT_FALSE(queue.tryPush(c));  // full: backpressure
    EXPECT_EQ(c, 3);                 // rejected value left intact
    EXPECT_EQ(*queue.tryPop(), 1);
    EXPECT_TRUE(queue.tryPush(c));   // the pop made room
}

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> queue(0);  // unbounded
    for (int i = 0; i < 5; ++i) {
        int v = i;
        EXPECT_TRUE(queue.tryPush(v));
    }
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(*queue.tryPop(), i);
    EXPECT_FALSE(queue.tryPop().has_value());
}

TEST(BoundedQueue, CloseDrainsThenStops)
{
    BoundedQueue<int> queue(4);
    int a = 7;
    ASSERT_TRUE(queue.tryPush(a));
    queue.close();
    int b = 8;
    EXPECT_FALSE(queue.tryPush(b));     // closed: no new work
    EXPECT_EQ(*queue.pop(), 7);         // queued work still drains
    EXPECT_FALSE(queue.pop().has_value());  // then shutdown signal
}

TEST(BoundedQueue, CloseWakesBlockedConsumersPromptly)
{
    BoundedQueue<int> queue(4);
    constexpr int kBlocked = 3;
    std::atomic<int> woke{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < kBlocked; ++c) {
        consumers.emplace_back([&queue, &woke] {
            if (!queue.pop().has_value())  // blocks: queue is empty
                woke.fetch_add(1);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    const auto close_start = std::chrono::steady_clock::now();
    queue.close();
    for (auto &t : consumers)
        t.join();
    const auto waited =
        std::chrono::steady_clock::now() - close_start;

    EXPECT_EQ(woke.load(), kBlocked);
    EXPECT_LT(waited, std::chrono::milliseconds(100));
}

TEST(BoundedQueue, ConcurrentProducersAndConsumers)
{
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 250;
    BoundedQueue<int> queue(8);
    std::vector<std::thread> threads;
    std::mutex seen_mutex;
    std::set<int> seen;

    for (int c = 0; c < 3; ++c) {
        threads.emplace_back([&] {
            while (auto v = queue.pop()) {
                std::lock_guard<std::mutex> lock(seen_mutex);
                seen.insert(*v);
            }
        });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&queue, p] {
            // Producers never block: a full queue is retried, the way
            // a caller that stalls instead of shedding would.
            for (int i = 0; i < kPerProducer; ++i) {
                int value = p * kPerProducer + i;
                while (!queue.tryPush(value))
                    std::this_thread::yield();
            }
        });
    }
    for (auto &t : producers)
        t.join();
    queue.close();
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(seen.size(),
              static_cast<size_t>(kProducers * kPerProducer));
}

} // namespace
} // namespace serving
} // namespace mlperf
