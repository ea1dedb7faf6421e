/**
 * @file
 * Tests for the wall-clock executor. Timing assertions are kept loose
 * to avoid flakiness on loaded machines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sim/real_executor.h"

namespace mlperf {
namespace sim {
namespace {

TEST(RealExecutor, EventsFireAndStopReturns)
{
    RealExecutor ex;
    std::atomic<int> ran{0};
    ex.schedule(0, [&] { ++ran; });
    ex.schedule(1 * kNsPerMs, [&] { ++ran; ex.stop(); });
    ex.run();
    EXPECT_EQ(ran.load(), 2);
}

TEST(RealExecutor, OrderRespectedForSpacedEvents)
{
    RealExecutor ex;
    std::vector<int> order;
    ex.schedule(20 * kNsPerMs, [&] { order.push_back(2); ex.stop(); });
    ex.schedule(1 * kNsPerMs, [&] { order.push_back(1); });
    ex.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(RealExecutor, TimeIsMonotonicAndRoughlyAccurate)
{
    RealExecutor ex;
    Tick at_event = 0;
    const Tick target = 10 * kNsPerMs;
    ex.schedule(target, [&] { at_event = ex.now(); ex.stop(); });
    ex.run();
    EXPECT_GE(at_event, target);
    // Generous upper bound: the event should not be >1s late.
    EXPECT_LT(at_event, target + kNsPerSec);
}

TEST(RealExecutor, CrossThreadScheduleWakesRunner)
{
    RealExecutor ex;
    std::atomic<bool> fired{false};
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ex.schedule(0, [&] { fired = true; ex.stop(); });
    });
    ex.run();  // queue initially empty; must wake on cross-thread push
    producer.join();
    EXPECT_TRUE(fired.load());
}

TEST(RealExecutor, StopFromOtherThread)
{
    RealExecutor ex;
    std::thread stopper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ex.stop();
    });
    ex.run();
    stopper.join();
    SUCCEED();
}

TEST(RealExecutor, ManyImmediateEventsAllRun)
{
    RealExecutor ex;
    std::atomic<int> count{0};
    const int n = 1000;
    for (int i = 0; i < n; ++i) {
        ex.schedule(0, [&] {
            if (++count == n)
                ex.stop();
        });
    }
    ex.run();
    EXPECT_EQ(count.load(), n);
}

// ---- Park, then spin: properties of the spin hand-off. No test bounds
// how late an event fires; a loaded host may deschedule the runner.

/** Busy-wait (yielding) until @p ex reads at least @p tick. */
void
waitUntil(const RealExecutor &ex, Tick tick)
{
    while (ex.now() < tick)
        std::this_thread::yield();
}

TEST(RealExecutor, PoissonBurstNeverEarlyAndFifoAmongEqualTicks)
{
    // 2,000 events at 5,000/s: most gaps are shorter than the spin
    // guard. A quarter share the previous event's tick, and the whole
    // set is scheduled in a shuffled order, so FIFO among equal ticks
    // means "in schedule order", not "in tick-generation order".
    RealExecutor ex;
    Rng rng(7);
    const size_t n = 2000;
    std::vector<Tick> ticks(n);
    Tick at = ex.now() + 2 * kNsPerMs;
    for (size_t i = 0; i < n; ++i) {
        if (i == 0 || rng.nextDouble() >= 0.25) {
            at += static_cast<Tick>(rng.nextExponential(5000.0) *
                                    static_cast<double>(kNsPerSec));
        }
        ticks[i] = at;
    }
    std::vector<size_t> schedule_order(n);
    for (size_t i = 0; i < n; ++i)
        schedule_order[i] = i;
    shuffle(schedule_order, rng);

    std::vector<size_t> ran;  // event ids in run order
    ran.reserve(n);
    size_t early = 0;
    for (size_t id : schedule_order) {
        ex.schedule(ticks[id], [&, id] {
            if (ex.now() < ticks[id])
                ++early;
            ran.push_back(id);
            if (ran.size() == n)
                ex.stop();
        });
    }
    ex.run();

    // Expected: by tick, then by the position the event was scheduled.
    std::vector<size_t> position(n);
    for (size_t p = 0; p < n; ++p)
        position[schedule_order[p]] = p;
    std::vector<size_t> expected = schedule_order;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](size_t a, size_t b) {
                         if (ticks[a] != ticks[b])
                             return ticks[a] < ticks[b];
                         return position[a] < position[b];
                     });
    EXPECT_EQ(early, 0u);
    EXPECT_EQ(ran, expected);
}

TEST(RealExecutor, EarlierEventFromAnotherThreadCutsTheSpin)
{
    // The runner spins toward `later` once it is within the guard; a
    // producer then schedules an event due now. Whenever that push
    // landed before `later` was due, it must run first. And in some
    // trial it must run before `later`'s tick: a spin that ignored the
    // push would always hold it until then.
    const Tick guard = RealExecutor::kSpinGuardNs;
    int raced = 0, ran_before_later = 0;
    for (int trial = 0; trial < 20; ++trial) {
        RealExecutor ex;
        std::vector<int> order;
        std::atomic<int> done{0};
        Tick earlier_tick = 0, earlier_ran = 0, pushed_at = 0;
        auto finish = [&] {
            if (++done == 2)
                ex.stop();
        };
        const Tick later = ex.now() + 5 * kNsPerMs;
        ex.schedule(later, [&] {
            order.push_back(2);
            finish();
        });
        std::thread producer([&] {
            waitUntil(ex, later - guard / 4);
            earlier_tick = ex.now();
            ex.schedule(earlier_tick, [&] {
                earlier_ran = ex.now();
                order.push_back(1);
                finish();
            });
            pushed_at = ex.now();
        });
        ex.run();
        producer.join();
        EXPECT_GE(earlier_ran, earlier_tick);
        if (pushed_at < later) {
            ++raced;
            EXPECT_EQ(order, (std::vector<int>{1, 2})) << "trial " << trial;
            if (earlier_ran < later)
                ++ran_before_later;
        }
    }
    if (raced > 0) {
        EXPECT_GT(ran_before_later, 0) << raced << " raced trials";
    }
}

TEST(RealExecutor, StopFromAnotherThreadEndsTheSpin)
{
    // stop() during the spin toward a pending event makes run()
    // return; in some trial before that event's tick (a spin that
    // ignored stop() would always last until then).
    const Tick guard = RealExecutor::kSpinGuardNs;
    int raced = 0, returned_early = 0;
    for (int trial = 0; trial < 20; ++trial) {
        RealExecutor ex;
        const Tick pending = ex.now() + 5 * kNsPerMs;
        ex.schedule(pending, [] {});
        // A stop() before run() starts would be lost (run() clears it).
        std::atomic<bool> running{false};
        ex.schedule(0, [&] { running = true; });
        Tick stopped_at = 0;
        std::thread stopper([&] {
            while (!running)
                std::this_thread::yield();
            waitUntil(ex, pending - guard / 4);
            stopped_at = ex.now();
            ex.stop();
        });
        ex.run();
        const Tick returned = ex.now();
        stopper.join();
        if (stopped_at < pending) {
            ++raced;
            if (returned < pending)
                ++returned_early;
        }
    }
    if (raced > 0) {
        EXPECT_GT(returned_early, 0) << raced << " raced trials";
    }
}

TEST(RealExecutor, RunStopRunKeepsQueuedEvents)
{
    RealExecutor ex;
    std::vector<int> order;
    const Tick t0 = ex.now();
    ex.schedule(t0 + 1 * kNsPerMs, [&] {
        order.push_back(1);
        ex.stop();
    });
    ex.schedule(t0 + 3 * kNsPerMs, [&] {
        order.push_back(2);
        ex.stop();
    });
    ex.schedule(t0 + 3 * kNsPerMs, [&] { order.push_back(3); });
    ex.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
    // Queued before the second run, due before the ones still queued.
    ex.schedule(t0 + 2 * kNsPerMs, [&] { order.push_back(4); });
    ex.run();
    EXPECT_EQ(order, (std::vector<int>{1, 4, 2}));
    // Same tick as event 3, scheduled after it: runs after it.
    ex.schedule(t0 + 3 * kNsPerMs, [&] { ex.stop(); });
    ex.run();
    EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 3}));
}

} // namespace
} // namespace sim
} // namespace mlperf
