/**
 * @file
 * Tests for the shared intra-op thread pool and the thread-local
 * scratch arena. The ThreadPool cases run under the TSan gate
 * (scripts/check.sh) because they exercise real cross-thread
 * fork-join traffic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/scratch_arena.h"

namespace mlperf {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, 1000, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges)
{
    ThreadPool pool(4);
    std::atomic<int64_t> sum{0};
    pool.parallelFor(5, 5, 1, [&](int64_t, int64_t) {
        sum.fetch_add(1);
    });
    EXPECT_EQ(sum.load(), 0);

    pool.parallelFor(0, 1, 1, [&](int64_t b, int64_t e) {
        sum.fetch_add(e - b);
    });
    EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, RespectsMinGrain)
{
    ThreadPool pool(8);
    std::mutex m;
    std::vector<int64_t> chunk_sizes;
    pool.parallelFor(0, 100, 64, [&](int64_t b, int64_t e) {
        std::lock_guard<std::mutex> lock(m);
        chunk_sizes.push_back(e - b);
    });
    // 100 <= min_grain would run inline; 64-grain over 100 items can
    // produce at most 2 chunks.
    EXPECT_LE(chunk_sizes.size(), 2u);
    EXPECT_EQ(std::accumulate(chunk_sizes.begin(), chunk_sizes.end(),
                              int64_t{0}),
              100);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::atomic<int64_t> total{0};
    pool.parallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
        EXPECT_TRUE(ThreadPool::inWorker());
        for (int64_t i = b; i < e; ++i) {
            // A nested parallelFor must not deadlock; it executes
            // inline on this worker.
            pool.parallelFor(0, 10, 1, [&](int64_t nb, int64_t ne) {
                total.fetch_add(ne - nb);
            });
        }
    });
    EXPECT_FALSE(ThreadPool::inWorker());
    EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, SequentialJobsReuseWorkers)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int64_t> sum{0};
        pool.parallelFor(0, 64, 1, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i)
                sum.fetch_add(i);
        });
        EXPECT_EQ(sum.load(), 64 * 63 / 2);
    }
}

TEST(ThreadPool, BackToBackJobsKeepTheirOwnChunks)
{
    // The pool reuses one job slot. A chunk of job n that ran after
    // job n returned, or a range of job n+1 claimed under job n's
    // body, would show up as a wrong round or a wrong hit count.
    ThreadPool pool(4);
    std::atomic<int> current{-1};
    std::atomic<int64_t> strays{0};
    for (int round = 0; round < 2000; ++round) {
        const int64_t n = 8 + round % 57;
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        current.store(round);
        pool.parallelFor(0, n, 1 + round % 3, [&, round](int64_t b,
                                                         int64_t e) {
            if (current.load() != round)
                strays.fetch_add(1);
            for (int64_t i = b; i < e; ++i)
                hits[static_cast<size_t>(i)].fetch_add(1);
        });
        for (int64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
                << "round " << round << " index " << i;
    }
    EXPECT_EQ(strays.load(), 0);
}

TEST(ThreadPool, ConcurrentCallersSerializeSafely)
{
    // Multiple external threads hammer the same pool; calls must
    // serialize without losing chunks (exercised under TSan).
    ThreadPool pool(3);
    std::vector<std::thread> callers;
    std::atomic<int64_t> grand_total{0};
    for (int t = 0; t < 4; ++t) {
        callers.emplace_back([&] {
            for (int round = 0; round < 20; ++round) {
                std::atomic<int64_t> local{0};
                pool.parallelFor(0, 128, 1,
                                 [&](int64_t b, int64_t e) {
                                     local.fetch_add(e - b);
                                 });
                grand_total.fetch_add(local.load());
            }
        });
    }
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(grand_total.load(), 4 * 20 * 128);
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    std::thread::id caller = std::this_thread::get_id();
    pool.parallelFor(0, 100, 1, [&](int64_t, int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, GlobalPoolResize)
{
    ThreadPool::setGlobalThreads(2);
    EXPECT_EQ(ThreadPool::global()->threadCount(), 2);
    std::atomic<int64_t> sum{0};
    parallelFor(0, 256, 1, [&](int64_t b, int64_t e) {
        sum.fetch_add(e - b);
    });
    EXPECT_EQ(sum.load(), 256);
    ThreadPool::setGlobalThreads(4);
    EXPECT_EQ(ThreadPool::global()->threadCount(), 4);
}

// ------------------------------------------------------ IntraOpBinding

/** Distinct threads that ran chunks of one parallelFor call. */
size_t
threadsUsed(int64_t n)
{
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallelFor(0, n, 1, [&](int64_t b, int64_t e) {
        volatile int64_t spin = 0;
        for (int64_t i = b; i < e; ++i) {
            for (int k = 0; k < 20000; ++k)
                spin = spin + k;
        }
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    return ids.size();
}

TEST(IntraOpBinding, WidthOneRunsInlineOnTheCaller)
{
    ThreadPool::setGlobalThreads(4);
    std::thread bound([] {
        IntraOpBinding binding(1);
        EXPECT_NE(ThreadPool::bound(), nullptr);
        EXPECT_EQ(binding.width(), 1);
        const std::thread::id self = std::this_thread::get_id();
        parallelFor(0, 64, 1, [&](int64_t, int64_t) {
            EXPECT_EQ(std::this_thread::get_id(), self);
        });
    });
    bound.join();
}

TEST(IntraOpBinding, WiderBindingUsesAtMostItsWidth)
{
    ThreadPool::setGlobalThreads(4);
    std::thread bound([] {
        IntraOpBinding binding(2);
        for (int round = 0; round < 10; ++round)
            EXPECT_LE(threadsUsed(64), 2u);
    });
    bound.join();
}

TEST(IntraOpBinding, UnbindsOnDestructionAndNests)
{
    EXPECT_EQ(ThreadPool::bound(), nullptr);
    {
        IntraOpBinding outer(2);
        ThreadPool *outerPool = ThreadPool::bound();
        ASSERT_NE(outerPool, nullptr);
        EXPECT_EQ(outerPool->threadCount(), 2);
        {
            IntraOpBinding inner(1);
            EXPECT_EQ(ThreadPool::bound()->threadCount(), 1);
        }
        EXPECT_EQ(ThreadPool::bound(), outerPool);
    }
    EXPECT_EQ(ThreadPool::bound(), nullptr);
}

TEST(IntraOpBinding, BudgetShareSplitsTheGlobalPool)
{
    ThreadPool::setGlobalThreads(4);
    EXPECT_EQ(ThreadPool::budgetShare(1), 4);
    EXPECT_EQ(ThreadPool::budgetShare(2), 2);
    EXPECT_EQ(ThreadPool::budgetShare(3), 1);
    EXPECT_EQ(ThreadPool::budgetShare(4), 1);
    EXPECT_EQ(ThreadPool::budgetShare(16), 1);  // never below one
    EXPECT_EQ(ThreadPool::budgetShare(0), 4);
    for (int64_t workers = 1; workers <= 4; ++workers)
        EXPECT_LE(workers * ThreadPool::budgetShare(workers), 4);
}

TEST(ScratchArena, AllocationsAreAligned)
{
    ScratchArena arena;
    for (int i = 0; i < 10; ++i) {
        void *p = arena.alloc(13);  // awkward size
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) %
                      ScratchArena::kAlignment,
                  0u);
    }
}

TEST(ScratchArena, FrameRewindReusesMemory)
{
    ScratchArena arena;
    void *first = nullptr;
    {
        ScratchFrame frame(arena);
        first = arena.alloc(1024);
    }
    {
        ScratchFrame frame(arena);
        void *second = arena.alloc(1024);
        EXPECT_EQ(first, second);
    }
}

TEST(ScratchArena, SteadyStateDoesNotAllocate)
{
    ScratchArena arena;
    // Warm up to the high-water mark.
    {
        ScratchFrame frame(arena);
        arena.alloc(64 * 1024);
        arena.alloc(512 * 1024);
    }
    const uint64_t blocks = arena.blockAllocCount();
    for (int round = 0; round < 100; ++round) {
        ScratchFrame frame(arena);
        arena.alloc(64 * 1024);
        arena.alloc(512 * 1024);
    }
    EXPECT_EQ(arena.blockAllocCount(), blocks);
}

TEST(ScratchArena, NestedFramesStack)
{
    ScratchArena arena;
    ScratchFrame outer(arena);
    float *a = arena.alloc<float>(16);
    a[0] = 1.0f;
    {
        ScratchFrame inner(arena);
        float *b = arena.alloc<float>(16);
        EXPECT_NE(a, b);
        b[0] = 2.0f;
    }
    // Outer allocation survives the inner frame.
    EXPECT_EQ(a[0], 1.0f);
    float *c = arena.alloc<float>(16);
    EXPECT_NE(a, c);
}

TEST(ScratchArena, ThreadLocalInstancesAreDistinct)
{
    ScratchArena *main_arena = &ScratchArena::thread();
    ScratchArena *other_arena = nullptr;
    std::thread t([&] { other_arena = &ScratchArena::thread(); });
    t.join();
    EXPECT_NE(main_arena, other_arena);
}

TEST(ScratchArena, GrowsAcrossBlocksKeepingEarlierPointersValid)
{
    ScratchArena arena;
    ScratchFrame frame(arena);
    float *a = arena.alloc<float>(1024);
    for (int64_t i = 0; i < 1024; ++i)
        a[i] = static_cast<float>(i);
    // Force a new block; the first allocation must stay intact.
    arena.alloc(4 * 1024 * 1024);
    for (int64_t i = 0; i < 1024; ++i)
        ASSERT_EQ(a[i], static_cast<float>(i));
}

} // namespace
} // namespace mlperf
