/**
 * @file
 * Allocation contract of the intra-op pool: a pooled parallelFor
 * makes no heap allocation, on the global pool and on a thread's
 * bound pool. Its own file because it replaces operator new for the
 * whole test binary.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "common/parallel.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MLPERF_UNDER_SANITIZER 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MLPERF_UNDER_SANITIZER 1
#endif
#endif

// Binary-wide: pool workers allocate on their own threads.
static std::atomic<long> g_heap_allocs{0};

void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mlperf {
namespace {

/** operator new calls made by @p calls pooled parallelFors of 64. */
long
allocationsAcross(int calls)
{
    std::atomic<int64_t> covered{0};
    const auto body = [&](int64_t b, int64_t e) {
        covered.fetch_add(e - b, std::memory_order_relaxed);
    };
    parallelFor(0, 64, 1, body);  // warm-up: global-pool creation
    const long before = g_heap_allocs.load();
    for (int i = 0; i < calls; ++i)
        parallelFor(0, 64, 1, body);
    const long after = g_heap_allocs.load();
    EXPECT_EQ(covered.load(), 64 * (calls + 1));
    return after - before;
}

TEST(ThreadPool, PooledParallelForAllocatesNothing)
{
#ifdef MLPERF_UNDER_SANITIZER
    GTEST_SKIP() << "allocation counting is not meaningful under "
                    "sanitizers";
#endif
    const int restore_threads = ThreadPool::global()->threadCount();
    for (const int width : {2, 4}) {
        ThreadPool::setGlobalThreads(width);
        EXPECT_EQ(allocationsAcross(200), 0)
            << "global pool, width " << width;

        long bound_allocs = -1;
        std::thread bound([&] {
            IntraOpBinding binding(width);
            bound_allocs = allocationsAcross(200);
        });
        bound.join();
        EXPECT_EQ(bound_allocs, 0) << "bound pool, width " << width;
    }
    ThreadPool::setGlobalThreads(restore_threads);
}

} // namespace
} // namespace mlperf
