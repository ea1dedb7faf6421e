#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>

#include "common/lock_probe.h"

namespace mlperf {

namespace {

thread_local bool t_in_worker = false;
thread_local ThreadPool *t_bound = nullptr;

int
defaultThreadCount()
{
    if (const char *env = std::getenv("MLPERF_INTRAOP_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::mutex g_pool_mutex;
std::shared_ptr<ThreadPool> g_pool;

/** Low half of the chunk cursor: the next chunk; high half: the tag. */
constexpr uint64_t kChunkMask = 0xFFFFFFFFu;

} // namespace

ThreadPool::ThreadPool(int threads)
    : threadCount_(std::max(threads, 1))
{
    threads_.reserve(static_cast<size_t>(threadCount_ - 1));
    for (int i = 0; i < threadCount_ - 1; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

bool
ThreadPool::inWorker()
{
    return t_in_worker;
}

ThreadPool *
ThreadPool::bound()
{
    return t_bound;
}

void
ThreadPool::runChunks(const JobView &job)
{
    const bool was_in_worker = t_in_worker;
    t_in_worker = true;
    uint64_t cursor = cursor_.load(std::memory_order_relaxed);
    for (;;) {
        // Claim by CAS, never by fetch_add: an increment that lands
        // after the cursor was re-tagged would skip the next job's
        // chunk. A stale load only makes the CAS fail and reload.
        if ((cursor >> 32) != job.tag ||
            (cursor & kChunkMask) >= job.chunkCount)
            break;
        if (!cursor_.compare_exchange_weak(cursor, cursor + 1,
                                           std::memory_order_relaxed))
            continue;
        const int64_t chunk = static_cast<int64_t>(cursor & kChunkMask);
        const int64_t b = job.begin + chunk * job.grain;
        const int64_t e = std::min(b + job.grain, job.end);
        job.fn(job.obj, b, e);
        if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            job.chunkCount) {
            LockProbe::noteAcquire();
            std::lock_guard<std::mutex> lock(doneMutex_);
            doneCv_.notify_all();
        }
        cursor = cursor_.load(std::memory_order_relaxed);
    }
    t_in_worker = was_in_worker;
}

void
ThreadPool::workerLoop()
{
    uint64_t seen_epoch = 0;
    for (;;) {
        JobView job;
        {
            LockProbe::noteAcquire();
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] {
                return stop_ || epoch_ != seen_epoch;
            });
            if (stop_)
                return;
            seen_epoch = epoch_;
            // May describe a job that already finished: its tag no
            // longer matches a claimable cursor, so nothing runs.
            job = job_;
        }
        runChunks(job);
    }
}

void
ThreadPool::run(int64_t begin, int64_t end, int64_t min_grain, void *obj,
                ChunkFn fn)
{
    if (end <= begin)
        return;
    const int64_t n = end - begin;
    min_grain = std::max<int64_t>(min_grain, 1);
    if (threadCount_ <= 1 || t_in_worker || n <= min_grain) {
        fn(obj, begin, end);
        return;
    }

    // ~4 chunks per thread for load balance, but never below min_grain.
    const int64_t target_chunks =
        static_cast<int64_t>(threadCount_) * 4;
    const int64_t grain =
        std::max(min_grain, (n + target_chunks - 1) / target_chunks);

    JobView job;
    job.obj = obj;
    job.fn = fn;
    job.begin = begin;
    job.end = end;
    job.grain = grain;
    job.chunkCount = static_cast<uint64_t>((n + grain - 1) / grain);

    LockProbe::noteAcquire();
    std::lock_guard<std::mutex> run_lock(runMutex_);
    {
        // The previous job's chunks all completed before its caller
        // returned, so nothing still counts into completed_ or claims
        // from the cursor being re-tagged here.
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        job.tag = ++epoch_ & kChunkMask;
        job_ = job;
        completed_.store(0, std::memory_order_relaxed);
        cursor_.store(job.tag << 32, std::memory_order_relaxed);
    }
    cv_.notify_all();

    runChunks(job);  // the caller is a worker too

    LockProbe::noteAcquire();
    std::unique_lock<std::mutex> lock(doneMutex_);
    doneCv_.wait(lock, [&] {
        return completed_.load(std::memory_order_acquire) ==
               job.chunkCount;
    });
}

std::shared_ptr<ThreadPool>
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_shared<ThreadPool>(defaultThreadCount());
    return g_pool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    auto pool = std::make_shared<ThreadPool>(threads);
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_pool = std::move(pool);
}

int
ThreadPool::budgetShare(int64_t workers)
{
    // The global pool's size, without spawning its threads when no
    // unbound caller has needed it yet.
    int64_t budget = 0;
    {
        std::lock_guard<std::mutex> lock(g_pool_mutex);
        budget = g_pool ? g_pool->threadCount() : defaultThreadCount();
    }
    return static_cast<int>(
        std::max<int64_t>(1, budget / std::max<int64_t>(1, workers)));
}

IntraOpBinding::IntraOpBinding(int width)
    : pool_(width), previous_(t_bound)
{
    t_bound = &pool_;
}

IntraOpBinding::~IntraOpBinding()
{
    t_bound = previous_;
}

} // namespace mlperf
