/**
 * @file
 * Intra-op thread pools.
 *
 * One process-wide pool parallelizes the compute kernels: GEMM over
 * M panels, conv2d over the batch dimension, and any future data-
 * parallel loop. The pool is fork-join — parallelFor() blocks until
 * every chunk has run — and re-entrant calls from inside a worker
 * execute inline, so kernels can nest (conv2d parallelizes the batch,
 * the GEMM it calls stays serial on that worker) without
 * oversubscribing cores.
 *
 * One CPU budget: the global pool's size B is the budget for the
 * whole process. A thread that runs kernels concurrently with others
 * — a serving worker — binds its own share with IntraOpBinding:
 * W workers each get w = max(1, B / W) threads (ThreadPool::
 * budgetShare), so W x w <= B while W <= B. parallelFor uses the
 * calling thread's binding before it falls back to the global pool:
 * at w = 1 the worker runs kernels inline, at w > 1 on a private
 * fork-join pool of width w. Concurrent workers therefore never queue
 * on one pool's job lock.
 *
 * Pool size comes from MLPERF_INTRAOP_THREADS, defaulting to the
 * hardware concurrency; tests and SUTs may override it with
 * setGlobalThreads().
 */

#ifndef MLPERF_COMMON_PARALLEL_H
#define MLPERF_COMMON_PARALLEL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mlperf {

/** Fixed-size fork-join pool; one job in flight at a time. */
class ThreadPool
{
  public:
    /** @param threads total worker count including the caller;
     *  a pool of size <= 1 runs everything inline. */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers plus the participating caller thread. */
    int threadCount() const { return threadCount_; }

    /**
     * Run fn(chunk_begin, chunk_end) over [begin, end) split into
     * contiguous chunks of at least min_grain iterations. Blocks
     * until the whole range is done; the caller participates. Calls
     * from inside a pool worker run the range inline. Allocates
     * nothing: the pool owns its one job slot and holds @p fn by
     * reference, which the fork-join call keeps alive.
     */
    template <typename Fn>
    void
    parallelFor(int64_t begin, int64_t end, int64_t min_grain, Fn &&fn)
    {
        using F = std::remove_reference_t<Fn>;
        run(begin, end, min_grain,
            const_cast<void *>(static_cast<const void *>(&fn)),
            [](void *obj, int64_t b, int64_t e) {
                (*static_cast<F *>(obj))(b, e);
            });
    }

    /** True on a thread currently executing pool work. */
    static bool inWorker();

    /**
     * The calling thread's IntraOpBinding pool, or null when the
     * thread is unbound and parallelFor uses global().
     */
    static ThreadPool *bound();

    /**
     * Process-wide pool (created on first use). Its lookup lock is
     * the one pool lock LockProbe does not count.
     */
    static std::shared_ptr<ThreadPool> global();

    /**
     * Intra-op width of each of @p workers threads that run kernels
     * concurrently within the global pool's budget B:
     * max(1, B / workers), so workers x width <= B whenever
     * workers <= B.
     */
    static int budgetShare(int64_t workers);

    /** Replace the global pool; callers must be quiescent. */
    static void setGlobalThreads(int threads);

  private:
    /** Type-erased chunk body: fn(obj, chunk_begin, chunk_end). */
    using ChunkFn = void (*)(void *, int64_t, int64_t);

    /**
     * What a thread copies out of the job slot to work on one job.
     * `tag` is the job's epoch: chunks are claimed only while the
     * cursor still carries it.
     */
    struct JobView
    {
        void *obj = nullptr;
        ChunkFn fn = nullptr;
        int64_t begin = 0;
        int64_t end = 0;
        int64_t grain = 1;
        uint64_t chunkCount = 0;
        uint64_t tag = 0;
    };

    void run(int64_t begin, int64_t end, int64_t min_grain, void *obj,
             ChunkFn fn);
    void workerLoop();
    void runChunks(const JobView &job);

    const int threadCount_;
    std::vector<std::thread> threads_;
    std::mutex mutex_;              //!< guards job_/epoch_/stop_
    std::condition_variable cv_;
    /** The one job slot: jobs run one at a time under runMutex_. */
    JobView job_;
    uint64_t epoch_ = 0;
    bool stop_ = false;
    /**
     * Chunk cursor tagged with the job's epoch: high 32 bits the tag,
     * low 32 bits the next chunk. A worker that wakes late for job n
     * holds tag n, so its claim fails once job n+1 re-tags the cursor
     * and it never runs a chunk of a job it did not copy.
     */
    std::atomic<uint64_t> cursor_{0};
    std::atomic<uint64_t> completed_{0};
    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    std::mutex runMutex_;           //!< serializes parallelFor callers
};

/**
 * Binds the constructing thread to a private fork-join pool of
 * @p width threads (the caller included) until destruction:
 * parallelFor on that thread runs on this pool instead of the global
 * one, inline at width 1. Construct and destroy it on the thread it
 * binds; bindings nest.
 */
class IntraOpBinding
{
  public:
    explicit IntraOpBinding(int width);
    ~IntraOpBinding();

    IntraOpBinding(const IntraOpBinding &) = delete;
    IntraOpBinding &operator=(const IntraOpBinding &) = delete;

    int width() const { return pool_.threadCount(); }

  private:
    ThreadPool pool_;
    ThreadPool *previous_;
};

/**
 * parallelFor on the calling thread's bound pool, else the global
 * pool. Ranges that run inline (width-1 pool, nested call from a
 * worker, or range no larger than one grain) invoke the callable
 * directly; pooled ranges hand the pool a reference to it. Neither
 * allocates — the compiled-plan executor relies on this for its
 * zero-allocations-per-query steady state.
 */
template <typename Fn>
inline void
parallelFor(int64_t begin, int64_t end, int64_t min_grain, Fn &&fn)
{
    if (end <= begin)
        return;
    if (ThreadPool::inWorker() ||
        end - begin <= std::max<int64_t>(min_grain, 1)) {
        fn(begin, end);
        return;
    }
    std::shared_ptr<ThreadPool> global;
    ThreadPool *pool = ThreadPool::bound();
    if (pool == nullptr) {
        global = ThreadPool::global();
        pool = global.get();
    }
    if (pool->threadCount() <= 1) {
        fn(begin, end);
        return;
    }
    pool->parallelFor(begin, end, min_grain, fn);
}

} // namespace mlperf

#endif // MLPERF_COMMON_PARALLEL_H
