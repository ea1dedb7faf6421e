/**
 * @file
 * Bounded multi-producer/multi-consumer queue with backpressure.
 *
 * The hand-off point between the dynamic batcher and the threaded
 * worker pool, mirroring the run-queue/background-worker split of
 * production serving stacks (RedisAI-style). A full queue is the
 * backpressure signal: tryPush() fails instead of growing without
 * bound, and the caller sheds. Producers never block, so only
 * consumers wait.
 *
 * Two consumer-side needs come from the sharded pool: popFor() bounds
 * how long an idle worker sleeps before it looks at other shards'
 * queues (work stealing), and drained() is the post-close exit test.
 * Every lock acquisition notes itself with LockProbe so the zero-
 * mutex fast-path assertion of the shard tests can see this queue.
 */

#ifndef MLPERF_SERVING_BOUNDED_QUEUE_H
#define MLPERF_SERVING_BOUNDED_QUEUE_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/lock_probe.h"

namespace mlperf {
namespace serving {

template <typename T>
class BoundedQueue
{
  public:
    /** @param capacity maximum queued items; 0 means unbounded. */
    explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

    /**
     * Enqueue without blocking. Returns false — leaving @p value
     * untouched — when the queue is full or closed.
     */
    bool
    tryPush(T &value)
    {
        {
            LockProbe::noteAcquire();
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || full())
                return false;
            items_.push_back(std::move(value));
        }
        consumerCv_.notify_one();
        return true;
    }

    /**
     * Dequeue, blocking while the queue is empty. Returns nullopt
     * once the queue is closed AND drained — the worker shutdown
     * signal.
     */
    std::optional<T>
    pop()
    {
        LockProbe::noteAcquire();
        std::unique_lock<std::mutex> lock(mutex_);
        consumerCv_.wait(lock,
                         [this] { return closed_ || !items_.empty(); });
        return takeFront();
    }

    /**
     * Dequeue, blocking up to @p timeout while the queue is empty.
     * Returns nullopt on timeout or once closed and drained — callers
     * distinguish the two with drained().
     */
    std::optional<T>
    popFor(std::chrono::microseconds timeout)
    {
        LockProbe::noteAcquire();
        std::unique_lock<std::mutex> lock(mutex_);
        consumerCv_.wait_for(lock, timeout, [this] {
            return closed_ || !items_.empty();
        });
        return takeFront();
    }

    /** Non-blocking dequeue. */
    std::optional<T>
    tryPop()
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        return takeFront();
    }

    /** Reject new work; consumers drain what remains, then stop. */
    void
    close()
    {
        {
            LockProbe::noteAcquire();
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        consumerCv_.notify_all();
    }

    /**
     * Accept work again after close(). The shard autoscaler's grow
     * path: a drained shard's queue is closed while the shard is
     * inactive and reopened before its workers are respawned. Safe
     * only once every consumer that observed the close has exited —
     * the pool's scale lock guarantees that ordering.
     */
    void
    reopen()
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = false;
    }

    bool
    closed() const
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /** Closed and empty: nothing left for a consumer to do. */
    bool
    drained() const
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_ && items_.empty();
    }

  private:
    bool full() const { return capacity_ != 0 && items_.size() >= capacity_; }

    /** The oldest item, if any; mutex_ held. */
    std::optional<T>
    takeFront()
    {
        if (items_.empty())
            return std::nullopt;
        std::optional<T> out(std::move(items_.front()));
        items_.pop_front();
        return out;
    }

    const size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable consumerCv_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_BOUNDED_QUEUE_H
