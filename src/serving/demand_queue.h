/**
 * @file
 * A shard's batch queue together with the counters that answer
 * WorkerPool::workerFree(): the one threaded implementation of the
 * demand protocol behind a window-0 DynamicBatcher, one per shard of
 * ShardedWorkerPool.
 *
 * The protocol. A worker that finds no queued batch counts itself
 * idle, then pulls from its batcher; a producer releases a partial
 * batch only while idle workers outnumber queued batches (each queued
 * batch claims one idle worker). The batcher judges both under its
 * lock, so a producer that saw no free worker left its samples for
 * the pull, and one that ran after the pull sees the worker idle.
 * The counts may overstate free workers (a batch then queues early)
 * but must never understate them, or samples wait in the batcher
 * while a worker sleeps. Two rules keep it so:
 *
 *  - a batch is counted after its push and uncounted inside the pop
 *    that takes it, before the taker stops counting itself idle;
 *  - a taker this queue does not count idle (a worker between
 *    batches, or a thief from another shard) takes an idle worker's
 *    claim with the batch, so it pulls on that worker's behalf
 *    whenever one is left free (tryPopBusy).
 *
 * Samples, which workerFree() does not read, are counted before the
 * push instead: the SUT's admission depth reads queuedSamples() (a
 * tenant's, its own count; countTenantQueued), so it must never wrap
 * below zero.
 */

#ifndef MLPERF_SERVING_DEMAND_QUEUE_H
#define MLPERF_SERVING_DEMAND_QUEUE_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "serving/batch.h"
#include "serving/bounded_queue.h"

namespace mlperf {
namespace serving {

class DemandQueue
{
  public:
    /** @param capacity maximum queued batches; 0 means unbounded. */
    explicit DemandQueue(size_t capacity) : queue_(capacity) {}

    /** Enqueue without blocking; false (batch intact) when full or
     *  closed. */
    bool
    tryPush(Batch &batch)
    {
        const uint64_t samples = batch.items.size();
        queuedSamples_.fetch_add(samples, kRelaxed);
        countTenantQueued(batch, true);
        if (!queue_.tryPush(batch)) {
            queuedSamples_.fetch_sub(samples, kRelaxed);
            countTenantQueued(batch, false);
            return false;
        }
        queuedBatches_.fetch_add(1, kRelaxed);
        return true;
    }

    /** Blocking pop by a worker counted idle, the park of a worker
     *  with no shard to steal from; nullopt once closed and drained. */
    std::optional<Batch> pop() { return uncount(queue_.pop()); }

    /** pop() that gives up after @p timeout; drained() tells a
     *  timeout from the end. */
    std::optional<Batch>
    popFor(std::chrono::microseconds timeout)
    {
        return uncount(queue_.popFor(timeout));
    }

    /**
     * Non-blocking pop by a taker this queue does not count idle. The
     * batch was claiming one of this queue's idle workers; if that
     * leaves one free, @p pull_for_idle runs on its behalf (a worker
     * parked in pop() never pulls again by itself).
     */
    template <typename Pull>
    std::optional<Batch>
    tryPopBusy(Pull &&pull_for_idle)
    {
        std::optional<Batch> batch = uncount(queue_.tryPop());
        if (batch && workerFree())
            pull_for_idle();
        return batch;
    }

    /** A worker found no queued batch; call before its pull. */
    void enterIdle() { idleWorkers_.fetch_add(1, kRelaxed); }
    /** The worker holds a batch, pulled one, or is leaving. */
    void leaveIdle() { idleWorkers_.fetch_sub(1, kRelaxed); }

    /** An idle worker that no queued batch claims (lock-free). */
    bool
    workerFree() const
    {
        return idleWorkers_.load(kRelaxed) > queuedBatches_.load(kRelaxed);
    }

    /** Samples admitted but not yet picked up (relaxed read). */
    uint64_t queuedSamples() const { return queuedSamples_.load(kRelaxed); }

    void close() { queue_.close(); }
    /** See BoundedQueue::reopen. */
    void reopen() { queue_.reopen(); }
    bool closed() const { return queue_.closed(); }
    bool drained() const { return queue_.drained(); }

  private:
    static constexpr auto kRelaxed = std::memory_order_relaxed;

    std::optional<Batch>
    uncount(std::optional<Batch> batch)
    {
        if (batch) {
            queuedSamples_.fetch_sub(batch->items.size(), kRelaxed);
            countTenantQueued(*batch, false);
            queuedBatches_.fetch_sub(1, kRelaxed);
        }
        return batch;
    }

    BoundedQueue<Batch> queue_;
    /** Hot counters on their own cache lines: producers bump them on
     *  every batch while workers decrement them, and neither should
     *  false-share with the queue's lock. */
    alignas(64) std::atomic<uint64_t> queuedSamples_{0};
    std::atomic<int64_t> queuedBatches_{0};
    alignas(64) std::atomic<int64_t> idleWorkers_{0};
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_DEMAND_QUEUE_H
