/**
 * @file
 * Dynamic batcher: merges samples from independent queries into
 * batches. A full batch leaves at once; a partial one leaves by one
 * of two rules:
 *
 *  - window > 0: when the batching-window deadline expires. The
 *    deadline is scheduled through sim::Executor, so the batcher
 *    behaves identically under VirtualExecutor (deterministic virtual
 *    time) and RealExecutor (wall clock). A wider window forms fuller
 *    batches (throughput) at the cost of queueing delay (latency) —
 *    see bench_serving_batching.
 *  - window 0 with a demand source: when a worker can start it. The
 *    batcher asks the pool after the enqueue's full batches were
 *    handed over; while every worker is busy the samples keep
 *    accumulating, and a worker that runs out of queued batches
 *    pull()s up to max_batch of them. Under load the busy period
 *    fills the batches, so no timer is needed (FlushReason::Demand).
 *
 * Window 0 without a demand source releases every enqueue at once.
 */

#ifndef MLPERF_SERVING_BATCHER_H
#define MLPERF_SERVING_BATCHER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "serving/batch.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

class DynamicBatcher
{
  public:
    /** Receives each formed batch (called with no locks held). */
    using EmitFn = std::function<void(Batch &&)>;
    /**
     * Whether a worker could start one more batch now. Called with
     * the batcher's lock held, so it must not call back into the
     * batcher.
     */
    using DemandFn = std::function<bool()>;

    /**
     * @param max_batch largest batch formed (>= 1)
     * @param timeout_ns how long a partial batch may wait for more
     *        samples; 0 = no window (see the file comment)
     * @param worker_free demand source, used only when timeout_ns is
     *        0; empty = release every enqueue at once
     */
    DynamicBatcher(sim::Executor &executor, int64_t max_batch,
                   sim::Tick timeout_ns, EmitFn emit,
                   DemandFn worker_free = {});

    /**
     * Add a query's samples; may emit one or more full batches.
     * @p deadline (absolute tick, 0 = none) is stamped on every item
     * so worker pools can shed expired work at dispatch.
     */
    void enqueue(const std::vector<loadgen::QuerySample> &samples,
                 loadgen::ResponseDelegate &delegate,
                 sim::Tick deadline = 0);

    /**
     * A worker ran out of queued batches: emit up to max_batch pending
     * samples as one FlushReason::Demand batch. False when nothing was
     * pending.
     */
    bool pull();

    /** Emit everything pending immediately (FlushReason::Drain). */
    void flush();

    /** Samples currently awaiting batch formation. */
    size_t pending() const;

  private:
    /** Pop @p count pending items into a batch (lock held). */
    Batch takeBatch(size_t count, FlushReason reason);
    /** Take up to max_batch pending items as a Demand batch into
     *  @p out; with @p ask_pool only if a worker is free. */
    bool takeDemand(bool ask_pool, Batch &out);
    void emitAll(std::vector<Batch> &batches);
    void armDeadline();
    void onDeadline(uint64_t generation);

    sim::Executor &executor_;
    const int64_t maxBatch_;
    const sim::Tick timeoutNs_;
    EmitFn emit_;
    const DemandFn workerFree_;

    mutable std::mutex mutex_;
    std::deque<BatchItem> pending_;
    bool deadlineArmed_ = false;
    /** Bumped whenever pending_ empties; stale deadlines no-op. */
    uint64_t generation_ = 0;
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_BATCHER_H
