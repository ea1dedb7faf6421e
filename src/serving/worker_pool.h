/**
 * @file
 * Worker pools that execute formed batches concurrently.
 *
 * Two implementations behind one interface, one per kind of time:
 *
 *  - ShardedWorkerPool (serving/shard.h): OS threads pull batches
 *    from bounded per-shard queues and run real inference
 *    (RedisAI-style background workers). Used with RealExecutor,
 *    where compute takes wall time, at every shard count. Each
 *    thread binds its share of the intra-op budget
 *    (ThreadPool::budgetShare), so concurrent workers never wait on
 *    one another's kernel pool.
 *  - EventWorkerPool: N logical workers advance virtual time by the
 *    inference functor's modeled service time. Used with
 *    VirtualExecutor so full-scale server runs stay deterministic
 *    and fast.
 *
 * Both report backpressure by failing submit(), leaving the shed
 * policy to the caller (ServingSut fast-fails the batch and counts
 * it). Both report demand for a window-0 batcher: workerFree() says
 * whether a worker could start another batch now, and a worker that
 * runs out of queued batches calls the pool's PullFn to have the
 * batcher emit the samples it holds. Both reach the batch-outcome
 * policy only through serving/batch.h, and are built through
 * makeWorkerPool().
 */

#ifndef MLPERF_SERVING_WORKER_POOL_H
#define MLPERF_SERVING_WORKER_POOL_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "serving/batch.h"
#include "serving/batch_inference.h"
#include "serving/serving_stats.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

/** Which worker-pool flavor backs a serving frontend. */
enum class WorkerMode
{
    /** Events under virtual time, threads under wall-clock time. */
    Auto,
    Threads,
    Events,
};

class WorkerPool
{
  public:
    /**
     * Demand pull: a worker of @p shard that ran out of queued batches
     * calls it to have that shard's batcher emit up to one batch into
     * the pool (DynamicBatcher::pull); true when one was emitted.
     */
    using PullFn = std::function<bool(size_t shard)>;

    virtual ~WorkerPool() = default;

    /**
     * Admit a batch. On success the batch is consumed (moved from)
     * and true is returned; on backpressure the batch is left intact
     * and false is returned.
     */
    virtual bool submit(Batch &batch) = 0;

    /** Stop accepting work, drain what is queued, release workers. */
    virtual void shutdown() = 0;

    virtual int64_t workerCount() const = 0;

    /** Samples admitted but not yet picked up by a worker. */
    virtual uint64_t queuedSamples() const = 0;

    /**
     * Whether a worker of @p shard could start one more batch now: it
     * is idle and no queued batch already claims it. Lock-free; the
     * demand source of a window-0 DynamicBatcher.
     */
    virtual bool workerFree(size_t shard) const = 0;
};

/**
 * N logical workers driven entirely by executor events; inference
 * cost comes from BatchInference::serviceTimeNs. Runs on the
 * executor thread only (both executors fire events on the thread
 * calling run()), so it needs no locking.
 */
class EventWorkerPool : public WorkerPool
{
  public:
    /**
     * @param tracker_active a CompletionTracker records the ledger
     *        (applyRecord, serving/batch.h)
     * @param pull demand pull (shard 0); empty = workers only take
     *        submitted batches
     */
    EventWorkerPool(sim::Executor &executor,
                    BatchInference &inference, ServingStats &stats,
                    int64_t workers, size_t queue_capacity,
                    bool tracker_active = false, PullFn pull = {});

    bool submit(Batch &batch) override;
    void shutdown() override {}
    int64_t workerCount() const override { return workers_; }
    uint64_t queuedSamples() const override { return queuedSamples_; }
    bool
    workerFree(size_t) const override
    {
        return busyWorkers_ + static_cast<int64_t>(queue_.size()) <
               workers_;
    }

  private:
    /**
     * Start queued batches on free workers. @p pull: a worker just
     * freed, so once the queue is empty it pulls from the batcher. A
     * submit does not pull: the enqueue that submits full batches
     * judges demand for its remainder itself, afterwards.
     */
    void dispatch(bool pull);
    void finishBatch(Batch &&batch, sim::Tick dispatched_at);

    sim::Executor &executor_;
    BatchInference &inference_;
    ServingStats &stats_;
    const bool trackerActive_;
    const int64_t workers_;
    const size_t queueCapacity_;  //!< batches; 0 = unbounded
    const PullFn pull_;
    std::deque<Batch> queue_;
    uint64_t queuedSamples_ = 0;
    int64_t busyWorkers_ = 0;
    /** Set inside dispatch(): a submit from a pull only queues. */
    bool dispatching_ = false;
};

/**
 * The pool a serving frontend (ServingSut, ServingPlatform) runs on.
 * Workers and queue capacity are totals, split evenly across shards.
 */
struct PoolPlan
{
    WorkerMode mode = WorkerMode::Auto;
    int64_t workers = 4;
    size_t queueCapacityBatches = 64;  //!< 0 = unbounded
    int64_t shards = 1;  //!< Threads only; fixed: clamped to [1, workers]
    /** Elastic (> 0): `shards` is the ceiling and this many start. */
    int64_t activeShards = 0;
    bool stealWhenIdle = true;
    bool trackerActive = false;  //!< see applyRecord (serving/batch.h)
    sim::Tick sloTargetNs = 0;   //!< judged by the drain role (Threads)
};

/** @p plan with Auto resolved by the executor and its shards settled. */
PoolPlan resolvePlan(PoolPlan plan, const sim::Executor &executor);

/**
 * Build the pool a resolved @p plan names: a ShardedWorkerPool for
 * Threads (one shard by default), an EventWorkerPool for Events.
 * @p pull is the demand pull; a frontend with a batcher per shard
 * builds them first, since workers may pull as soon as they start.
 */
std::unique_ptr<WorkerPool> makeWorkerPool(sim::Executor &executor,
                                           BatchInference &inference,
                                           ServingStats &stats,
                                           const PoolPlan &plan,
                                           WorkerPool::PullFn pull = {});

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_WORKER_POOL_H
