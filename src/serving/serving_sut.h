/**
 * @file
 * ServingSut: the concurrent serving runtime packaged as a
 * loadgen::SystemUnderTest.
 *
 * Pipeline:  issueQuery -> admission control -> DynamicBatcher ->
 * bounded queue -> WorkerPool -> [ResilientInference ->]
 * BatchInference -> [CompletionTracker ->] ResponseDelegate (async).
 * With the default batchTimeoutNs of 0 the batcher and the pool
 * work on demand: a partial batch leaves when a worker can start it,
 * and idle workers pull what accumulated while they were busy.
 *
 * The paper's server scenario measures how a SUT copes with
 * "multiple users submitting concurrent, independent queries"
 * (Sec. III); every inline SUT in this repository answered on the
 * issuing thread, leaving nothing concurrent to measure. ServingSut
 * wraps any per-batch inference functor — the real NN engine or a
 * simulated hardware profile — behind a worker pool plus dynamic
 * batcher, completing responses asynchronously and instrumenting
 * every stage (queue depth, time-in-queue, batch size, utilization,
 * shed queries).
 *
 * Fault tolerance (all off by default; see ServingOptions):
 *
 *  - admission control sheds queries beyond an in-flight/queue budget
 *    at issueQuery (Shed status) — bounded queueing delay;
 *  - per-query deadlines: expired samples are shed at dispatch, and a
 *    CompletionTracker reaper completes anything still outstanding at
 *    the deadline with Timeout status, so a wedged worker or dropped
 *    completion can never hang the run;
 *  - retries + circuit breaker around the inference functor
 *    (ResilientInference);
 *  - graceful degradation: a fallback engine (e.g. an int8 plan)
 *    serves batches, marked Degraded, while the breaker is open or
 *    the shed-rate monitor is tripped.
 *
 * Overload policy: when the worker queue is full the whole batch is
 * *shed* — each sample is completed immediately with an empty payload
 * and Shed status (a fast-fail, like an HTTP 503). Error-status
 * samples count against their query in validity determination and are
 * surfaced in StatsSnapshot; they never leave the LoadGen waiting on
 * a response that will not come.
 */

#ifndef MLPERF_SERVING_SERVING_SUT_H
#define MLPERF_SERVING_SERVING_SUT_H

#include <atomic>
#include <memory>
#include <string>

#include <vector>

#include "loadgen/sut.h"
#include "serving/autoscaler.h"
#include "serving/batch_inference.h"
#include "serving/batcher.h"
#include "serving/completion_tracker.h"
#include "serving/ewma.h"
#include "serving/resilience.h"
#include "serving/serving_stats.h"
#include "serving/shard.h"
#include "serving/worker_pool.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

struct ServingOptions
{
    /** Largest formed batch. */
    int64_t maxBatch = 8;
    /**
     * How long the batcher may hold a partial batch. 0 = demand
     * dispatch: a partial batch leaves when a worker can start it,
     * and while every worker is busy the samples accumulate until a
     * worker pulls up to maxBatch of them. > 0 = hold up to the
     * window, then release (FlushReason::Timeout).
     */
    sim::Tick batchTimeoutNs = 0;
    /**
     * Worker pool size (threads or logical engines). Worker threads
     * split the intra-op budget: each runs kernels on
     * ThreadPool::budgetShare(workers) threads.
     */
    int64_t workers = 4;
    /**
     * Worker-queue capacity in batches; 0 = unbounded. A full queue
     * sheds (fast-fails) incoming batches — the backpressure signal.
     */
    size_t queueCapacityBatches = 64;
    WorkerMode mode = WorkerMode::Auto;

    // ---- Sharding (Threads mode only; Events resolves to 1 shard —
    //      the event pool is single-threaded, so there is no lock
    //      contention for shards to remove).
    /**
     * Split the runtime into this many independent shards, each with
     * its own batcher, queue, and workers; samples route to a
     * shard by hash of their id and completions flow through lock-free
     * per-shard rings (see serving/shard.h). Clamped to [1, workers];
     * `workers` is divided evenly across shards.
     */
    int64_t shards = 1;
    /** Let idle workers pull from other shards' queues. */
    bool stealWhenIdle = true;
    /**
     * SLO-driven elasticity (Threads mode only). When enabled the
     * pool is built with autoscale.maxShards shards, `shards` above
     * becomes the *initial* active count (clamped into [minShards,
     * maxShards]), and a controller thread grows/shrinks the active
     * set against the smoothed SLO error rate. See
     * serving/autoscaler.h for the control law.
     */
    AutoscaleOptions autoscale;

    // ---- Resilience (defaults disable every feature).
    /**
     * Per-query completion deadline relative to issue; 0 = none.
     * Enables the CompletionTracker: expired samples are shed at
     * dispatch, and samples not completed by the deadline (wedged
     * worker, dropped completion) are completed with Timeout status.
     * Wired from TestSettings::serverQueryDeadlineNs by the harness.
     */
    sim::Tick queryDeadlineNs = 0;
    /** In-flight / queue-depth budgets; zeros = no admission control. */
    AdmissionOptions admission;
    /** Retry policy for transient faults; maxAttempts=1 = off. */
    RetryOptions retry;
    /** Circuit breaker; enabled=false = off. */
    BreakerOptions breaker;
    /**
     * Optional degraded-path engine (not owned; must outlive the
     * SUT). Serves batches — marked Degraded — when the breaker is
     * open, after retries are exhausted, or while the shed-rate
     * monitor is tripped.
     */
    BatchInference *fallback = nullptr;
    /**
     * EWMA shed-rate at which degraded mode engages (exit at half of
     * it — hysteresis); 0 disables the monitor. Needs `fallback`.
     */
    double degradeShedRateThreshold = 0.0;
};

class ServingSut : public loadgen::SystemUnderTest
{
  public:
    ServingSut(sim::Executor &executor, BatchInference &inference,
               ServingOptions options = {});
    ~ServingSut() override;

    std::string name() const override;
    void issueQuery(const std::vector<loadgen::QuerySample> &samples,
                    loadgen::ResponseDelegate &delegate) override;
    void flushQueries() override;

    /**
     * Drain and release the workers (idempotent; the destructor
     * calls it). Ordering matters for teardown safety: flush the
     * batcher, join/drain the worker pool, then complete any samples
     * the tracker still holds (Timeout) — after that no late worker
     * or reaper event can reach the LoadGen's delegate. After
     * shutdown the stats snapshot is final, and its ledger holds one
     * terminal status per issued sample.
     */
    void shutdown();

    /** Live (or, after shutdown, final) stage counters. */
    StatsSnapshot stats() const { return stats_.snapshot(); }

    const ServingOptions &options() const { return options_; }

    /** The worker flavor Auto resolved to. */
    WorkerMode resolvedMode() const { return mode_; }

    /** Resilience wrapper, if any feature enabled it (else null). */
    ResilientInference *resilient() { return resilient_.get(); }

    /** Samples registered with the tracker but not yet completed. */
    uint64_t outstandingTracked() const
    {
        return tracker_ ? tracker_->outstanding() : 0;
    }

    /** Shards the runtime resolved to (1 unless Threads mode). When
     *  autoscaled this is the ceiling; see activeShardCount(). */
    size_t shardCount() const { return batchers_.size(); }

    /** Shards currently routed to (== shardCount() when static). */
    size_t
    activeShardCount() const
    {
        return activeBatchers_.load(std::memory_order_acquire);
    }

    /** The threaded pool (Threads mode, any shard count), else null. */
    ShardedWorkerPool *shardedPool() { return sharded_; }

    /** The SLO autoscaler when options enabled it, else null. */
    ShardAutoscaler *autoscaler() { return autoscaler_.get(); }

  private:
    void onBatchFormed(size_t shard, Batch &&batch);
    void shedBatch(const Batch &batch);
    /** Feed the shed-rate EWMA and flip degraded mode (hysteresis). */
    void noteShedSignal(uint64_t samples, bool shed);

    sim::Executor &executor_;
    BatchInference &inference_;
    ServingOptions options_;
    WorkerMode mode_;
    ServingStats stats_;
    std::unique_ptr<AdmissionController> admission_;
    std::shared_ptr<CompletionTracker> tracker_;
    std::unique_ptr<ResilientInference> resilient_;
    std::unique_ptr<WorkerPool> pool_;
    ShardedWorkerPool *sharded_ = nullptr;  //!< pool_ view, Threads
    /** One batcher per shard (a single one when unsharded), so batch
     *  formation itself never crosses shards. */
    std::vector<std::unique_ptr<DynamicBatcher>> batchers_;
    /** Batchers issueQuery partitions over: the pool's active-shard
     *  prefix. Equal to batchers_.size() unless autoscaled. */
    std::atomic<size_t> activeBatchers_{0};
    /** Declared after pool_ so it is destroyed (controller joined)
     *  before the pool it steers. */
    std::unique_ptr<ShardAutoscaler> autoscaler_;

    std::mutex degradeMutex_;
    Ewma shedEwma_;
    HysteresisLatch degradeLatch_;
    bool shutdownDone_ = false;
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_SERVING_SUT_H
