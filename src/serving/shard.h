/**
 * @file
 * The threaded serving runtime: N independent shards, each with its
 * own bounded queue and worker threads, publishing completions into
 * per-shard lock-free rings. Threads mode runs on it at every shard
 * count, the default single shard included.
 *
 * Why shards: at high core counts one batcher, one MPMC queue, and
 * mutex-guarded stats/tracker sit on every sample's hot path.
 * Sharding splits every shared structure: samples are routed to a
 * shard by hash, live their whole queued life inside it, and the
 * only cross-shard interaction is idle-only work stealing.
 *
 * Completions. A worker finishing a batch publishes one
 * CompletionRecord (serving/batch.h) into its shard's MpscRing — a
 * CAS and a release store, no mutex — and then tries to take the
 * drain role: one acq_rel exchange on a flag. The worker that holds
 * it applies every published record with the same applyRecord every
 * pool uses, so one thread at a time owns everything downstream:
 * per-stage histogram merges, CompletionTracker dedup, SLO judging
 * and delegate delivery. A worker that finds the role taken leaves
 * its record to the holder, whose re-check after giving the role up
 * sees it (drainIfFree() has the argument). No thread exists only to
 * drain, and no thread waits for the role.
 *
 * Steady-state locking contract, checked by LockProbe in the shard
 * tests: a worker's path from runBatch() returning to the record
 * landing in the ring acquires zero mutexes. One deliberate
 * exception, off the steady-state path: when a ring is full the
 * worker completes the batch directly through the locked path
 * (counted in ringFallbacks(), never silent).
 *
 * Every worker binds its share of the intra-op budget, counting the
 * autoscaler's ceiling of shards x workers; the prepacked constant
 * section is shared read-only, so shards need no replication.
 *
 * Demand (window-0 batchers) is per shard: each shard's DemandQueue
 * answers workerFree(s), and a worker whose own queue is empty pulls
 * from its shard's batcher before it tries to steal. A worker with no
 * other shard to steal from parks on its queue until work or close
 * arrives; only a steal sweep wakes on a timer.
 */

#ifndef MLPERF_SERVING_SHARD_H
#define MLPERF_SERVING_SHARD_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serving/batch.h"
#include "serving/batch_inference.h"
#include "serving/demand_queue.h"
#include "serving/mpsc_ring.h"
#include "serving/serving_stats.h"
#include "serving/worker_pool.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

struct ShardOptions
{
    /** Independent shards (>= 1). */
    int64_t shards = 2;
    /** Worker threads per shard (>= 1). */
    int64_t workersPerShard = 1;
    /** Per-shard queue capacity in batches; 0 = unbounded. */
    size_t queueCapacityBatches = 32;
    /** Let an idle worker (own queue empty) pull from other shards. */
    bool stealWhenIdle = true;
    /** Completion-ring slots per shard (rounded up to a power of 2). */
    size_t ringCapacity = 1024;
    /** A tracker records the samples' terminal statuses (applyRecord). */
    bool trackerActive = false;

    // ---- Elastic capacity (the SLO autoscaler, serving/autoscaler.h).
    /**
     * Shards live at construction; 0 = all of them. The remainder sit
     * idle — queue closed, no workers — until growOneShard() activates
     * them, so `shards` is the ceiling the autoscaler can grow into.
     */
    int64_t initialActiveShards = 0;
    /**
     * Per-sample completion-latency SLO (enqueue to completion); when
     * nonzero the drain-role holder judges every completed sample
     * against it and feeds ServingStats::recordSloOutcome — the
     * autoscaler's error signal. 0 disables the accounting.
     */
    sim::Tick sloTargetNs = 0;
};

/**
 * WorkerPool implementation backed by shards + completion rings.
 * submit() routes whole batches by hash (route ^ first sample id) —
 * the entry point of the multi-tenant platform, whose per-tenant
 * batchers already formed single-tenant batches; tenant routing
 * composes with shard routing because the hash spreads each tenant's
 * batch stream across all shards. submitTo() pins a batch to a known
 * shard — the entry point of ServingSut's per-shard batchers, where
 * samples were already hash-routed at issue time.
 */
class ShardedWorkerPool : public WorkerPool
{
  public:
    /** @param pull demand pull, called with the worker's shard. */
    ShardedWorkerPool(sim::Executor &executor,
                      BatchInference &inference, ServingStats &stats,
                      ShardOptions options, PullFn pull = {});
    ~ShardedWorkerPool() override;

    /** Route by hash of (route, first sample id); false = shard full. */
    bool submit(Batch &batch) override;

    /** Enqueue on a specific shard; false = that shard's queue full. */
    bool submitTo(size_t shard, Batch &batch);

    void shutdown() override;

    /** Workers on the currently active shards. */
    int64_t
    workerCount() const override
    {
        return static_cast<int64_t>(
                   activeShards_.load(std::memory_order_relaxed)) *
               options_.workersPerShard;
    }

    // ---- Elastic capacity. Active shards always form the prefix
    //      [0, activeShardCount()): grow activates the next index,
    //      shrink drains the last. Both serialize on one scale mutex
    //      and are safe against concurrent submit()/submitTo() — a
    //      batch aimed at a shard that closed mid-flight reroutes to
    //      a still-open shard instead of being lost or shed.

    /** Shards currently accepting work. */
    size_t
    activeShardCount() const
    {
        return activeShards_.load(std::memory_order_acquire);
    }

    /**
     * Activate the next inactive shard: reopen its queue, respawn its
     * workers, publish the larger active set. False when already at
     * the ceiling or shutting down.
     */
    bool growOneShard();

    /**
     * Drain the last active shard: unroute it, stop its queue, and
     * join its workers — every batch already queued on it is still
     * processed (workers exit only once the queue is drained), so no
     * completion is lost. False at one shard or when shutting down.
     */
    bool shrinkOneShard();

    /**
     * Hooks into the batcher layer above: @p before_shrink runs while
     * the victim shard still accepts work (the SUT narrows its batcher
     * fan-out and flushes the victim's batcher into the queue);
     * @p after_grow runs once the new shard accepts. Both receive the
     * new active-shard count.
     */
    void
    setScaleHooks(std::function<void(size_t)> before_shrink,
                  std::function<void(size_t)> after_grow)
    {
        beforeShrink_ = std::move(before_shrink);
        afterGrow_ = std::move(after_grow);
    }

    /** Lock-free: per-shard relaxed counters, summed on read. */
    uint64_t queuedSamples() const override;

    bool workerFree(size_t shard) const override;

    /** Intra-op threads each worker runs its kernels on. */
    int intraOpWidth() const { return intraOpWidth_; }

    size_t shardCount() const { return shards_.size(); }

    /** Samples queued on one shard (relaxed read). */
    uint64_t queuedSamplesOn(size_t shard) const;

    /** Stable shard for @p key: splitmix64 mix, then mod @p shards. */
    static size_t shardFor(uint64_t key, size_t shards);

    // ---- Runtime-contract counters (all relaxed reads).
    /** Batches executed by a worker whose own queue was empty. */
    uint64_t steals() const;
    /** Mutex acquisitions measured on the publish fast path (want 0). */
    uint64_t fastPathLockAcquisitions() const
    {
        return fastPathLocks_.load(std::memory_order_relaxed);
    }
    /** Completions that bypassed a full ring via the locked path. */
    uint64_t ringFallbacks() const
    {
        return ringFallbacks_.load(std::memory_order_relaxed);
    }

  private:
    struct Shard
    {
        Shard(size_t queue_capacity, size_t ring_capacity)
            : queue(queue_capacity), ring(ring_capacity)
        {
        }

        DemandQueue queue;
        MpscRing<CompletionRecord> ring;
        /** Workers; owned per shard so shrink can join them. */
        std::vector<std::thread> workers;
        /** False while the shard is inactive or draining: its own
         *  workers stop stealing so the shrink join stays prompt. */
        std::atomic<bool> accepting{true};
        alignas(64) std::atomic<uint64_t> steals{0};
    };

    void workerLoop(size_t shard_index);
    /** Spawn options_.workersPerShard threads into shard @p index. */
    void spawnShardWorkers(size_t index);
    /** tryPopBusy on shard @p index, pulling for its idle worker. */
    std::optional<Batch> popBusy(size_t index);
    /** Steal from another shard; called only with own queue empty. */
    bool trySteal(size_t thief, Batch &out);
    void process(size_t shard_index, Batch &&batch);
    /** Publish @p record; full ring falls back to applyRecord. */
    void publish(Shard &shard, CompletionRecord &&record);
    /** Take the drain role unless held, and apply what is published. */
    void drainIfFree();
    /** Apply every record each ring yields now (drain role held). */
    void drainRingsOnce();

    sim::Executor &executor_;
    BatchInference &inference_;
    ServingStats &stats_;
    const ShardOptions options_;
    const PullFn pull_;
    const int intraOpWidth_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<bool> stopped_{false};

    /** Active shards form the prefix [0, activeShards_). */
    std::atomic<size_t> activeShards_{0};
    /** Serializes grow/shrink/shutdown (never on the sample path). */
    std::mutex scaleMutex_;
    std::function<void(size_t)> beforeShrink_;
    std::function<void(size_t)> afterGrow_;

    alignas(64) std::atomic<uint64_t> fastPathLocks_{0};
    std::atomic<uint64_t> ringFallbacks_{0};
    /** The drain role: set while one worker applies ring records.
     *  Every access is an acq_rel exchange (drainIfFree()). */
    alignas(64) std::atomic<bool> draining_{false};
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_SHARD_H
