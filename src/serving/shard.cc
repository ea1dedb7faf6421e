#include "serving/shard.h"

#include <algorithm>
#include <chrono>

#include "common/lock_probe.h"
#include "common/parallel.h"

namespace mlperf {
namespace serving {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/** How long an idle worker that may steal parks on its own queue
 *  between steal sweeps. Short enough that a burst landing on a
 *  neighbour shard is picked up promptly; long enough that an idle
 *  pool does not spin. */
constexpr std::chrono::microseconds kIdleParkUs{200};

ShardOptions
sanitized(ShardOptions options)
{
    options.shards = std::max<int64_t>(1, options.shards);
    options.workersPerShard =
        std::max<int64_t>(1, options.workersPerShard);
    options.ringCapacity = std::max<size_t>(2, options.ringCapacity);
    if (options.initialActiveShards <= 0 ||
        options.initialActiveShards > options.shards) {
        options.initialActiveShards = options.shards;
    }
    return options;
}

} // namespace

ShardedWorkerPool::ShardedWorkerPool(sim::Executor &executor,
                                     BatchInference &inference,
                                     ServingStats &stats,
                                     ShardOptions options, PullFn pull)
    : executor_(executor), inference_(inference), stats_(stats),
      options_(sanitized(std::move(options))), pull_(std::move(pull)),
      intraOpWidth_(ThreadPool::budgetShare(options_.shards *
                                            options_.workersPerShard))
{
    const size_t shards = static_cast<size_t>(options_.shards);
    const size_t active =
        static_cast<size_t>(options_.initialActiveShards);
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
        shards_.push_back(std::make_unique<Shard>(
            options_.queueCapacityBatches, options_.ringCapacity));
        if (i >= active) {
            // Held in reserve for the autoscaler: no workers, and a
            // closed queue so a racing submitTo reroutes instead of
            // queueing work nobody would pick up.
            shards_[i]->accepting.store(false, kRelaxed);
            shards_[i]->queue.close();
        }
    }
    activeShards_.store(active, std::memory_order_release);
    stats_.setWorkers(workerCount());
    if (shards > 1)  // the gauge reads 0 for an unsharded pool
        stats_.setActiveShards(static_cast<int64_t>(active));

    for (size_t s = 0; s < active; ++s)
        spawnShardWorkers(s);
}

void
ShardedWorkerPool::spawnShardWorkers(size_t index)
{
    const size_t perShard =
        static_cast<size_t>(options_.workersPerShard);
    Shard &shard = *shards_[index];
    shard.workers.reserve(perShard);
    for (size_t w = 0; w < perShard; ++w)
        shard.workers.emplace_back([this, index] { workerLoop(index); });
}

ShardedWorkerPool::~ShardedWorkerPool()
{
    shutdown();
}

size_t
ShardedWorkerPool::shardFor(uint64_t key, size_t shards)
{
    if (shards <= 1)
        return 0;
    // splitmix64 finisher: sample ids and tenant routes are dense
    // small integers, and `id % shards` would map a strided issue
    // pattern onto one shard; the mix spreads any key distribution.
    uint64_t z = key + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<size_t>(z % shards);
}

bool
ShardedWorkerPool::submit(Batch &batch)
{
    const uint64_t first =
        batch.items.empty() ? 0 : batch.items.front().sample.id;
    const uint64_t key =
        (static_cast<uint64_t>(batch.route) << 32) ^ first;
    return submitTo(shardFor(key, activeShardCount()), batch);
}

bool
ShardedWorkerPool::submitTo(size_t shard_index, Batch &batch)
{
    Shard &shard = *shards_[shard_index];
    if (shard.queue.tryPush(batch))
        return true;
    if (!shard.queue.closed())
        return false;  // full: backpressure, the caller sheds
    // The target shard closed under us (a concurrent shrink, or a
    // batcher still aimed at it). Reroute across the other shards —
    // the batch must not be lost to a scaling race; only genuine
    // backpressure (every open queue full) may refuse it.
    const size_t shards = shards_.size();
    for (size_t i = 1; i < shards; ++i) {
        if (shards_[(shard_index + i) % shards]->queue.tryPush(batch))
            return true;
    }
    return false;
}

bool
ShardedWorkerPool::growOneShard()
{
    std::lock_guard<std::mutex> lock(scaleMutex_);
    if (stopped_.load(kRelaxed))
        return false;
    const size_t active = activeShards_.load(kRelaxed);
    if (active >= shards_.size())
        return false;
    Shard &shard = *shards_[active];
    // The previous shrink joined this shard's workers before closing
    // the books, so reopening the queue races with no consumer.
    shard.queue.reopen();
    shard.accepting.store(true, kRelaxed);
    spawnShardWorkers(active);
    activeShards_.store(active + 1, std::memory_order_release);
    stats_.setWorkers(workerCount());
    stats_.setActiveShards(static_cast<int64_t>(active + 1));
    stats_.recordScaleEvent(true);
    if (afterGrow_)
        afterGrow_(active + 1);
    return true;
}

bool
ShardedWorkerPool::shrinkOneShard()
{
    std::lock_guard<std::mutex> lock(scaleMutex_);
    if (stopped_.load(kRelaxed))
        return false;
    const size_t active = activeShards_.load(kRelaxed);
    if (active <= 1)
        return false;
    const size_t victim = active - 1;
    // Unroute first: new submits hash over the smaller set before the
    // victim stops accepting, so the close window only ever sees
    // stragglers — and those reroute in submitTo.
    activeShards_.store(victim, std::memory_order_release);
    if (beforeShrink_)
        beforeShrink_(victim);
    Shard &shard = *shards_[victim];
    shard.accepting.store(false, kRelaxed);
    shard.queue.close();
    // Workers drain everything already queued, then exit: drain-and-
    // join, so a shrink can never lose a completion.
    for (std::thread &worker : shard.workers) {
        if (worker.joinable())
            worker.join();
    }
    shard.workers.clear();
    stats_.setWorkers(workerCount());
    stats_.setActiveShards(static_cast<int64_t>(victim));
    stats_.recordScaleEvent(false);
    return true;
}

void
ShardedWorkerPool::shutdown()
{
    if (stopped_.exchange(true))
        return;
    // The scale lock orders shutdown after any in-flight grow/shrink;
    // later calls see stopped_ and bail.
    std::lock_guard<std::mutex> lock(scaleMutex_);
    for (auto &shard : shards_)
        shard->queue.close();
    for (auto &shard : shards_) {
        for (std::thread &worker : shard->workers) {
            if (worker.joinable())
                worker.join();
        }
        shard->workers.clear();
    }
    // Workers are joined, so every record they will ever publish is
    // already in a ring and none of them holds the drain role: this
    // sweep takes it and cannot miss a record.
    drainIfFree();
}

uint64_t
ShardedWorkerPool::queuedSamples() const
{
    uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->queue.queuedSamples();
    return total;
}

uint64_t
ShardedWorkerPool::queuedSamplesOn(size_t shard) const
{
    return shards_[shard]->queue.queuedSamples();
}

bool
ShardedWorkerPool::workerFree(size_t shard) const
{
    return shards_[shard]->queue.workerFree();
}

uint64_t
ShardedWorkerPool::steals() const
{
    uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->steals.load(kRelaxed);
    return total;
}

void
ShardedWorkerPool::workerLoop(size_t shard_index)
{
    IntraOpBinding budget(intraOpWidth_);
    Shard &own = *shards_[shard_index];
    // With no other shard to steal from, an idle worker parks until
    // work or close arrives: a timed park would only wake it to find
    // nothing, at a context switch per wake.
    const bool may_steal = options_.stealWhenIdle && shards_.size() > 1;
    for (;;) {
        // Own work first: a shard's workers are its dedicated service
        // capacity, and stealing is strictly the idle fallback.
        if (auto batch = popBusy(shard_index)) {
            process(shard_index, std::move(*batch));
            continue;
        }
        // Idle from here until work arrives, counted before the pull
        // (serving/demand_queue.h).
        own.queue.enterIdle();
        if (pull_ && pull_(shard_index)) {
            own.queue.leaveIdle();
            continue;
        }
        // A draining shard's workers do not steal: their job is to
        // empty their own queue and exit so the shrink join returns.
        Batch stolen;
        if (may_steal && own.accepting.load(kRelaxed) &&
            trySteal(shard_index, stolen)) {
            own.queue.leaveIdle();
            process(shard_index, std::move(stolen));
            continue;
        }
        auto batch = may_steal ? own.queue.popFor(kIdleParkUs)
                               : own.queue.pop();
        own.queue.leaveIdle();
        if (batch) {
            process(shard_index, std::move(*batch));
            continue;
        }
        if (own.queue.drained())
            break;
    }
}

std::optional<Batch>
ShardedWorkerPool::popBusy(size_t index)
{
    return shards_[index]->queue.tryPopBusy(
        [this, index] { return pull_ && pull_(index); });
}

bool
ShardedWorkerPool::trySteal(size_t thief, Batch &out)
{
    const size_t shards = shards_.size();
    for (size_t i = 1; i < shards; ++i) {
        if (auto batch = popBusy((thief + i) % shards)) {
            shards_[thief]->steals.fetch_add(1, kRelaxed);
            out = std::move(*batch);
            return true;
        }
    }
    return false;
}

void
ShardedWorkerPool::process(size_t shard_index, Batch &&batch)
{
    Shard &shard = *shards_[shard_index];
    const sim::Tick start = executor_.now();
    CompletionRecord expired = expiredRecord(batch, start);
    if (expired.kind != CompletionRecord::Kind::None)
        publish(shard, std::move(expired));
    if (batch.items.empty())
        return;
    publish(shard,
            runBatchRecord(executor_, inference_, std::move(batch), start));
}

void
ShardedWorkerPool::publish(Shard &shard, CompletionRecord &&record)
{
    const uint64_t locks_before = record.locksAtReturn;
    if (shard.ring.tryPush(record)) {
        // The zero-mutex contract is measured, not assumed: any
        // instrumented lock taken between the record's locksAtReturn
        // snapshot (right after runBatch returned, or before the
        // expired split) and this point shows up in
        // fastPathLockAcquisitions(), which the shard tests pin to 0.
        const uint64_t delta =
            LockProbe::threadAcquisitions() - locks_before;
        if (delta != 0)
            fastPathLocks_.fetch_add(delta, kRelaxed);
        drainIfFree();
        return;
    }
    // Ring full: the drain role's holder is far behind (or the ring is
    // test-tiny). Complete through the locked slow path rather than
    // block or drop, and make the event visible — a nonzero fallback
    // count at sane ring sizes means applying records is the
    // bottleneck.
    ringFallbacks_.fetch_add(1, kRelaxed);
    applyRecord(record, stats_, options_.trackerActive,
                options_.sloTargetNs);
}

void
ShardedWorkerPool::drainIfFree()
{
    // No record is stranded. Every access to draining_ is an acq_rel
    // exchange (which ThreadSanitizer models, unlike a fence). The
    // exchanges are totally ordered, each reads the one before it,
    // and since no plain store ever intervenes, every exchange after
    // a release continues the release sequence it heads. Take a
    // publisher whose exchange E, after its ring push, finds the role
    // held: the holder's release exchange R comes after E, so E
    // synchronizes-with R and the holder's re-check below sees the
    // push. That re-check may still find the ring's next record half
    // written (its producer between the cursor CAS and the release
    // store) and return; that producer's own E then comes after R
    // (else the re-check would have seen its store), so the producer
    // or the next holder — who acquired after R, and so sees every
    // record pushed before it — drains past it.
    while (!draining_.exchange(true, std::memory_order_acq_rel)) {
        drainRingsOnce();
        draining_.exchange(false, std::memory_order_acq_rel);
        if (std::none_of(shards_.begin(), shards_.end(),
                         [](const auto &shard) {
                             return shard->ring.ready();
                         })) {
            return;
        }
    }
}

void
ShardedWorkerPool::drainRingsOnce()
{
    CompletionRecord record;
    for (auto &shard : shards_) {
        while (shard->ring.tryPop(record)) {
            applyRecord(record, stats_, options_.trackerActive,
                        options_.sloTargetNs);
        }
    }
}

} // namespace serving
} // namespace mlperf
