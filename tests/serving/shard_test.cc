/**
 * @file
 * Tests for the threaded serving runtime: the lock-free MPSC
 * completion ring (fill/drain/wraparound, concurrent publish/drain),
 * hash routing stability, idle-only work stealing, the untimed idle
 * park of a pool with nothing to steal, the drain role's hand-off,
 * the zero-mutex fast-path contract (via LockProbe), ring-full
 * fallback losslessness, and end-to-end runs through ServingSut and
 * the multi-tenant platform.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "serving/bounded_queue.h"
#include "serving/mpsc_ring.h"
#include "serving/serving_stats.h"
#include "serving/serving_sut.h"
#include "serving/shard.h"
#include "serving/tenancy/model_registry.h"
#include "serving/tenancy/platform.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"
#include "sut/serving_adapters.h"

namespace mlperf {
namespace serving {
namespace {

// ------------------------------------------------------ test doubles

/** Thread-safe delegate counting completions by status. */
class CountingDelegate : public loadgen::ResponseDelegate
{
  public:
    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        for (const auto &response : responses) {
            total_.fetch_add(1, std::memory_order_relaxed);
            switch (response.status) {
              case loadgen::ResponseStatus::Ok:
                ok_.fetch_add(1, std::memory_order_relaxed);
                break;
              case loadgen::ResponseStatus::Timeout:
                timeout_.fetch_add(1, std::memory_order_relaxed);
                break;
              case loadgen::ResponseStatus::Failed:
                failed_.fetch_add(1, std::memory_order_relaxed);
                break;
              default:
                break;
            }
        }
    }

    uint64_t total() const { return total_.load(); }
    uint64_t ok() const { return ok_.load(); }
    uint64_t timeout() const { return timeout_.load(); }
    uint64_t failed() const { return failed_.load(); }

  private:
    std::atomic<uint64_t> total_{0};
    std::atomic<uint64_t> ok_{0};
    std::atomic<uint64_t> timeout_{0};
    std::atomic<uint64_t> failed_{0};
};

/** Same, but each completion call burns real time (slow consumer). */
class SlowDelegate : public CountingDelegate
{
  public:
    explicit SlowDelegate(std::chrono::microseconds delay)
        : delay_(delay)
    {
    }

    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        std::this_thread::sleep_for(delay_);
        CountingDelegate::querySamplesComplete(responses);
    }

  private:
    const std::chrono::microseconds delay_;
};

/** Instant lock-free inference; optional per-batch real delay. */
class FakeInference : public BatchInference
{
  public:
    explicit FakeInference(std::chrono::microseconds delay = {})
        : delay_(delay)
    {
    }

    std::string name() const override { return "fake"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        if (delay_.count() > 0)
            std::this_thread::sleep_for(delay_);
        batches_.fetch_add(1, std::memory_order_relaxed);
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok"});
        return responses;
    }

    uint64_t batches() const { return batches_.load(); }

  private:
    const std::chrono::microseconds delay_;
    std::atomic<uint64_t> batches_{0};
};

// Stalls on the first batch only, so a test can wedge one shard's
// worker for a known window while the rest of the load sits queued.
class StallFirstInference : public BatchInference
{
  public:
    explicit StallFirstInference(std::chrono::milliseconds stall)
        : stall_(stall)
    {
    }

    std::string name() const override { return "stall-first"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        if (!stalled_.exchange(true))
            std::this_thread::sleep_for(stall_);
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok"});
        return responses;
    }

  private:
    const std::chrono::milliseconds stall_;
    std::atomic<bool> stalled_{false};
};

Batch
makeBatch(uint64_t first_id, size_t samples,
          loadgen::ResponseDelegate &delegate, sim::Tick deadline = 0)
{
    Batch batch;
    batch.items.reserve(samples);
    for (size_t i = 0; i < samples; ++i) {
        BatchItem item;
        item.sample = {first_id + i, first_id + i};
        item.delegate = &delegate;
        item.deadline = deadline;
        batch.items.push_back(item);
    }
    return batch;
}

/**
 * Holds its first delivery — and with it the drain role — until the
 * inference has run @p hold_for batches, then 20 ms more, so records
 * published meanwhile find the role taken.
 */
class HoldFirstDelegate : public CountingDelegate
{
  public:
    HoldFirstDelegate(const FakeInference &inference, uint64_t hold_for)
        : inference_(inference), holdFor_(hold_for)
    {
    }

    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        if (!holding_.exchange(true)) {
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (inference_.batches() < holdFor_ &&
                   std::chrono::steady_clock::now() < give_up) {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            released_.store(std::chrono::steady_clock::now());
            returned_.store(true);
        }
        CountingDelegate::querySamplesComplete(responses);
    }

    bool holding() const { return holding_.load(); }
    bool returned() const { return returned_.load(); }
    std::chrono::steady_clock::time_point
    released() const
    {
        return released_.load();
    }

  private:
    const FakeInference &inference_;
    const uint64_t holdFor_;
    std::atomic<bool> holding_{false};
    std::atomic<bool> returned_{false};
    std::atomic<std::chrono::steady_clock::time_point> released_{};
};

/** A demand pull that never finds anything, counting its calls. */
struct CountingPull
{
    std::atomic<uint64_t> calls{0};

    WorkerPool::PullFn
    fn()
    {
        return [this](size_t) {
            calls.fetch_add(1);
            return false;
        };
    }
};

void
awaitTotal(const CountingDelegate &delegate, uint64_t expected)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (delegate.total() < expected &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

// ----------------------------------------------------------- MpscRing

TEST(MpscRing, FillDrainWraparound)
{
    MpscRing<uint64_t> ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_TRUE(ring.empty());

    // Several laps around the ring to exercise sequence wraparound.
    uint64_t next = 0;
    for (int lap = 0; lap < 10; ++lap) {
        for (uint64_t i = 0; i < 4; ++i) {
            uint64_t v = next + i;
            ASSERT_TRUE(ring.tryPush(v));
        }
        EXPECT_EQ(ring.approxSize(), 4u);
        for (uint64_t i = 0; i < 4; ++i) {
            uint64_t out = 0;
            ASSERT_TRUE(ring.tryPop(out));
            EXPECT_EQ(out, next + i);  // FIFO across laps
        }
        next += 4;
        EXPECT_TRUE(ring.empty());
    }
}

TEST(MpscRing, RejectsWhenFullAndRoundsCapacityUp)
{
    MpscRing<int> ring(3);  // rounds up to 4
    EXPECT_EQ(ring.capacity(), 4u);
    for (int i = 0; i < 4; ++i) {
        int v = i;
        ASSERT_TRUE(ring.tryPush(v));
    }
    int rejected = 99;
    EXPECT_FALSE(ring.tryPush(rejected));
    EXPECT_EQ(rejected, 99);  // left intact, like BoundedQueue
    int out = -1;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 0);
    int v = 100;
    EXPECT_TRUE(ring.tryPush(v));  // slot freed by the pop
}

TEST(MpscRing, ConcurrentPublishDrainStress)
{
    // Multi-producer publish against a single live consumer, through
    // a ring much smaller than the item count so producers constantly
    // hit the full case and retry — the shape of the serving fast
    // path under a lagging drainer.
    constexpr uint64_t kProducers = 4;
    constexpr uint64_t kPerProducer = 5000;
    MpscRing<uint64_t> ring(64);

    std::vector<std::thread> producers;
    for (uint64_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&ring, p] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                uint64_t value = (p << 32) | i;
                while (!ring.tryPush(value))
                    std::this_thread::yield();
            }
        });
    }

    std::vector<uint64_t> lastSeen(kProducers, 0);
    std::vector<uint64_t> counts(kProducers, 0);
    uint64_t drained = 0;
    while (drained < kProducers * kPerProducer) {
        uint64_t value = 0;
        if (!ring.tryPop(value)) {
            std::this_thread::yield();
            continue;
        }
        const uint64_t producer = value >> 32;
        const uint64_t seq = value & 0xFFFFFFFFu;
        ASSERT_LT(producer, kProducers);
        // Per-producer FIFO: the ring may interleave producers but
        // never reorders one producer's publications.
        if (counts[producer] > 0) {
            EXPECT_GT(seq, lastSeen[producer]);
        }
        lastSeen[producer] = seq;
        ++counts[producer];
        ++drained;
    }
    for (std::thread &producer : producers)
        producer.join();
    for (uint64_t p = 0; p < kProducers; ++p)
        EXPECT_EQ(counts[p], kPerProducer);
    EXPECT_TRUE(ring.empty());
}

// ------------------------------------------------------- ShardRouting

TEST(ShardRouting, StableAndCovering)
{
    constexpr size_t kShards = 4;
    std::vector<uint64_t> perShard(kShards, 0);
    for (uint64_t key = 0; key < 10000; ++key) {
        const size_t shard = ShardedWorkerPool::shardFor(key, kShards);
        ASSERT_LT(shard, kShards);
        // Stable: same key, same shard, every time.
        EXPECT_EQ(shard, ShardedWorkerPool::shardFor(key, kShards));
        ++perShard[shard];
    }
    // Covering and roughly balanced: the splitmix finisher must not
    // collapse dense sequential ids (the LoadGen's id pattern) onto
    // few shards.
    for (size_t s = 0; s < kShards; ++s) {
        EXPECT_GT(perShard[s], 10000u / kShards / 2);
        EXPECT_LT(perShard[s], 10000u / kShards * 2);
    }
    EXPECT_EQ(ShardedWorkerPool::shardFor(12345, 1), 0u);
}

// -------------------------------------------------- ShardedWorkerPool

TEST(ShardedWorkerPool, CompletesAllSamplesAcrossShards)
{
    sim::RealExecutor executor;
    FakeInference inference;
    ServingStats stats;
    CountingDelegate delegate;

    ShardOptions options;
    options.shards = 4;
    options.workersPerShard = 1;
    options.queueCapacityBatches = 0;  // unbounded: no shedding here
    ShardedWorkerPool pool(executor, inference, stats, options);
    EXPECT_EQ(pool.shardCount(), 4u);
    EXPECT_EQ(pool.workerCount(), 4);

    constexpr uint64_t kBatches = 200;
    constexpr size_t kPerBatch = 4;
    for (uint64_t b = 0; b < kBatches; ++b) {
        Batch batch = makeBatch(b * kPerBatch, kPerBatch, delegate);
        ASSERT_TRUE(pool.submit(batch));
    }
    pool.shutdown();

    EXPECT_EQ(delegate.total(), kBatches * kPerBatch);
    EXPECT_EQ(delegate.ok(), kBatches * kPerBatch);
    EXPECT_EQ(pool.queuedSamples(), 0u);

    const StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.completedOk, kBatches * kPerBatch);
    EXPECT_EQ(snap.batchesCompleted, kBatches);
}

TEST(ShardedWorkerPool, StealsOnlyWhenIdle)
{
    // Load shard 0 only, with the first batch wedging shard 0's
    // worker for 50 ms while the rest sit queued. With stealing on,
    // shard 1's otherwise-idle worker (parking at most ~200 us at a
    // time) must pull from shard 0's queue inside that window; with
    // stealing off it must not, and shard 0's own worker drains
    // everything once the stall clears. The sleep-polling wait
    // before shutdown() matters: on a single CPU (TSan especially)
    // the worker threads may not get scheduled at all while the main
    // thread is busy, and closing the queues first would let shard
    // 0's worker drain everything during join with nothing left to
    // steal.
    for (const bool steal : {true, false}) {
        sim::RealExecutor executor;
        StallFirstInference inference(std::chrono::milliseconds(50));
        ServingStats stats;
        CountingDelegate delegate;

        ShardOptions options;
        options.shards = 2;
        options.workersPerShard = 1;
        options.queueCapacityBatches = 0;
        options.stealWhenIdle = steal;
        ShardedWorkerPool pool(executor, inference, stats, options);

        constexpr uint64_t kBatches = 40;
        for (uint64_t b = 0; b < kBatches; ++b) {
            Batch batch = makeBatch(b, 1, delegate);
            ASSERT_TRUE(pool.submitTo(0, batch));
        }
        awaitTotal(delegate, kBatches);
        pool.shutdown();

        EXPECT_EQ(delegate.total(), kBatches);
        if (steal)
            EXPECT_GT(pool.steals(), 0u);
        else
            EXPECT_EQ(pool.steals(), 0u);
    }
}

TEST(ShardedWorkerPool, OneShardIdleWorkersParkUntilWork)
{
    // With no other shard to steal from, an idle worker pulls once and
    // then parks until work or close arrives. A timed park (200 us)
    // would pull about 250 times per worker here.
    sim::RealExecutor executor;
    FakeInference inference;
    ServingStats stats;
    CountingPull pull;

    ShardOptions options;
    options.shards = 1;
    options.workersPerShard = 2;
    ShardedWorkerPool pool(executor, inference, stats, options, pull.fn());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t idle_pulls = pull.calls.load();
    pool.shutdown();

    EXPECT_LE(idle_pulls, 2u * 2u);
}

TEST(ShardedWorkerPool, DrainRoleHandsOffWithoutFurtherPublishes)
{
    // Shard 1's worker takes the drain role for the first record and
    // holds it in the delivery, inside its sweep of ring 1. Three
    // batches then complete on shard 0 (no stealing, so their records
    // land in ring 0, which this sweep has passed) and find the role
    // taken. Only the holder's re-check after handing the role back
    // can deliver them: no later submit and no shutdown() comes to
    // sweep them up.
    sim::RealExecutor executor;
    FakeInference inference;
    ServingStats stats;
    HoldFirstDelegate delegate(inference, 4);

    ShardOptions options;
    options.shards = 2;
    options.workersPerShard = 2;
    options.queueCapacityBatches = 0;
    options.stealWhenIdle = false;
    ShardedWorkerPool pool(executor, inference, stats, options);

    Batch first = makeBatch(0, 1, delegate);
    ASSERT_TRUE(pool.submitTo(1, first));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!delegate.holding() &&
           std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(delegate.holding());
    for (uint64_t b = 1; b <= 3; ++b) {
        Batch batch = makeBatch(b, 1, delegate);
        ASSERT_TRUE(pool.submitTo(0, batch));
    }

    awaitTotal(delegate, 4);
    const auto delivered = std::chrono::steady_clock::now();
    ASSERT_TRUE(delegate.returned());
    EXPECT_EQ(delegate.total(), 4u);
    EXPECT_LT(delivered - delegate.released(),
              std::chrono::milliseconds(100));
    pool.shutdown();
    EXPECT_EQ(stats.snapshot().completedOk, 4u);
}

TEST(ShardedWorkerPool, FastPathTakesNoLocks)
{
    // The tentpole contract: the worker path from runBatch returning
    // to the record landing in the ring acquires zero mutexes. Every
    // instrumented lock site (BoundedQueue, ServingStats histograms)
    // feeds LockProbe; the pool measures the delta across each
    // publish and any nonzero count lands here.
    sim::RealExecutor executor;
    FakeInference inference;
    ServingStats stats;
    CountingDelegate delegate;

    ShardOptions options;
    options.shards = 2;
    options.workersPerShard = 2;
    options.queueCapacityBatches = 0;
    options.ringCapacity = 4096;  // ample: no ring-full fallbacks
    ShardedWorkerPool pool(executor, inference, stats, options);

    constexpr uint64_t kBatches = 500;
    for (uint64_t b = 0; b < kBatches; ++b) {
        Batch batch = makeBatch(b * 2, 2, delegate);
        ASSERT_TRUE(pool.submit(batch));
    }
    pool.shutdown();

    EXPECT_EQ(delegate.total(), kBatches * 2);
    EXPECT_EQ(pool.ringFallbacks(), 0u);
    EXPECT_EQ(pool.fastPathLockAcquisitions(), 0u);
}

TEST(ShardedWorkerPool, RingFullFallsBackLossless)
{
    // A test-tiny ring plus a slow consumer forces the full case:
    // workers must complete overflow batches through the locked
    // fallback (counted), and no completion may be lost either way.
    sim::RealExecutor executor;
    FakeInference inference;
    ServingStats stats;
    SlowDelegate delegate(std::chrono::microseconds(200));

    ShardOptions options;
    options.shards = 1;
    options.workersPerShard = 2;
    options.queueCapacityBatches = 0;
    options.ringCapacity = 2;
    ShardedWorkerPool pool(executor, inference, stats, options);

    constexpr uint64_t kBatches = 100;
    for (uint64_t b = 0; b < kBatches; ++b) {
        Batch batch = makeBatch(b, 1, delegate);
        ASSERT_TRUE(pool.submitTo(0, batch));
    }
    pool.shutdown();

    EXPECT_EQ(delegate.total(), kBatches);  // lossless
    EXPECT_GT(pool.ringFallbacks(), 0u);    // and the slow path showed
    const StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.completedOk, kBatches);
}

TEST(ShardedWorkerPool, ExpiredSamplesShedAtDispatchThroughRing)
{
    sim::RealExecutor executor;
    FakeInference inference;
    ServingStats stats;
    CountingDelegate delegate;

    ShardOptions options;
    options.shards = 2;
    options.workersPerShard = 1;
    options.queueCapacityBatches = 0;
    ShardedWorkerPool pool(executor, inference, stats, options);

    // Deadline of 1 ns after an epoch long past: expired on arrival.
    Batch expired = makeBatch(0, 3, delegate, /*deadline=*/1);
    ASSERT_TRUE(pool.submit(expired));
    Batch live = makeBatch(100, 2, delegate);
    ASSERT_TRUE(pool.submit(live));
    pool.shutdown();

    EXPECT_EQ(delegate.total(), 5u);
    EXPECT_EQ(delegate.timeout(), 3u);
    EXPECT_EQ(delegate.ok(), 2u);
    EXPECT_EQ(stats.snapshot().expiredSamples, 3u);
}

// -------------------------------------------------- ServingSutSharded

TEST(ServingSutSharded, EndToEndCompletesEverything)
{
    // One shard is Threads mode's default: it runs on the same pool,
    // with the same zero-lock fast path.
    for (const int64_t shards : {1, 2}) {
        SCOPED_TRACE(shards);
        sim::RealExecutor executor;
        FakeInference inference;
        CountingDelegate delegate;

        ServingOptions options;
        options.shards = shards;
        options.workers = 2;
        options.maxBatch = 4;
        options.batchTimeoutNs = 0;  // demand dispatch
        options.queueCapacityBatches = 0;
        ServingSut sut(executor, inference, options);
        EXPECT_EQ(sut.resolvedMode(), WorkerMode::Threads);
        EXPECT_EQ(sut.shardCount(), static_cast<size_t>(shards));
        ASSERT_NE(sut.shardedPool(), nullptr);

        constexpr uint64_t kQueries = 100;
        constexpr size_t kPerQuery = 4;
        for (uint64_t q = 0; q < kQueries; ++q) {
            std::vector<loadgen::QuerySample> samples;
            for (size_t i = 0; i < kPerQuery; ++i) {
                const uint64_t id = q * kPerQuery + i;
                samples.push_back({id, id});
            }
            sut.issueQuery(samples, delegate);
        }
        sut.flushQueries();
        awaitTotal(delegate, kQueries * kPerQuery);
        sut.shutdown();

        EXPECT_EQ(delegate.total(), kQueries * kPerQuery);
        EXPECT_EQ(delegate.ok(), kQueries * kPerQuery);
        const StatsSnapshot snap = sut.stats();
        EXPECT_EQ(snap.samplesIssued, kQueries * kPerQuery);
        EXPECT_EQ(snap.completedOk, kQueries * kPerQuery);
        // The gauge counts shards only when there are several.
        EXPECT_EQ(snap.activeShards, shards > 1 ? shards : 0);
        EXPECT_EQ(sut.shardedPool()->fastPathLockAcquisitions(), 0u);
    }
}

TEST(ServingSutSharded, EventsModeResolvesToOneShard)
{
    // The event pool runs on the executor thread — there is no lock
    // contention for shards to remove, so the knob resolves to 1.
    sim::VirtualExecutor executor;
    FakeInference inference;
    ServingOptions options;
    options.shards = 4;
    ServingSut sut(executor, inference, options);
    EXPECT_EQ(sut.resolvedMode(), WorkerMode::Events);
    EXPECT_EQ(sut.shardCount(), 1u);
    EXPECT_EQ(sut.shardedPool(), nullptr);
}

// --------------------------------------------------- ShardedPlatform

TEST(ShardedPlatform, TenantsSpreadAcrossShardsAndComplete)
{
    sim::RealExecutor executor;
    ModelRegistry registry;
    auto servable = std::make_shared<ServableModel>();
    servable->version = "v1";
    servable->engine = std::make_unique<sut::SyntheticBatchInference>(
        /*per_sample_ns=*/2000);
    registry.publish("synthetic", std::move(servable));

    PlatformOptions options;
    options.workers = 2;
    options.shards = 2;
    options.maxBatch = 4;
    options.batchTimeoutNs = 0;
    options.queueCapacityBatches = 0;
    options.mode = WorkerMode::Threads;
    ServingPlatform platform(executor, registry, options);
    const uint32_t route = platform.addModelRoute("synthetic");

    TenantPolicy policy;
    policy.name = "tenant-a";
    policy.sloDefaults = false;  // no admission, no deadline
    TenantSut &a = platform.addTenant(policy, route);
    policy.name = "tenant-b";
    TenantSut &b = platform.addTenant(policy, route);

    CountingDelegate delegateA;
    CountingDelegate delegateB;
    constexpr uint64_t kQueries = 50;
    for (uint64_t q = 0; q < kQueries; ++q) {
        std::vector<loadgen::QuerySample> samples{{q, q}};
        a.issueQuery(samples, delegateA);
        b.issueQuery(samples, delegateB);
    }
    a.flushQueries();
    b.flushQueries();
    awaitTotal(delegateA, kQueries);
    awaitTotal(delegateB, kQueries);
    platform.shutdown();

    EXPECT_EQ(delegateA.total(), kQueries);
    EXPECT_EQ(delegateB.total(), kQueries);
    EXPECT_EQ(a.stats().completedOk, kQueries);
    EXPECT_EQ(b.stats().completedOk, kQueries);
}

// ------------------------------------------------------- ServingStats

TEST(ServingStats, SnapshotConsistentUnderConcurrentWriters)
{
    ServingStats stats;
    constexpr uint64_t kThreads = 4;
    constexpr uint64_t kPerThread = 2000;
    std::atomic<bool> stop{false};

    // A reader hammering snapshot() while writers record: TSan-clean
    // and, once quiescent, exact.
    std::thread reader([&stats, &stop] {
        while (!stop.load())
            (void)stats.snapshot();
    });
    const std::vector<loadgen::QuerySampleResponse> one = {{0, ""}};
    std::vector<std::thread> writers;
    for (uint64_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&stats, &one] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                stats.recordIssued(1, i % 16);
                stats.recordTerminal(one);
                stats.recordBatchDone(100);
            }
        });
    }
    for (std::thread &writer : writers)
        writer.join();
    stop.store(true);
    reader.join();

    const StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.samplesIssued, kThreads * kPerThread);
    EXPECT_EQ(snap.completedOk, kThreads * kPerThread);
    EXPECT_EQ(snap.batchesCompleted, kThreads * kPerThread);
    EXPECT_EQ(snap.workerBusyNs, kThreads * kPerThread * 100);
}

// ------------------------------------------------- BoundedQueue extras

TEST(BoundedQueuePopFor, TimesOutEmptyAndReportsDrained)
{
    BoundedQueue<int> queue(4);
    // Empty queue: popFor returns nullopt after the timeout, and the
    // queue is not drained (not closed) — the idle-worker park path.
    EXPECT_FALSE(queue.popFor(std::chrono::microseconds(100)));
    EXPECT_FALSE(queue.drained());

    int v = 42;
    ASSERT_TRUE(queue.tryPush(v));
    EXPECT_EQ(*queue.popFor(std::chrono::microseconds(100)), 42);

    queue.close();
    EXPECT_TRUE(queue.drained());
    EXPECT_FALSE(queue.popFor(std::chrono::microseconds(100)));
}

} // namespace
} // namespace serving
} // namespace mlperf
