/**
 * @file
 * SLO-driven shard autoscaling: the EWMA/hysteresis primitives, the
 * controller's grow/shrink decision law on synthetic snapshots, the
 * elastic ShardedWorkerPool operations (reroute after shrink, reopen
 * on grow, no lost completions under churn, fast path still
 * lock-free), and the autoscaled ServingSut end to end.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serving/autoscaler.h"
#include "serving/chaos.h"
#include "serving/ewma.h"
#include "serving/serving_sut.h"
#include "serving/shard.h"
#include "sim/real_executor.h"

namespace mlperf {
namespace serving {
namespace {

using sim::kNsPerMs;

// ------------------------------------------------------ test doubles

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
            if (response.status == loadgen::ResponseStatus::Ok)
                ok_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    uint64_t total() const { return total_.load(); }
    uint64_t ok() const { return ok_.load(); }

  private:
    std::atomic<uint64_t> total_{0};
    std::atomic<uint64_t> ok_{0};
};

class FakeInference : public BatchInference
{
  public:
    std::string name() const override { return "fake"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok"});
        return responses;
    }
};

/** Sleeps per batch so SLO latencies are real and shards matter. */
class SleepyInference : public BatchInference
{
  public:
    explicit SleepyInference(std::chrono::microseconds delay)
        : delay_(delay)
    {
    }

    std::string name() const override { return "sleepy"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        std::this_thread::sleep_for(delay_);
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok"});
        return responses;
    }

  private:
    const std::chrono::microseconds delay_;
};

Batch
makeBatch(uint64_t first_id, size_t samples,
          loadgen::ResponseDelegate &delegate)
{
    Batch batch;
    batch.items.reserve(samples);
    for (size_t i = 0; i < samples; ++i) {
        BatchItem item;
        item.sample = {first_id + i, first_id + i};
        item.delegate = &delegate;
        batch.items.push_back(item);
    }
    return batch;
}

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

// ------------------------------------------------------------- Ewma

TEST(Ewma, ConvergesAndResets)
{
    Ewma ewma(0.5, 0.0);
    EXPECT_DOUBLE_EQ(ewma.value(), 0.0);
    ewma.observe(1.0);
    EXPECT_DOUBLE_EQ(ewma.value(), 0.5);
    ewma.observe(1.0);
    EXPECT_DOUBLE_EQ(ewma.value(), 0.75);
    for (int i = 0; i < 50; ++i)
        ewma.observe(1.0);
    EXPECT_NEAR(ewma.value(), 1.0, 1e-9);

    ewma.reset(0.25);
    EXPECT_DOUBLE_EQ(ewma.value(), 0.25);
}

TEST(Ewma, AlphaOneTracksInput)
{
    Ewma ewma(1.0);
    ewma.observe(3.5);
    EXPECT_DOUBLE_EQ(ewma.value(), 3.5);
    ewma.observe(-1.0);
    EXPECT_DOUBLE_EQ(ewma.value(), -1.0);
}

// --------------------------------------------------- HysteresisLatch

TEST(HysteresisLatch, EngagesHighReleasesLow)
{
    HysteresisLatch latch(/*engage=*/0.5, /*release=*/0.2);
    EXPECT_FALSE(latch.engaged());
    EXPECT_FALSE(latch.update(0.4));   // below engage: stays off
    EXPECT_TRUE(latch.update(0.5));    // at engage: on
    EXPECT_TRUE(latch.update(0.3));    // between: holds (hysteresis)
    EXPECT_TRUE(latch.update(0.21));
    EXPECT_FALSE(latch.update(0.2));   // at release: off
    EXPECT_FALSE(latch.update(0.4));   // between, rising: still off
    EXPECT_TRUE(latch.update(0.9));
}

// ------------------------------------------------- decision law (step)

struct StepHarness
{
    StepHarness()
        : inference(),
          stats(),
          options(makeShardOptions()),
          pool(executor, inference, stats, options)
    {
    }

    static ShardOptions
    makeShardOptions()
    {
        ShardOptions o;
        o.shards = 4;
        o.workersPerShard = 1;
        o.initialActiveShards = 1;
        o.queueCapacityBatches = 0;
        return o;
    }

    static AutoscaleOptions
    makeAutoscaleOptions()
    {
        AutoscaleOptions o;
        o.enabled = true;
        o.minShards = 1;
        o.maxShards = 4;
        o.intervalNs = 0;  // no controller thread: manual step()
        o.ewmaAlpha = 1.0; // undamped: decisions track each snapshot
        o.growThreshold = 0.10;
        o.shrinkThreshold = 0.02;
        o.shrinkHoldIntervals = 3;
        return o;
    }

    /** Cumulative snapshot: @p violations of @p samples this interval. */
    StatsSnapshot
    interval(uint64_t samples, uint64_t violations)
    {
        cumSamples_ += samples;
        cumViolations_ += violations;
        StatsSnapshot snap;
        snap.sloSamples = cumSamples_;
        snap.sloViolations = cumViolations_;
        return snap;
    }

    sim::RealExecutor executor;
    FakeInference inference;
    ServingStats stats;
    ShardOptions options;
    ShardedWorkerPool pool;
    uint64_t cumSamples_ = 0;
    uint64_t cumViolations_ = 0;
};

TEST(ShardAutoscaler, GrowsOnViolationsShrinksAfterQuietHold)
{
    StepHarness h;
    ShardAutoscaler scaler(h.pool, h.stats,
                           StepHarness::makeAutoscaleOptions());
    ASSERT_EQ(h.pool.activeShardCount(), 1u);

    // 20% violations: above growThreshold, one shard per step.
    scaler.step(h.interval(100, 20));
    EXPECT_EQ(h.pool.activeShardCount(), 2u);
    scaler.step(h.interval(100, 20));
    EXPECT_EQ(h.pool.activeShardCount(), 3u);
    scaler.step(h.interval(100, 20));
    EXPECT_EQ(h.pool.activeShardCount(), 4u);
    // At the ceiling: further pressure is a no-op.
    scaler.step(h.interval(100, 20));
    EXPECT_EQ(h.pool.activeShardCount(), 4u);
    EXPECT_EQ(scaler.scaleUps(), 3u);

    // Clean intervals: shrink only after the hold (3 intervals), one
    // shard at a time, never below minShards.
    scaler.step(h.interval(100, 0));
    scaler.step(h.interval(100, 0));
    EXPECT_EQ(h.pool.activeShardCount(), 4u) << "hold not yet met";
    scaler.step(h.interval(100, 0));
    EXPECT_EQ(h.pool.activeShardCount(), 3u);
    for (int i = 0; i < 12; ++i)
        scaler.step(h.interval(100, 0));
    EXPECT_EQ(h.pool.activeShardCount(), 1u);
    scaler.step(h.interval(100, 0));
    EXPECT_EQ(h.pool.activeShardCount(), 1u) << "min floor";
    EXPECT_EQ(scaler.scaleDowns(), 3u);

    // The gauge and counters surfaced through ServingStats.
    const StatsSnapshot snap = h.stats.snapshot();
    EXPECT_EQ(snap.scaleUps, 3u);
    EXPECT_EQ(snap.scaleDowns, 3u);
    EXPECT_EQ(snap.activeShards, 1);
    h.pool.shutdown();
}

TEST(ShardAutoscaler, MidBandPressureResetsShrinkHold)
{
    StepHarness h;
    ShardAutoscaler scaler(h.pool, h.stats,
                           StepHarness::makeAutoscaleOptions());
    scaler.step(h.interval(100, 50));
    ASSERT_EQ(h.pool.activeShardCount(), 2u);

    // Alternate quiet and mid-band (5%: between thresholds) so the
    // quiet streak never reaches the hold — no shrink.
    for (int i = 0; i < 6; ++i) {
        scaler.step(h.interval(100, 0));
        scaler.step(h.interval(100, 5));
    }
    EXPECT_EQ(h.pool.activeShardCount(), 2u);
    EXPECT_EQ(scaler.scaleDowns(), 0u);
    h.pool.shutdown();
}

TEST(ShardAutoscaler, ShedsCountAsPressure)
{
    // All completions meet the SLO but admission sheds demand scale-
    // out: shed load is unmet demand, not success.
    StepHarness h;
    ShardAutoscaler scaler(h.pool, h.stats,
                           StepHarness::makeAutoscaleOptions());
    StatsSnapshot snap;
    snap.sloSamples = 100;
    snap.sloViolations = 0;
    snap.admissionShedSamples = 50;
    scaler.step(snap);
    EXPECT_EQ(h.pool.activeShardCount(), 2u);
    EXPECT_GT(scaler.errorEwma(), 0.10);
    h.pool.shutdown();
}

// ------------------------------------------- elastic pool operations

TEST(ElasticShards, SubmitAfterShrinkReroutesAndCompletes)
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
    ASSERT_EQ(pool.activeShardCount(), 2u);

    ASSERT_TRUE(pool.shrinkOneShard());
    EXPECT_EQ(pool.activeShardCount(), 1u);
    EXPECT_FALSE(pool.shrinkOneShard()) << "never below one shard";

    // Explicit submits to the drained shard reroute, not fail.
    constexpr uint64_t kBatches = 50;
    for (uint64_t b = 0; b < kBatches; ++b) {
        Batch batch = makeBatch(b, 2, delegate);
        ASSERT_TRUE(pool.submitTo(1, batch));
    }
    awaitTotal(delegate, kBatches * 2);
    pool.shutdown();
    EXPECT_EQ(delegate.total(), kBatches * 2);
    EXPECT_EQ(delegate.ok(), kBatches * 2);
}

TEST(ElasticShards, GrowReopensDrainedShard)
{
    sim::RealExecutor executor;
    FakeInference inference;
    ServingStats stats;
    CountingDelegate delegate;

    ShardOptions options;
    options.shards = 3;
    options.workersPerShard = 1;
    options.initialActiveShards = 1;
    options.queueCapacityBatches = 0;
    ShardedWorkerPool pool(executor, inference, stats, options);
    ASSERT_EQ(pool.activeShardCount(), 1u);
    EXPECT_EQ(pool.workerCount(), 1);

    ASSERT_TRUE(pool.growOneShard());
    ASSERT_TRUE(pool.growOneShard());
    EXPECT_EQ(pool.activeShardCount(), 3u);
    EXPECT_EQ(pool.workerCount(), 3);
    EXPECT_FALSE(pool.growOneShard()) << "already at the ceiling";

    // Shrink-then-grow must hand back a working shard (queue
    // reopened, fresh workers).
    ASSERT_TRUE(pool.shrinkOneShard());
    ASSERT_TRUE(pool.growOneShard());
    constexpr uint64_t kBatches = 60;
    for (uint64_t b = 0; b < kBatches; ++b) {
        Batch batch = makeBatch(b, 1, delegate);
        ASSERT_TRUE(pool.submitTo(b % 3, batch));
    }
    awaitTotal(delegate, kBatches);
    pool.shutdown();
    EXPECT_EQ(delegate.total(), kBatches);

    const StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.scaleUps, 3u);
    EXPECT_EQ(snap.scaleDowns, 1u);
}

TEST(ElasticShards, ChurnUnderLoadLosesNothingAndStaysLockFree)
{
    // The acceptance contract: continuous submission while the
    // active-shard count whipsaws (with ~1% injected faults) loses
    // zero completions and acquires zero fast-path locks.
    sim::RealExecutor executor;
    FakeInference inner;
    ChaosOptions chaos_options;
    chaos_options.seed = 11;
    chaos_options.transientFaultProb = 0.01;
    FaultInjectingInference inference(inner, chaos_options);
    ServingStats stats;
    CountingDelegate delegate;

    ShardOptions options;
    options.shards = 4;
    options.workersPerShard = 1;
    options.initialActiveShards = 2;
    options.queueCapacityBatches = 0;
    options.sloTargetNs = sim::kNsPerSec;
    ShardedWorkerPool pool(executor, inference, stats, options);

    std::atomic<bool> stop{false};
    std::thread scaler([&pool, &stop] {
        while (!stop.load()) {
            pool.growOneShard();
            pool.growOneShard();
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            pool.shrinkOneShard();
            pool.shrinkOneShard();
            pool.shrinkOneShard();
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    });

    constexpr uint64_t kBatches = 3000;
    for (uint64_t b = 0; b < kBatches; ++b) {
        Batch batch = makeBatch(b * 2, 2, delegate);
        // Spread over every shard index, live or not: reroute must
        // cover the drained ones.
        while (!pool.submitTo(b % 4, batch))
            std::this_thread::yield();
    }
    awaitTotal(delegate, kBatches * 2);
    stop.store(true);
    scaler.join();
    pool.shutdown();

    // Every sample got exactly one terminal status (Ok or Failed from
    // an injected fault) — nothing lost, nothing duplicated.
    EXPECT_EQ(delegate.total(), kBatches * 2);
    EXPECT_GT(delegate.ok(), 0u);
    EXPECT_EQ(pool.fastPathLockAcquisitions(), 0u);

    const StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.completedOk + snap.completedFailed, kBatches * 2);
    EXPECT_EQ(snap.terminalSamples(), kBatches * 2);
    EXPECT_GE(snap.activeShards, 1);
}

// ------------------------------------------------ autoscaled ServingSut

TEST(AutoscaledServingSut, ControllerGrowsUnderSloPressure)
{
    // 1 ns SLO: every completion is a violation, so the controller
    // must walk the pool to maxShards on its own thread.
    sim::RealExecutor executor;
    SleepyInference inference(std::chrono::microseconds(200));
    ServingOptions options;
    options.mode = WorkerMode::Threads;
    options.workers = 4;
    options.shards = 1;
    options.maxBatch = 4;
    options.batchTimeoutNs = kNsPerMs / 10;
    options.autoscale.enabled = true;
    options.autoscale.minShards = 1;
    options.autoscale.maxShards = 4;
    options.autoscale.sloTargetNs = 1;
    options.autoscale.intervalNs = 2 * kNsPerMs;
    options.autoscale.ewmaAlpha = 1.0;
    options.autoscale.growThreshold = 0.5;
    ServingSut sut(executor, inference, options);
    ASSERT_NE(sut.shardedPool(), nullptr);
    ASSERT_NE(sut.autoscaler(), nullptr);
    ASSERT_EQ(sut.activeShardCount(), 1u);

    CountingDelegate delegate;
    constexpr uint64_t kQueries = 400;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    uint64_t issued = 0;
    while (issued < kQueries &&
           std::chrono::steady_clock::now() < deadline) {
        std::vector<loadgen::QuerySample> samples{{issued, issued}};
        sut.issueQuery(samples, delegate);
        ++issued;
        if (sut.activeShardCount() == 4u && issued > 100)
            break;  // scaled all the way: point proven
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    sut.flushQueries();
    awaitTotal(delegate, issued);
    const size_t peak_active = sut.activeShardCount();
    sut.shutdown();

    EXPECT_EQ(delegate.total(), issued);
    EXPECT_GT(peak_active, 1u) << "controller never grew";
    const StatsSnapshot snap = sut.stats();
    EXPECT_GT(snap.scaleUps, 0u);
    EXPECT_GT(snap.sloViolations, 0u);
    EXPECT_EQ(sut.shardedPool()->fastPathLockAcquisitions(), 0u);
}

TEST(AutoscaledServingSut, DisabledByDefaultAndInEventsMode)
{
    sim::RealExecutor executor;
    FakeInference inference;
    ServingOptions options;
    options.mode = WorkerMode::Threads;
    options.workers = 2;
    options.shards = 2;
    ServingSut plain(executor, inference, options);
    EXPECT_EQ(plain.autoscaler(), nullptr);
    plain.shutdown();
}

} // namespace
} // namespace serving
} // namespace mlperf
