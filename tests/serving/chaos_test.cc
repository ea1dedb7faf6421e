/**
 * @file
 * Tests for the chaos-injection harness: seeded determinism, exact
 * fault-kind injection, modeled-time effects of spikes/wedges, and
 * layering under ResilientInference so injected faults flow through
 * the same retry/breaker machinery as real ones.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serving/chaos.h"
#include "serving/resilience.h"
#include "serving/shard.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"

namespace mlperf {
namespace serving {
namespace {

using sim::kNsPerMs;

/** Minimal always-succeeding engine with a fixed modeled cost. */
class CountingInference : public BatchInference
{
  public:
    std::string name() const override { return "counting"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        batches_.fetch_add(1);
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok"});
        return responses;
    }

    sim::Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &,
                  sim::Tick) override
    {
        return 2 * kNsPerMs;
    }

    std::atomic<uint64_t> batches_{0};
};

std::vector<loadgen::QuerySample>
makeSamples(uint64_t count, uint64_t first_id = 0)
{
    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < count; ++i)
        samples.push_back({first_id + i, i});
    return samples;
}

/**
 * Drive @p chaos through @p batches event-mode cycles (serviceTimeNs
 * at dispatch, runBatch at completion), swallowing injected faults.
 */
ChaosCounters
runCycles(FaultInjectingInference &chaos, uint64_t batches)
{
    for (uint64_t i = 0; i < batches; ++i) {
        const auto samples = makeSamples(2, i * 2);
        chaos.serviceTimeNs(samples, 0);
        try {
            chaos.runBatch(samples);
        } catch (const InferenceFault &) {
        }
    }
    return chaos.counters();
}

TEST(FaultInjecting, NoFaultsByDefault)
{
    CountingInference inner;
    FaultInjectingInference chaos(inner, {});

    EXPECT_EQ(chaos.name(), "chaos(counting)");
    const ChaosCounters counters = runCycles(chaos, 100);
    EXPECT_EQ(counters.total(), 0u);
    EXPECT_EQ(inner.batches_.load(), 100u);
    // No injected faults: the modeled time is the inner engine's.
    EXPECT_EQ(chaos.serviceTimeNs(makeSamples(1, 1000), 0),
              2 * kNsPerMs);
}

TEST(FaultInjecting, TransientProbabilityOneFailsEveryBatch)
{
    CountingInference inner;
    ChaosOptions options;
    options.transientFaultProb = 1.0;
    FaultInjectingInference chaos(inner, options);

    for (uint64_t i = 0; i < 10; ++i) {
        try {
            chaos.runBatch(makeSamples(1, i));
            FAIL() << "expected InferenceFault";
        } catch (const InferenceFault &fault) {
            EXPECT_EQ(fault.kind(), FaultKind::Transient);
        }
    }
    EXPECT_EQ(chaos.counters().transientFaults, 10u);
    EXPECT_EQ(inner.batches_.load(), 0u);
}

TEST(FaultInjecting, DropCompletionThrowsDropKind)
{
    CountingInference inner;
    ChaosOptions options;
    options.dropCompletionProb = 1.0;
    FaultInjectingInference chaos(inner, options);

    try {
        chaos.runBatch(makeSamples(3));
        FAIL() << "expected InferenceFault";
    } catch (const InferenceFault &fault) {
        EXPECT_EQ(fault.kind(), FaultKind::DropCompletion);
    }
    EXPECT_EQ(chaos.counters().droppedCompletions, 1u);
}

TEST(FaultInjecting, SpikeAndWedgeExtendModeledServiceTime)
{
    CountingInference inner;
    ChaosOptions options;
    options.latencySpikeProb = 1.0;
    options.latencySpikeNs = 7 * kNsPerMs;
    FaultInjectingInference spiky(inner, options);

    const auto samples = makeSamples(1);
    EXPECT_EQ(spiky.serviceTimeNs(samples, 0),
              2 * kNsPerMs + 7 * kNsPerMs);
    // The planned spike is consumed by runBatch, which still answers.
    const auto responses = spiky.runBatch(samples);
    EXPECT_EQ(responses.size(), 1u);
    EXPECT_EQ(spiky.counters().latencySpikes, 1u);

    ChaosOptions wedge_options;
    wedge_options.wedgeProb = 1.0;
    wedge_options.wedgeNs = 500 * kNsPerMs;
    FaultInjectingInference wedged(inner, wedge_options);
    EXPECT_EQ(wedged.serviceTimeNs(samples, 0),
              2 * kNsPerMs + 500 * kNsPerMs);
}

TEST(FaultInjecting, SameSeedSameFaultSequence)
{
    ChaosOptions options;
    options.seed = 7;
    options.latencySpikeProb = 0.1;
    options.transientFaultProb = 0.1;
    options.permanentFaultProb = 0.1;
    options.dropCompletionProb = 0.1;
    options.wedgeProb = 0.1;

    CountingInference inner_a, inner_b;
    FaultInjectingInference a(inner_a, options);
    FaultInjectingInference b(inner_b, options);

    const ChaosCounters ca = runCycles(a, 400);
    const ChaosCounters cb = runCycles(b, 400);
    EXPECT_EQ(ca.latencySpikes, cb.latencySpikes);
    EXPECT_EQ(ca.transientFaults, cb.transientFaults);
    EXPECT_EQ(ca.permanentFaults, cb.permanentFaults);
    EXPECT_EQ(ca.droppedCompletions, cb.droppedCompletions);
    EXPECT_EQ(ca.wedges, cb.wedges);
    EXPECT_EQ(inner_a.batches_.load(), inner_b.batches_.load());

    // Each fault kind fired at roughly its configured 10% share.
    EXPECT_GT(ca.total(), 100u);
    EXPECT_LT(ca.total(), 300u);
    EXPECT_GT(ca.transientFaults, 0u);
    EXPECT_GT(ca.wedges, 0u);
}

TEST(FaultInjecting, WedgedWorkerRacingShrinkLosesNoSample)
{
    // The nastiest autoscaler race: the victim shard's worker is
    // wedged inside runBatch (chaos wedge) with more work queued
    // behind it when shrinkOneShard() starts the drain. The shrink
    // must wait the wedge out, drain the backlog, and every sample —
    // wedged, queued-behind, or submitted mid-shrink — must surface
    // with exactly one terminal status.
    class WedgeThenCountInference : public BatchInference
    {
      public:
        std::string name() const override { return "wedge-once"; }

        std::vector<loadgen::QuerySampleResponse>
        runBatch(
            const std::vector<loadgen::QuerySample> &samples) override
        {
            if (!wedged_.exchange(true))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(60));
            std::vector<loadgen::QuerySampleResponse> responses;
            responses.reserve(samples.size());
            for (const auto &sample : samples)
                responses.push_back({sample.id, "ok"});
            return responses;
        }

      private:
        std::atomic<bool> wedged_{false};
    };

    class CountingDelegate : public loadgen::ResponseDelegate
    {
      public:
        void
        querySamplesComplete(
            const std::vector<loadgen::QuerySampleResponse>
                &responses) override
        {
            total_.fetch_add(responses.size(),
                             std::memory_order_relaxed);
        }
        uint64_t total() const { return total_.load(); }

      private:
        std::atomic<uint64_t> total_{0};
    };

    sim::RealExecutor executor;
    WedgeThenCountInference inference;
    ServingStats stats;
    CountingDelegate delegate;

    ShardOptions options;
    options.shards = 2;
    options.workersPerShard = 1;
    options.queueCapacityBatches = 0;
    options.stealWhenIdle = false;  // the backlog must ride the drain
    ShardedWorkerPool pool(executor, inference, stats, options);

    auto submitTo = [&delegate, &pool](size_t shard, uint64_t id) {
        Batch batch;
        BatchItem item;
        item.sample = {id, id};
        item.delegate = &delegate;
        batch.items.push_back(item);
        ASSERT_TRUE(pool.submitTo(shard, batch));
    };

    // Wedge shard 1 (the shrink victim) and stack a backlog behind
    // the wedged batch.
    constexpr uint64_t kBacklog = 30;
    for (uint64_t i = 0; i < kBacklog; ++i)
        submitTo(1, i);

    // Race the shrink against the wedge, submitting to the victim's
    // index the whole while — those must reroute to shard 0.
    std::thread shrinker([&pool] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_TRUE(pool.shrinkOneShard());
    });
    constexpr uint64_t kDuringShrink = 100;
    for (uint64_t i = 0; i < kDuringShrink; ++i) {
        submitTo(1, 1000 + i);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    shrinker.join();
    EXPECT_EQ(pool.activeShardCount(), 1u);

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (delegate.total() < kBacklog + kDuringShrink &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pool.shutdown();

    EXPECT_EQ(delegate.total(), kBacklog + kDuringShrink);
    EXPECT_EQ(pool.fastPathLockAcquisitions(), 0u);
    const StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.completedOk, kBacklog + kDuringShrink);
}

TEST(FaultInjecting, LayersUnderResilientInference)
{
    sim::VirtualExecutor ex;
    CountingInference inner;
    ChaosOptions options;
    options.transientFaultProb = 1.0;
    FaultInjectingInference chaos(inner, options);
    ServingStats stats;
    RetryOptions retry;
    retry.maxAttempts = 3;
    ResilientInference resilient(ex, chaos, nullptr, retry, {}, stats);

    // Every attempt draws a fresh transient fault; after maxAttempts
    // the resilient layer gives up with a Permanent fault.
    try {
        resilient.runBatch(makeSamples(1));
        FAIL() << "expected InferenceFault";
    } catch (const InferenceFault &fault) {
        EXPECT_EQ(fault.kind(), FaultKind::Permanent);
    }
    EXPECT_EQ(chaos.counters().transientFaults, 3u);

    const StatsSnapshot snapshot = stats.snapshot();
    EXPECT_EQ(snapshot.retries, 2u);
    EXPECT_EQ(snapshot.retriesExhausted, 1u);
    EXPECT_EQ(inner.batches_.load(), 0u);
}

} // namespace
} // namespace serving
} // namespace mlperf
