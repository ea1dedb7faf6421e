/**
 * @file
 * Demand dispatch: with no batching window (the ServingOptions
 * default) a partial batch leaves when a worker can start it, and
 * while every worker is busy the samples accumulate until a worker
 * pulls them. Exact checks under virtual time, the counting rules of
 * DemandQueue step by step, plus a threaded run with concurrent
 * producers for the sanitizer gates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "serving/demand_queue.h"
#include "serving/serving_sut.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"

namespace mlperf {
namespace serving {
namespace {

using sim::kNsPerMs;
using sim::kNsPerUs;
using sim::Tick;

std::vector<loadgen::QuerySample>
makeSamples(uint64_t count, uint64_t first_id)
{
    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < count; ++i)
        samples.push_back({first_id + i, i});
    return samples;
}

std::vector<loadgen::QuerySampleResponse>
okResponses(const std::vector<loadgen::QuerySample> &samples)
{
    std::vector<loadgen::QuerySampleResponse> responses;
    for (const auto &sample : samples)
        responses.push_back({sample.id, "ok"});
    return responses;
}

/** Flat per-batch service time; records when each batch started. */
class RecordingInference : public BatchInference
{
  public:
    struct Dispatch
    {
        Tick at;
        size_t size;
    };

    explicit RecordingInference(Tick service_ns) : serviceNs_(service_ns)
    {
    }

    std::string name() const override { return "recording-inference"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        return okResponses(samples);
    }

    Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &samples,
                  Tick now) override
    {
        dispatches.push_back({now, samples.size()});
        return serviceNs_;
    }

    std::vector<Dispatch> dispatches;

  private:
    Tick serviceNs_;
};

/** Counts completions per sample id; thread-safe. */
class LedgerDelegate : public loadgen::ResponseDelegate
{
  public:
    explicit LedgerDelegate(size_t ids) : counts_(ids) {}

    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        for (const auto &response : responses) {
            ASSERT_LT(response.id, counts_.size());
            counts_[response.id].fetch_add(1);
        }
        total_.fetch_add(responses.size());
    }

    uint64_t total() const { return total_.load(); }

    /** Ids in [0, n) not completed exactly once. */
    uint64_t
    notExactlyOnce(size_t n) const
    {
        uint64_t bad = 0;
        for (size_t id = 0; id < n; ++id)
            bad += counts_[id].load() == 1 ? 0 : 1;
        return bad;
    }

    bool
    awaitTotal(uint64_t want) const
    {
        const auto limit =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (total() < want) {
            if (std::chrono::steady_clock::now() > limit)
                return false;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return true;
    }

  private:
    std::vector<std::atomic<int>> counts_;
    std::atomic<uint64_t> total_{0};
};

// ------------------------------------------------- virtual time, exact

TEST(DemandDispatch, IdleWorkerStartsAnArrivalAtOnce)
{
    EXPECT_EQ(ServingOptions{}.batchTimeoutNs, 0u);

    sim::VirtualExecutor ex;
    RecordingInference inference(kNsPerMs);
    ServingSut sut(ex, inference);  // the shipped defaults
    LedgerDelegate delegate(1);

    ex.schedule(5 * kNsPerMs,
                [&] { sut.issueQuery(makeSamples(1, 0), delegate); });
    ex.run();

    // 0 ns in the batcher: the sample starts the tick it arrives.
    ASSERT_EQ(inference.dispatches.size(), 1u);
    EXPECT_EQ(inference.dispatches[0].at, 5 * kNsPerMs);
    EXPECT_EQ(delegate.total(), 1u);
    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.demandFlushes, 1u);
    EXPECT_EQ(snapshot.timeoutFlushes, 0u);
    EXPECT_EQ(snapshot.timeInQueueNs.count(), 1u);
    EXPECT_EQ(snapshot.timeInQueueNs.max(), 0u);
}

/**
 * One worker with a flat service time S under arrivals every 1/lambda:
 * while it serves a batch the next lambda*S samples accumulate, and it
 * pulls them when it frees, so batches settle at min(maxBatch,
 * lambda*S). Gaps that do not divide S avoid arrival/finish ties.
 */
TEST(DemandDispatch, BatchesGrowToArrivalRateTimesServiceTime)
{
    struct Case
    {
        Tick serviceNs;
        Tick gapNs;
    };
    const Case cases[] = {
        {kNsPerMs, 500 * kNsPerUs + 7},      // lambda*S ~ 2
        {kNsPerMs, 300 * kNsPerUs},          // 3.33
        {3 * kNsPerMs, 550 * kNsPerUs},      // 5.45
        {2 * kNsPerMs, 100 * kNsPerUs + 3},  // 20 -> capped at 8
    };
    constexpr int64_t kMaxBatch = 8;
    constexpr uint64_t kArrivals = 3000;
    for (const Case &c : cases) {
        sim::VirtualExecutor ex;
        RecordingInference inference(c.serviceNs);
        ServingOptions options;
        options.workers = 1;
        options.maxBatch = kMaxBatch;
        options.queueCapacityBatches = 0;
        ServingSut sut(ex, inference, options);
        LedgerDelegate delegate(kArrivals);
        for (uint64_t i = 0; i < kArrivals; ++i) {
            ex.schedule(i * c.gapNs, [&sut, &delegate, i] {
                sut.issueQuery(makeSamples(1, i), delegate);
            });
        }
        ex.run();
        sut.shutdown();

        const double expected = std::min(
            static_cast<double>(kMaxBatch),
            static_cast<double>(c.serviceNs) /
                static_cast<double>(c.gapNs));
        const StatsSnapshot snapshot = sut.stats();
        EXPECT_EQ(delegate.total(), kArrivals);
        EXPECT_EQ(snapshot.timeoutFlushes, 0u);
        EXPECT_NEAR(snapshot.averageBatchSize(), expected,
                    0.1 * expected)
            << "S=" << c.serviceNs << " gap=" << c.gapNs;
    }
}

TEST(DemandDispatch, BusyWorkersQueueFullBatchesAndHoldTheRemainder)
{
    constexpr int64_t kMaxBatch = 4;
    sim::VirtualExecutor ex;
    RecordingInference inference(kNsPerMs);
    ServingOptions options;
    options.workers = 2;
    options.maxBatch = kMaxBatch;
    ServingSut sut(ex, inference, options);
    LedgerDelegate delegate(200);

    // Two single-sample queries occupy both workers until 1 ms.
    ex.schedule(0, [&] {
        sut.issueQuery(makeSamples(1, 0), delegate);
        sut.issueQuery(makeSamples(1, 1), delegate);
    });
    // One enqueue of 2*maxBatch + 3 while every worker is busy: the two
    // full batches queue, the 3 stay in the batcher.
    ex.schedule(kNsPerMs / 2, [&] {
        sut.issueQuery(makeSamples(2 * kMaxBatch + 3, 100), delegate);
        const StatsSnapshot mid = sut.stats();
        EXPECT_EQ(mid.sizeFlushes, 2u);
        EXPECT_EQ(mid.demandFlushes, 2u);
    });
    ex.run();

    // Both workers free at 1 ms and take the full batches; the first
    // to free at 2 ms takes the 3 remaining samples together.
    const std::vector<std::pair<Tick, size_t>> want = {
        {0, 1}, {0, 1},
        {kNsPerMs, kMaxBatch}, {kNsPerMs, kMaxBatch},
        {2 * kNsPerMs, 3},
    };
    ASSERT_EQ(inference.dispatches.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(inference.dispatches[i].at, want[i].first) << i;
        EXPECT_EQ(inference.dispatches[i].size, want[i].second) << i;
    }
    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.sizeFlushes, 2u);
    EXPECT_EQ(snapshot.demandFlushes, 3u);
    EXPECT_EQ(snapshot.timeoutFlushes, 0u);
    EXPECT_EQ(snapshot.drainFlushes, 0u);
    EXPECT_EQ(delegate.total(), 2u + 2 * kMaxBatch + 3);
}

TEST(DemandDispatch, WindowAboveZeroStillHoldsPartialBatches)
{
    sim::VirtualExecutor ex;
    RecordingInference inference(kNsPerMs);
    ServingOptions options;
    options.batchTimeoutNs = 2 * kNsPerMs;
    ServingSut sut(ex, inference, options);
    LedgerDelegate delegate(1);

    ex.schedule(0, [&] { sut.issueQuery(makeSamples(1, 0), delegate); });
    ex.run();

    ASSERT_EQ(inference.dispatches.size(), 1u);
    EXPECT_EQ(inference.dispatches[0].at, 2 * kNsPerMs);
    EXPECT_EQ(sut.stats().timeoutFlushes, 1u);
    EXPECT_EQ(sut.stats().demandFlushes, 0u);
}

// ----------------------------------------------------- the demand counts

Batch
batchOf(size_t samples)
{
    Batch batch;
    for (size_t i = 0; i < samples; ++i)
        batch.items.push_back({{i, i}});
    return batch;
}

/**
 * Workers A and B both parked, one batch queued. A takes it: the
 * batch leaves the count inside the pop, so once A stops counting
 * itself idle, B still reads free and a producer releases to it.
 */
TEST(DemandQueue, PopUncountsBeforeTheTakerLeavesIdle)
{
    DemandQueue queue(0);
    queue.enterIdle();  // A
    queue.enterIdle();  // B
    Batch x = batchOf(1);
    ASSERT_TRUE(queue.tryPush(x));
    EXPECT_TRUE(queue.workerFree());  // two idle, one claimed

    ASSERT_TRUE(queue.pop().has_value());  // A takes x
    EXPECT_TRUE(queue.workerFree());
    queue.leaveIdle();  // A runs x
    EXPECT_TRUE(queue.workerFree());  // B is free for the next sample
    EXPECT_EQ(queue.queuedSamples(), 0u);
}

/**
 * B parked, and the queued batch claims it, so a producer holds its
 * samples. A worker between batches takes that batch instead: B is
 * free again, and the taker pulls for it, because B never pulls from
 * inside pop().
 */
TEST(DemandQueue, BusyTakerPullsForTheIdleWorkerItsBatchClaimed)
{
    DemandQueue queue(0);
    int pulls = 0;
    const auto pull = [&pulls] {
        ++pulls;
        return false;
    };
    queue.enterIdle();  // B
    Batch x = batchOf(2);
    ASSERT_TRUE(queue.tryPush(x));
    EXPECT_FALSE(queue.workerFree());

    ASSERT_TRUE(queue.tryPopBusy(pull).has_value());
    EXPECT_EQ(pulls, 1);
    EXPECT_TRUE(queue.workerFree());

    // With no idle worker left, a busy taker has no one to pull for.
    queue.leaveIdle();
    Batch y = batchOf(1);
    ASSERT_TRUE(queue.tryPush(y));
    ASSERT_TRUE(queue.tryPopBusy(pull).has_value());
    EXPECT_EQ(pulls, 1);
    EXPECT_FALSE(queue.tryPopBusy(pull).has_value());
    EXPECT_EQ(pulls, 1);
}

TEST(DemandQueue, RefusedPushLeavesTheCountsAlone)
{
    DemandQueue queue(1);
    queue.enterIdle();
    Batch x = batchOf(3);
    ASSERT_TRUE(queue.tryPush(x));
    Batch y = batchOf(5);
    EXPECT_FALSE(queue.tryPush(y));  // full
    EXPECT_EQ(y.items.size(), 5u);   // left intact for the shed path
    EXPECT_EQ(queue.queuedSamples(), 3u);
    EXPECT_FALSE(queue.workerFree());

    queue.close();
    EXPECT_TRUE(queue.pop().has_value());
    EXPECT_FALSE(queue.pop().has_value());  // closed and drained
    EXPECT_TRUE(queue.drained());
    EXPECT_EQ(queue.queuedSamples(), 0u);
    EXPECT_TRUE(queue.workerFree());
}

// ------------------------------------------------------------- threads

/**
 * Real compute delay derived from the batch's first sample id, so the
 * service time is random across batches yet needs no shared RNG.
 */
class JitterInference : public BatchInference
{
  public:
    std::string name() const override { return "jitter-inference"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        const uint64_t mix = samples.front().id * 0x9E3779B97F4A7C15ULL;
        std::this_thread::sleep_for(
            std::chrono::microseconds((mix >> 40) % 300));
        size_t seen = maxBatch_.load();
        while (samples.size() > seen &&
               !maxBatch_.compare_exchange_weak(seen, samples.size())) {
        }
        return okResponses(samples);
    }

    std::atomic<size_t> maxBatch_{0};
};

class DemandDispatchThreads : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(DemandDispatchThreads, ProducersCompleteEverySampleOnce)
{
    constexpr uint64_t kProducers = 4;
    constexpr uint64_t kPerProducer = 300;
    constexpr uint64_t kTotal = kProducers * kPerProducer;

    sim::RealExecutor ex;
    JitterInference inference;
    ServingOptions options;
    options.workers = 2;
    options.shards = GetParam();
    options.queueCapacityBatches = 0;
    ServingSut sut(ex, inference, options);
    LedgerDelegate delegate(kTotal);

    std::vector<std::thread> producers;
    for (uint64_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&sut, &delegate, p] {
            std::mt19937 rng(static_cast<unsigned>(p + 1));
            std::uniform_int_distribution<int> gapUs(0, 60);
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                sut.issueQuery(makeSamples(1, p * kPerProducer + i),
                               delegate);
                std::this_thread::sleep_for(
                    std::chrono::microseconds(gapUs(rng)));
            }
        });
    }
    for (std::thread &producer : producers)
        producer.join();
    sut.flushQueries();
    ASSERT_TRUE(delegate.awaitTotal(kTotal));
    sut.shutdown();

    EXPECT_EQ(delegate.total(), kTotal);
    EXPECT_EQ(delegate.notExactlyOnce(kTotal), 0u);
    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.completedOk, kTotal);
    EXPECT_EQ(snapshot.samplesShed, 0u);
    EXPECT_EQ(snapshot.timeoutFlushes, 0u);
    // Four producers against two workers that take up to 300 us a
    // batch is sustained overload: the busy period fills batches.
    EXPECT_GT(inference.maxBatch_.load(), 1u);
    EXPECT_GT(snapshot.averageBatchSize(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Shards, DemandDispatchThreads,
                         ::testing::Values(1, 2));

} // namespace
} // namespace serving
} // namespace mlperf
