/**
 * @file
 * Tests for the concurrent serving runtime: dynamic-batcher flush
 * triggers (size / timeout / drain), backpressure shedding, worker
 * pools, and full server-scenario LoadGen runs through ServingSut
 * under both the virtual and the wall-clock executor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "loadgen/loadgen.h"
#include "report/serving_report.h"
#include "serving/batcher.h"
#include "serving/serving_sut.h"
#include "serving/shard.h"
#include "serving/worker_pool.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"
#include "sut/serving_adapters.h"
#include "sut/system_zoo.h"

namespace mlperf {
namespace serving {
namespace {

using sim::kNsPerMs;
using sim::kNsPerSec;

// ------------------------------------------------------ test doubles

/** QSL stub: the fake inference never touches sample contents. */
class StubQsl : public loadgen::QuerySampleLibrary
{
  public:
    std::string name() const override { return "stub-qsl"; }
    uint64_t totalSampleCount() const override { return 1024; }
    uint64_t performanceSampleCount() const override { return 256; }
    void
    loadSamplesToRam(
        const std::vector<loadgen::QuerySampleIndex> &) override
    {
    }
    void
    unloadSamplesFromRam(
        const std::vector<loadgen::QuerySampleIndex> &) override
    {
    }
};

/**
 * Inference double: fixed modeled service time (event workers) and
 * optional real compute delay (thread workers). Thread-safe.
 */
class FakeInference : public BatchInference
{
  public:
    explicit FakeInference(sim::Tick service_ns = 0,
                           std::chrono::microseconds real_delay = {})
        : serviceNs_(service_ns), realDelay_(real_delay)
    {
    }

    std::string name() const override { return "fake-inference"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        if (realDelay_.count() > 0)
            std::this_thread::sleep_for(realDelay_);
        ++batches_;
        samples_ += samples.size();
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
        return serviceNs_;
    }

    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> samples_{0};

  private:
    sim::Tick serviceNs_;
    std::chrono::microseconds realDelay_;
};

/** Inference that blocks in runBatch until released (determinism). */
class GateInference : public BatchInference
{
  public:
    std::string name() const override { return "gate-inference"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            entered_ = true;
            enteredCv_.notify_all();
            releaseCv_.wait(lock, [this] { return released_; });
        }
        std::vector<loadgen::QuerySampleResponse> responses;
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok"});
        return responses;
    }

    /** Block the caller until a worker is inside runBatch. */
    void
    awaitEntered()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        enteredCv_.wait(lock, [this] { return entered_; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        released_ = true;
        releaseCv_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable enteredCv_;
    std::condition_variable releaseCv_;
    bool entered_ = false;
    bool released_ = false;
};

/** Thread-safe delegate recording every completed response. */
class RecordingDelegate : public loadgen::ResponseDelegate
{
  public:
    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &response : responses)
            responses_.push_back(response);
    }

    std::vector<loadgen::QuerySampleResponse>
    responses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return responses_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<loadgen::QuerySampleResponse> responses_;
};

std::vector<loadgen::QuerySample>
makeSamples(uint64_t count, uint64_t first_id = 0)
{
    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < count; ++i)
        samples.push_back({first_id + i, i});
    return samples;
}

// ---------------------------------------------------- DynamicBatcher

TEST(DynamicBatcher, MaxSizeFlushIsImmediate)
{
    sim::VirtualExecutor ex;
    std::vector<Batch> emitted;
    DynamicBatcher batcher(ex, 4, 10 * kNsPerMs,
                           [&](Batch &&b) { emitted.push_back(b); });
    RecordingDelegate delegate;

    batcher.enqueue(makeSamples(4), delegate);
    ASSERT_EQ(emitted.size(), 1u);
    EXPECT_EQ(emitted[0].items.size(), 4u);
    EXPECT_EQ(emitted[0].reason, FlushReason::Size);
    EXPECT_EQ(batcher.pending(), 0u);

    // A 10-sample query forms two full batches; 2 samples remain.
    batcher.enqueue(makeSamples(10, 100), delegate);
    ASSERT_EQ(emitted.size(), 3u);
    EXPECT_EQ(emitted[1].items.size(), 4u);
    EXPECT_EQ(emitted[2].items.size(), 4u);
    EXPECT_EQ(batcher.pending(), 2u);
}

TEST(DynamicBatcher, TimeoutFlushesPartialBatch)
{
    sim::VirtualExecutor ex;
    std::vector<Batch> emitted;
    DynamicBatcher batcher(ex, 8, 2 * kNsPerMs,
                           [&](Batch &&b) { emitted.push_back(b); });
    RecordingDelegate delegate;

    ex.schedule(0, [&] { batcher.enqueue(makeSamples(3), delegate); });
    ex.run();
    ASSERT_EQ(emitted.size(), 1u);
    EXPECT_EQ(emitted[0].items.size(), 3u);
    EXPECT_EQ(emitted[0].reason, FlushReason::Timeout);
    EXPECT_EQ(emitted[0].formedAt, 2 * kNsPerMs);
    EXPECT_EQ(batcher.pending(), 0u);
}

TEST(DynamicBatcher, ZeroTimeoutDispatchesEveryEnqueue)
{
    sim::VirtualExecutor ex;
    std::vector<Batch> emitted;
    DynamicBatcher batcher(ex, 8, 0,
                           [&](Batch &&b) { emitted.push_back(b); });
    RecordingDelegate delegate;
    batcher.enqueue(makeSamples(3), delegate);
    ASSERT_EQ(emitted.size(), 1u);
    EXPECT_EQ(emitted[0].items.size(), 3u);
    EXPECT_EQ(batcher.pending(), 0u);
}

TEST(DynamicBatcher, FlushDrainsAndCancelsDeadline)
{
    sim::VirtualExecutor ex;
    std::vector<Batch> emitted;
    DynamicBatcher batcher(ex, 8, 5 * kNsPerMs,
                           [&](Batch &&b) { emitted.push_back(b); });
    RecordingDelegate delegate;

    batcher.enqueue(makeSamples(3), delegate);
    EXPECT_TRUE(emitted.empty());  // waiting for the window
    batcher.flush();
    ASSERT_EQ(emitted.size(), 1u);
    EXPECT_EQ(emitted[0].reason, FlushReason::Drain);
    EXPECT_EQ(emitted[0].items.size(), 3u);

    // The armed deadline still fires, but is stale: nothing new.
    ex.run();
    EXPECT_EQ(emitted.size(), 1u);
}

TEST(DynamicBatcher, TimeoutFlushUnderRealExecutor)
{
    sim::RealExecutor ex;
    std::vector<Batch> emitted;
    DynamicBatcher batcher(ex, 8, 2 * kNsPerMs, [&](Batch &&b) {
        emitted.push_back(b);
        ex.stop();
    });
    RecordingDelegate delegate;

    ex.schedule(0, [&] { batcher.enqueue(makeSamples(2), delegate); });
    ex.run();  // returns when the deadline flush stops the executor
    ASSERT_EQ(emitted.size(), 1u);
    EXPECT_EQ(emitted[0].items.size(), 2u);
    EXPECT_EQ(emitted[0].reason, FlushReason::Timeout);
    EXPECT_GE(emitted[0].formedAt, 2 * kNsPerMs);
}

// ------------------------------------------------------ worker pools

TEST(ShardedWorkerPool, BackpressureRejectsWhenQueueFull)
{
    sim::RealExecutor ex;
    GateInference inference;
    ServingStats stats;
    ShardOptions options;  // one worker, as Threads mode builds it
    options.shards = 1;
    options.queueCapacityBatches = 1;
    ShardedWorkerPool pool(ex, inference, stats, options);
    RecordingDelegate delegate;

    Batch first;
    first.items.push_back({{0, 0}, &delegate, 0});
    ASSERT_TRUE(pool.submit(first));
    // Wait until the worker holds the first batch so queue occupancy
    // is deterministic.
    inference.awaitEntered();

    Batch second;
    second.items.push_back({{1, 0}, &delegate, 0});
    ASSERT_TRUE(pool.submit(second));  // fills the 1-slot queue

    Batch third;
    third.items.push_back({{2, 0}, &delegate, 0});
    EXPECT_FALSE(pool.submit(third));  // backpressure
    EXPECT_EQ(third.items.size(), 1u);  // rejected batch intact

    inference.release();
    pool.shutdown();
    EXPECT_EQ(delegate.responses().size(), 2u);
    // No tracker in front, so the pool records the ledger.
    const StatsSnapshot snapshot = stats.snapshot();
    EXPECT_EQ(snapshot.completedOk, 2u);
    EXPECT_EQ(snapshot.terminalSamples(), 2u);
}

TEST(EventWorkerPool, ModeledServiceTimeAdvancesVirtualClock)
{
    sim::VirtualExecutor ex;
    FakeInference inference(5 * kNsPerMs);
    ServingStats stats;
    EventWorkerPool pool(ex, inference, stats, 2, 0);
    RecordingDelegate delegate;

    for (uint64_t i = 0; i < 4; ++i) {
        Batch batch;
        batch.items.push_back({{i, 0}, &delegate, 0});
        ASSERT_TRUE(pool.submit(batch));
    }
    ex.run();
    // 4 serial batches over 2 workers at 5 ms each: 10 ms total.
    EXPECT_EQ(ex.now(), 10 * kNsPerMs);
    EXPECT_EQ(delegate.responses().size(), 4u);
    EXPECT_EQ(stats.snapshot().workerBusyNs, 20 * kNsPerMs);
}

// -------------------------------------------------------- ServingSut

TEST(ServingSut, AutoModePicksWorkersByExecutor)
{
    FakeInference inference;
    sim::VirtualExecutor virtual_ex;
    ServingSut virtual_sut(virtual_ex, inference);
    EXPECT_EQ(virtual_sut.resolvedMode(), WorkerMode::Events);

    sim::RealExecutor real_ex;
    ServingSut real_sut(real_ex, inference);
    EXPECT_EQ(real_sut.resolvedMode(), WorkerMode::Threads);
}

TEST(ServingSut, ShedsWhenWorkerQueueOverflows)
{
    sim::VirtualExecutor ex;
    FakeInference inference(10 * kNsPerMs);
    ServingOptions options;
    options.maxBatch = 1;
    options.batchTimeoutNs = 0;
    options.workers = 1;
    options.queueCapacityBatches = 1;
    ServingSut sut(ex, inference, options);
    RecordingDelegate delegate;

    // 20 instant arrivals against 1 busy worker and a 1-batch queue:
    // 1 running + 1 queued; the other 18 are fast-failed.
    for (uint64_t i = 0; i < 20; ++i)
        sut.issueQuery(makeSamples(1, i), delegate);
    ex.run();

    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.samplesIssued, 20u);
    EXPECT_EQ(snapshot.samplesShed, 18u);
    EXPECT_EQ(snapshot.batchesShed, 18u);
    EXPECT_EQ(snapshot.completedOk, 2u);
    EXPECT_EQ(snapshot.completedShed, 18u);
    EXPECT_EQ(snapshot.terminalSamples(), snapshot.samplesIssued);

    // Every sample answered: shed ones immediately, with empty data.
    const auto responses = delegate.responses();
    ASSERT_EQ(responses.size(), 20u);
    uint64_t empty = 0;
    for (const auto &response : responses)
        empty += response.data.empty() ? 1 : 0;
    EXPECT_EQ(empty, 18u);
}

TEST(ServingSut, ServerScenarioValidUnderVirtualExecutor)
{
    sim::VirtualExecutor ex;
    FakeInference inference(1 * kNsPerMs);
    ServingOptions options;
    options.maxBatch = 4;
    options.batchTimeoutNs = 1 * kNsPerMs;
    options.workers = 4;
    ServingSut sut(ex, inference, options);
    StubQsl qsl;

    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    settings.serverTargetQps = 1000.0;
    settings.minDurationNs = 2 * kNsPerSec;
    loadgen::LoadGen lg(ex);
    const loadgen::TestResult result = lg.startTest(sut, qsl, settings);

    EXPECT_TRUE(result.valid);
    EXPECT_EQ(result.droppedQueries, 0u);
    EXPECT_GE(result.queryCount, 1024u);

    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(report::ledgerMismatch(snapshot, result), "");
    EXPECT_EQ(snapshot.completedOk, result.sampleCount);
    EXPECT_EQ(snapshot.samplesShed, 0u);
    EXPECT_GT(snapshot.batchesFormed, 0u);
    EXPECT_GT(snapshot.timeoutFlushes, 0u);
    EXPECT_EQ(snapshot.queueDepth.count(), result.queryCount);
    EXPECT_EQ(snapshot.timeInQueueNs.count(), result.sampleCount);
    EXPECT_GT(snapshot.utilization(result.durationNs), 0.0);
    // At 1 q/ms against a 1 ms batching window, batches form.
    EXPECT_GT(snapshot.averageBatchSize(), 1.0);
}

TEST(ServingSut, ServerScenarioValidUnderRealExecutor)
{
    sim::RealExecutor ex;
    // 200 us of real compute per batch on 4 worker threads.
    FakeInference inference(0, std::chrono::microseconds(200));
    ServingOptions options;
    options.maxBatch = 4;
    options.batchTimeoutNs = 1 * kNsPerMs;
    options.workers = 4;
    ServingSut sut(ex, inference, options);
    StubQsl qsl;

    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    settings.serverTargetQps = 400.0;
    settings.maxQueryCount = 64;  // keep the wall-clock run short
    settings.targetLatencyNs = 100 * kNsPerMs;
    loadgen::LoadGen lg(ex);
    const loadgen::TestResult result = lg.startTest(sut, qsl, settings);
    sut.shutdown();

    EXPECT_TRUE(result.valid);
    EXPECT_EQ(result.droppedQueries, 0u);
    EXPECT_EQ(result.queryCount, 64u);

    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(report::ledgerMismatch(snapshot, result), "");
    EXPECT_EQ(snapshot.completedOk, result.sampleCount);
    EXPECT_EQ(snapshot.samplesShed, 0u);
    EXPECT_GT(snapshot.batchesFormed, 0u);
    EXPECT_GT(snapshot.workerBusyNs, 0u);
    EXPECT_EQ(inference.samples_.load(), result.sampleCount);
}

TEST(ServingSut, OfflineQueryIsSplitIntoMaxSizeBatches)
{
    sim::VirtualExecutor ex;
    FakeInference inference(1 * kNsPerMs);
    ServingOptions options;
    options.maxBatch = 32;
    options.workers = 4;
    options.queueCapacityBatches = 0;  // offline: no shedding
    ServingSut sut(ex, inference, options);
    RecordingDelegate delegate;

    sut.issueQuery(makeSamples(1000), delegate);
    sut.flushQueries();
    ex.run();

    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.completedOk, 1000u);
    EXPECT_EQ(snapshot.sizeFlushes, 31u);   // 31 x 32 = 992
    EXPECT_EQ(snapshot.drainFlushes, 1u);   // +8 drained by flush
    EXPECT_EQ(delegate.responses().size(), 1000u);
}

// --------------------------------------- adapters, harness, report

TEST(ProfileBatchInference, ServiceTimeScalesSublinearlyWithBatch)
{
    sut::HardwareProfile profile;
    profile.jitterFraction = 0.0;
    profile.maxBatch = 32;
    sut::ModelCost cost;
    cost.workCv = 0.0;
    sut::ProfileBatchInference inference(profile, cost);

    const sim::Tick one = inference.serviceTimeNs(makeSamples(1), 0);
    const sim::Tick eight = inference.serviceTimeNs(makeSamples(8), 0);
    EXPECT_GT(one, 0u);
    EXPECT_GT(eight, one);       // more work takes longer...
    EXPECT_LT(eight, 8 * one);   // ...but batching amortizes it

    const auto responses = inference.runBatch(makeSamples(3));
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_TRUE(responses[0].data.empty());
}

TEST(HarnessServing, ServerRunThroughServingRuntime)
{
    const sut::HardwareProfile *profile = nullptr;
    for (const auto &p : sut::systemZoo()) {
        if (p.systemName == "dc-gpu-a")
            profile = &p;
    }
    ASSERT_NE(profile, nullptr);

    harness::ExperimentOptions options;
    options.scale = 0.02;
    const harness::ServingOutcome run = harness::runServerServing(
        *profile, models::TaskType::ImageClassificationHeavy, 200.0,
        options);

    EXPECT_TRUE(run.outcome.valid);
    EXPECT_EQ(run.outcome.result.droppedQueries, 0u);
    EXPECT_GT(run.serving.batchesFormed, 0u);
    EXPECT_GE(run.serving.workers, 4);
    EXPECT_EQ(report::ledgerMismatch(run.serving, run.outcome.result),
              "");

    const std::string summary =
        report::renderServingSummary(run.serving, run.elapsedNs);
    EXPECT_NE(summary.find("Serving runtime statistics"),
              std::string::npos);
    EXPECT_NE(summary.find("Queue depth"), std::string::npos);

    const std::string json =
        report::servingSnapshotJson(run.serving, run.elapsedNs);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"time_in_queue_ns\""), std::string::npos);
}

} // namespace
} // namespace serving
} // namespace mlperf
