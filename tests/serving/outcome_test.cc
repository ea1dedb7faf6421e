/**
 * @file
 * One batch-outcome policy across every worker pool: the same
 * scripted batches (an Ok batch, faults that end Failed, a dropped
 * completion with and without deadlines, and a batch with expired
 * items) must leave the same status per sample, the same sample
 * ledger and the same stage counters whether EventWorkerPool or a 1-
 * or 2-shard ShardedWorkerPool runs them.
 */

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "serving/shard.h"
#include "serving/worker_pool.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"

namespace mlperf {
namespace serving {
namespace {

using loadgen::ResponseStatus;

/**
 * Inference whose outcome is scripted by the batch's first sample id
 * (id / 10): 0 and 4 answer Ok, 1 throws a transient InferenceFault
 * (no retry layer, so it ends Failed), 2 throws a plain exception,
 * 3 and 5 throw DropCompletion. Thread-safe: it keeps no state.
 */
class ScriptedInference : public BatchInference
{
  public:
    std::string name() const override { return "scripted"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        switch (samples.front().id / 10) {
          case 1:
            throw InferenceFault(FaultKind::Transient, "transient");
          case 2:
            throw std::runtime_error("not an InferenceFault");
          case 3:
          case 5:
            throw InferenceFault(FaultKind::DropCompletion, "dropped");
          default:
            break;
        }
        std::vector<loadgen::QuerySampleResponse> responses;
        for (const auto &sample : samples)
            responses.push_back({sample.id, "answer"});
        return responses;
    }

    sim::Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &,
                  sim::Tick) override
    {
        return 100 * 1000;
    }
};

/** Status delivered per sample id; a sample never answered is absent. */
class StatusDelegate : public loadgen::ResponseDelegate
{
  public:
    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &response : responses)
            statuses_[response.id] = response.status;
    }

    std::map<loadgen::ResponseId, ResponseStatus>
    statuses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return statuses_;
    }

  private:
    mutable std::mutex mutex_;
    std::map<loadgen::ResponseId, ResponseStatus> statuses_;
};

/** What one pool made of the scripted batches. */
struct Outcome
{
    std::map<loadgen::ResponseId, ResponseStatus> statuses;
    uint64_t completedOk = 0;
    uint64_t completedDegraded = 0;
    uint64_t completedShed = 0;
    uint64_t completedTimeout = 0;
    uint64_t completedFailed = 0;
    uint64_t batchesFailed = 0;
    uint64_t droppedCompletions = 0;
    uint64_t expiredSamples = 0;
    uint64_t timeInQueueCount = 0;
};

void
expectSameOutcome(const Outcome &actual, const Outcome &expected,
                  const char *pool)
{
    SCOPED_TRACE(pool);
    EXPECT_EQ(actual.statuses, expected.statuses);
    EXPECT_EQ(actual.completedOk, expected.completedOk);
    EXPECT_EQ(actual.completedDegraded, expected.completedDegraded);
    EXPECT_EQ(actual.completedShed, expected.completedShed);
    EXPECT_EQ(actual.completedTimeout, expected.completedTimeout);
    EXPECT_EQ(actual.completedFailed, expected.completedFailed);
    EXPECT_EQ(actual.batchesFailed, expected.batchesFailed);
    EXPECT_EQ(actual.droppedCompletions, expected.droppedCompletions);
    EXPECT_EQ(actual.expiredSamples, expected.expiredSamples);
    EXPECT_EQ(actual.timeInQueueCount, expected.timeInQueueCount);
}

/** A deadline no run reaches: the reaper would answer the sample. */
constexpr sim::Tick kFuture = sim::Tick{1} << 62;

/** The script: one batch per behaviour; deadline 1 ns is long past. */
std::vector<Batch>
scriptedBatches(loadgen::ResponseDelegate &delegate)
{
    auto batch = [&](std::vector<std::pair<uint64_t, sim::Tick>> items) {
        Batch b;
        for (const auto &[id, deadline] : items)
            b.items.push_back({{id, id}, &delegate, 0, deadline});
        return b;
    };
    std::vector<Batch> batches;
    batches.push_back(batch({{0, 0}, {1, 0}}));    // Ok
    batches.push_back(batch({{10, 0}, {11, 0}}));  // transient fault
    batches.push_back(batch({{20, 0}}));           // plain exception
    // DropCompletion: left to the reaper when every item has a
    // deadline, failed when none would reap it.
    batches.push_back(batch({{30, kFuture}, {31, kFuture}}));
    batches.push_back(batch({{50, 0}}));
    batches.push_back(batch({{40, 1}, {41, 0}, {42, 1}}));  // 2 expired
    return batches;
}

enum class PoolKind { Events, OneShard, TwoShards };

Outcome
runScript(PoolKind kind, bool tracker_active)
{
    ScriptedInference inference;
    ServingStats stats;
    StatusDelegate delegate;
    std::vector<Batch> batches = scriptedBatches(delegate);
    auto submitAll = [&batches](WorkerPool &pool) {
        for (Batch &batch : batches)
            ASSERT_TRUE(pool.submit(batch));
    };

    if (kind == PoolKind::Events) {
        sim::VirtualExecutor ex;
        EventWorkerPool pool(ex, inference, stats, 1, 0, tracker_active);
        // Submit at 1 ms so the 1 ns deadlines have passed.
        ex.schedule(sim::kNsPerMs, [&] { submitAll(pool); });
        ex.run();
    } else {
        sim::RealExecutor ex;
        ShardOptions options;
        options.shards = kind == PoolKind::OneShard ? 1 : 2;
        options.queueCapacityBatches = 0;
        options.trackerActive = tracker_active;
        ShardedWorkerPool pool(ex, inference, stats, options);
        submitAll(pool);
        pool.shutdown();  // drains queues, workers and completion rings
    }

    const StatsSnapshot snapshot = stats.snapshot();
    Outcome out;
    out.statuses = delegate.statuses();
    out.completedOk = snapshot.completedOk;
    out.completedDegraded = snapshot.completedDegraded;
    out.completedShed = snapshot.completedShed;
    out.completedTimeout = snapshot.completedTimeout;
    out.completedFailed = snapshot.completedFailed;
    out.batchesFailed = snapshot.batchesFailed;
    out.droppedCompletions = snapshot.droppedCompletions;
    out.expiredSamples = snapshot.expiredSamples;
    out.timeInQueueCount = snapshot.timeInQueueNs.count();
    return out;
}

TEST(PoolOutcome, EveryPoolAppliesTheSamePolicy)
{
    // With a tracker in front (none is here: the flag alone tells the
    // pool that one records the ledger), the pool records no terminal
    // status; without one it records each answer it delivers.
    for (const bool tracker : {false, true}) {
        SCOPED_TRACE(tracker ? "tracker active" : "no tracker");
        // The reference: Threads mode's default pool.
        const Outcome reference = runScript(PoolKind::OneShard, tracker);

        // The policy itself, spelled out once. 30 and 31 stay
        // unanswered: their deadlines' reaper answers them.
        const std::map<loadgen::ResponseId, ResponseStatus> expected = {
            {0, ResponseStatus::Ok},       {1, ResponseStatus::Ok},
            {10, ResponseStatus::Failed},  {11, ResponseStatus::Failed},
            {20, ResponseStatus::Failed},  {40, ResponseStatus::Timeout},
            {41, ResponseStatus::Ok},      {42, ResponseStatus::Timeout},
            {50, ResponseStatus::Failed}};
        EXPECT_EQ(reference.statuses, expected);
        EXPECT_EQ(reference.completedOk, tracker ? 0u : 3u);
        EXPECT_EQ(reference.completedDegraded, 0u);
        EXPECT_EQ(reference.completedShed, 0u);
        EXPECT_EQ(reference.completedTimeout, tracker ? 0u : 2u);
        EXPECT_EQ(reference.completedFailed, tracker ? 0u : 4u);
        EXPECT_EQ(reference.batchesFailed, 3u);
        EXPECT_EQ(reference.droppedCompletions, 2u);
        EXPECT_EQ(reference.expiredSamples, 2u);
        // Every dispatched sample waited in queue: all but the expired.
        EXPECT_EQ(reference.timeInQueueCount, 9u);

        expectSameOutcome(runScript(PoolKind::Events, tracker), reference,
                          "EventWorkerPool");
        expectSameOutcome(runScript(PoolKind::TwoShards, tracker),
                          reference, "ShardedWorkerPool, 2 shards");
    }
}

} // namespace
} // namespace serving
} // namespace mlperf
