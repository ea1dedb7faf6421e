/**
 * @file
 * Continuous batcher: slot lifecycle (EOS release, next-round
 * admission), the static baseline's drain/pad semantics, shedding,
 * TTFT SLO accounting, lane routing stickiness, the fast-path lock
 * contract, and a threaded churn test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/continuous_batcher.h"
#include "serving/serving_stats.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"

namespace mlperf {
namespace serving {
namespace {

/**
 * Scripted decoder: sequence length == sample index (min 1), token t
 * of sample i is 1000*i + t. Deterministic, model-free, and cheap, so
 * scheduling behaviour is observable in isolation.
 */
class ScriptedDecoder : public SequenceDecoder
{
  public:
    explicit ScriptedDecoder(size_t slots) : slots_(slots) {}

    size_t slotCount() const override { return slots_.size(); }

    void
    prefill(size_t slot, loadgen::QuerySampleIndex index) override
    {
        SlotState &s = slots_[slot];
        EXPECT_FALSE(s.live) << "prefill into an occupied slot";
        s.live = true;
        s.index = index;
        s.emitted = 0;
        s.length = index < 1 ? 1 : index;
        ++prefills_;
    }

    StepOutcome
    step(size_t slot) override
    {
        SlotState &s = slots_[slot];
        EXPECT_TRUE(s.live);
        StepOutcome out;
        out.token = static_cast<int64_t>(1000 * s.index + s.emitted);
        ++s.emitted;
        out.finished = s.emitted >= s.length;
        return out;
    }

    void
    padStep(size_t slot) override
    {
        EXPECT_TRUE(slots_[slot].live);
        ++pads_;
    }

    std::string
    result(size_t slot) const override
    {
        const SlotState &s = slots_[slot];
        return "seq" + std::to_string(s.index) + ":" +
               std::to_string(s.emitted);
    }

    uint64_t
    tokenCount(size_t slot) const override
    {
        return slots_[slot].emitted;
    }

    void
    release(size_t slot) override
    {
        EXPECT_TRUE(slots_[slot].live);
        slots_[slot].live = false;
    }

    uint64_t prefills() const { return prefills_; }
    uint64_t pads() const { return pads_; }

  private:
    struct SlotState
    {
        bool live = false;
        loadgen::QuerySampleIndex index = 0;
        uint64_t emitted = 0;
        uint64_t length = 0;
    };
    std::vector<SlotState> slots_;
    uint64_t prefills_ = 0;
    uint64_t pads_ = 0;
};

/** Thread-safe recording delegate. */
class RecordingDelegate : public loadgen::ResponseDelegate
{
  public:
    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &r : responses)
            completed_[r.id] = r;
    }

    void
    querySampleFirstToken(loadgen::ResponseId id) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++firstTokens_[id];
    }

    std::map<loadgen::ResponseId, loadgen::QuerySampleResponse>
    completed()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return completed_;
    }

    std::map<loadgen::ResponseId, uint64_t>
    firstTokens()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return firstTokens_;
    }

  private:
    std::mutex mutex_;
    std::map<loadgen::ResponseId, loadgen::QuerySampleResponse>
        completed_;
    std::map<loadgen::ResponseId, uint64_t> firstTokens_;
};

std::vector<loadgen::QuerySample>
makeSamples(std::initializer_list<uint64_t> lengths,
            loadgen::ResponseId first_id = 0)
{
    std::vector<loadgen::QuerySample> samples;
    loadgen::ResponseId id = first_id;
    for (uint64_t len : lengths)
        samples.push_back({id++, len});
    return samples;
}

ContinuousBatcherOptions
manualOptions(BatchingMode mode)
{
    ContinuousBatcherOptions options;
    options.mode = mode;
    options.startThread = false;
    return options;
}

TEST(ContinuousBatcher, AdmitsIntoSlotsFreedByEos)
{
    ScriptedDecoder decoder(2);
    sim::VirtualExecutor executor;
    ContinuousBatcher batcher(decoder, executor,
                              manualOptions(BatchingMode::Continuous));
    RecordingDelegate delegate;

    // Lengths 1 and 5 fill both slots; lengths 3 and 2 queue behind.
    batcher.issueQuery(makeSamples({1, 5, 3, 2}), delegate);
    // Round 1: admit 1 & 5; seq 1 finishes instantly.
    EXPECT_GT(batcher.pump(), 0u);
    EXPECT_EQ(delegate.completed().count(0), 1u);
    // Round 2: seq 3 takes the freed slot while 5 keeps running.
    batcher.pump();
    EXPECT_EQ(decoder.prefills(), 3u)
        << "the EOS-freed slot must be refilled the next round";
    while (!batcher.idle())
        batcher.pump();

    const auto completed = delegate.completed();
    ASSERT_EQ(completed.size(), 4u);
    for (const auto &[id, response] : completed) {
        EXPECT_EQ(response.status, loadgen::ResponseStatus::Ok);
        const uint64_t want = id == 0 ? 1 : id == 1 ? 5 : id == 2 ? 3
                                                                  : 2;
        EXPECT_EQ(response.tokenCount, want) << "id " << id;
    }
    EXPECT_EQ(decoder.pads(), 0u)
        << "continuous mode never burns padding";
    const BatcherCounters counters = batcher.counters();
    EXPECT_EQ(counters.completed, 4u);
    EXPECT_EQ(counters.tokens, 1u + 5u + 3u + 2u);
    EXPECT_EQ(counters.shed, 0u);
    EXPECT_EQ(counters.fastPathLockAcquisitions, 0u);
}

TEST(ContinuousBatcher, StaticModePadsAndAdmitsOnlyOnFullDrain)
{
    ScriptedDecoder decoder(2);
    sim::VirtualExecutor executor;
    ContinuousBatcher batcher(decoder, executor,
                              manualOptions(BatchingMode::Static));
    RecordingDelegate delegate;

    // Batch 1 = lengths {1, 4}: the length-1 member pads for rounds
    // 2..4 (3 pad steps) while the length-4 member finishes.
    batcher.issueQuery(makeSamples({1, 4, 2}), delegate);
    batcher.pump();  // admit {1,4}; seq 1 completes, starts draining
    EXPECT_EQ(delegate.completed().count(0), 1u)
        << "static mode still streams each response at its own EOS";
    batcher.pump();
    EXPECT_EQ(decoder.prefills(), 2u)
        << "no admission until the whole batch drains";
    while (!batcher.idle())
        batcher.pump();

    EXPECT_EQ(delegate.completed().size(), 3u);
    EXPECT_EQ(decoder.prefills(), 3u);
    EXPECT_EQ(decoder.pads(), 3u)
        << "finished slot pays one pad per remaining round";
    EXPECT_EQ(batcher.counters().padSteps, 3u);
}

TEST(ContinuousBatcher, ShedsWhenTheRingIsFull)
{
    ScriptedDecoder decoder(1);
    sim::VirtualExecutor executor;
    ContinuousBatcherOptions options =
        manualOptions(BatchingMode::Continuous);
    options.ringCapacity = 2;  // rounded to 2
    ContinuousBatcher batcher(decoder, executor, options);
    RecordingDelegate delegate;

    batcher.issueQuery(makeSamples({3, 3, 3, 3, 3}), delegate);
    const auto completed = delegate.completed();
    EXPECT_EQ(completed.size(), 3u) << "ring of 2 sheds the overflow";
    for (const auto &[id, response] : completed)
        EXPECT_EQ(response.status, loadgen::ResponseStatus::Shed);
    EXPECT_EQ(batcher.counters().shed, 3u);

    while (!batcher.idle())
        batcher.pump();
    EXPECT_EQ(delegate.completed().size(), 5u)
        << "every sample completes, shed or served";
}

TEST(ContinuousBatcher, JudgesTtftSloIntoServingStats)
{
    ScriptedDecoder decoder(1);
    sim::VirtualExecutor executor;
    ServingStats stats;
    ContinuousBatcherOptions options =
        manualOptions(BatchingMode::Continuous);
    options.ttftSloNs = 10;  // virtual time never advances: 0 ns TTFT
    ContinuousBatcher batcher(decoder, executor, options, &stats);
    RecordingDelegate delegate;

    batcher.issueQuery(makeSamples({2, 2}), delegate);
    while (!batcher.idle())
        batcher.pump();

    const BatcherCounters counters = batcher.counters();
    EXPECT_EQ(counters.sloJudged, 2u);
    EXPECT_EQ(counters.sloViolations, 0u);
    EXPECT_EQ(stats.snapshot().sloSamples, 2u);
    EXPECT_EQ(stats.snapshot().sloViolations, 0u);
    const auto first_tokens = delegate.firstTokens();
    ASSERT_EQ(first_tokens.size(), 2u);
    for (const auto &[id, count] : first_tokens)
        EXPECT_EQ(count, 1u)
            << "exactly one first-token event per sequence, id " << id;
}

TEST(ContinuousBatcher, LaneRouterIsStickyAndCompletesEverything)
{
    std::vector<std::unique_ptr<ScriptedDecoder>> decoders;
    std::vector<std::unique_ptr<ContinuousBatcher>> lanes;
    sim::VirtualExecutor executor;
    for (int i = 0; i < 3; ++i) {
        decoders.push_back(std::make_unique<ScriptedDecoder>(2));
        lanes.push_back(std::make_unique<ContinuousBatcher>(
            *decoders.back(), executor,
            manualOptions(BatchingMode::Continuous)));
    }
    std::vector<ContinuousBatcher *> lane_ptrs;
    for (auto &lane : lanes)
        lane_ptrs.push_back(lane.get());
    DecodeLaneRouter router(std::move(lanes));
    RecordingDelegate delegate;

    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < 64; ++i)
        samples.push_back({i, 1 + i % 7});
    router.issueQuery(samples, delegate);
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto *lane : lane_ptrs)
            progress = lane->pump() > 0 || progress;
    }

    EXPECT_EQ(delegate.completed().size(), 64u);
    const BatcherCounters total = router.counters();
    EXPECT_EQ(total.completed, 64u);
    EXPECT_EQ(total.shed, 0u);
    uint64_t lanes_used = 0;
    for (auto *lane : lane_ptrs)
        lanes_used += lane->counters().admitted > 0 ? 1 : 0;
    EXPECT_EQ(lanes_used, 3u) << "hash routing must spread load";
}

TEST(ContinuousBatcher, ThreadedChurnCompletesEverySequence)
{
    // Real decode thread, several producer threads, thousands of
    // sequences: everything completes exactly once, nothing wedges,
    // and the decode rounds acquire zero instrumented serving locks.
    ScriptedDecoder decoder(4);
    sim::RealExecutor executor;
    ContinuousBatcherOptions options;
    options.mode = BatchingMode::Continuous;
    options.ringCapacity = 8192;
    options.startThread = true;
    ContinuousBatcher batcher(decoder, executor, options);
    RecordingDelegate delegate;

    const int producers = 4;
    const uint64_t per_producer = 500;
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            std::vector<loadgen::QuerySample> one(1);
            for (uint64_t i = 0; i < per_producer; ++i) {
                const uint64_t n =
                    static_cast<uint64_t>(p) * per_producer + i;
                one[0] = {n, 1 + n % 9};
                batcher.issueQuery(one, delegate);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    batcher.flushQueries();

    const auto completed = delegate.completed();
    ASSERT_EQ(completed.size(),
              static_cast<size_t>(producers) * per_producer);
    uint64_t served = 0;
    for (const auto &[id, response] : completed) {
        if (response.status == loadgen::ResponseStatus::Ok) {
            ++served;
            EXPECT_EQ(response.tokenCount, 1 + id % 9);
        }
    }
    const BatcherCounters counters = batcher.counters();
    EXPECT_EQ(counters.completed, served);
    EXPECT_EQ(counters.completed + counters.shed,
              static_cast<uint64_t>(producers) * per_producer);
    EXPECT_EQ(counters.fastPathLockAcquisitions, 0u)
        << "decode rounds must stay off every instrumented lock";
    EXPECT_GT(served, 0u);
}

} // namespace
} // namespace serving
} // namespace mlperf
