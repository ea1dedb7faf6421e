/**
 * @file
 * Tests for the hardware model, simulated SUT, and system zoo.
 */

#include <gtest/gtest.h>

#include <set>

#include "loadgen/loadgen.h"
#include "sim/virtual_executor.h"
#include "sut/simulated_sut.h"
#include "sut/system_zoo.h"

namespace mlperf {
namespace sut {
namespace {

using sim::kNsPerMs;
using sim::kNsPerSec;

HardwareProfile
testProfile()
{
    HardwareProfile p;
    p.systemName = "test-system";
    p.peakMacsPerSec = 1e12;
    p.batchOneEfficiency = 0.25;
    p.saturationBatch = 64;
    p.acceleratorCount = 1;
    p.overheadNs = 10e3;
    p.jitterFraction = 0.0;
    p.maxBatch = 32;
    return p;
}

ModelCost
testCost()
{
    ModelCost c;
    c.macsPerSample = 1e9;
    c.workCv = 0.0;
    c.structureDiscount = 1.0;
    return c;
}

// -------------------------------------------------- hardware profile

TEST(HardwareProfile, EfficiencyCurve)
{
    const HardwareProfile p = testProfile();
    EXPECT_NEAR(p.efficiencyAt(1), 0.25, 1e-9);
    // Monotone nondecreasing, saturating at 1.
    double prev = 0.0;
    for (int64_t b = 1; b <= 128; ++b) {
        const double e = p.efficiencyAt(b);
        EXPECT_GE(e, prev);
        EXPECT_LE(e, 1.0);
        prev = e;
    }
    EXPECT_DOUBLE_EQ(p.efficiencyAt(64), 1.0);
    EXPECT_DOUBLE_EQ(p.efficiencyAt(1000), 1.0);
}

TEST(HardwareProfile, BatchSecondsComposition)
{
    const HardwareProfile p = testProfile();
    // 1e9 MACs at batch 1: 10us overhead + 1e9/(1e12*0.25) = 4 ms.
    EXPECT_NEAR(p.batchSeconds(1e9, 1), 10e-6 + 4e-3, 1e-9);
}

TEST(HardwareProfile, DvfsWarmsUp)
{
    HardwareProfile p = testProfile();
    p.dvfsWarmupSeconds = 10.0;
    p.dvfsColdFactor = 2.0;
    EXPECT_DOUBLE_EQ(p.dvfsFactorAt(0), 2.0);
    EXPECT_NEAR(p.dvfsFactorAt(5 * kNsPerSec), 1.5, 1e-9);
    EXPECT_DOUBLE_EQ(p.dvfsFactorAt(10 * kNsPerSec), 1.0);
    EXPECT_DOUBLE_EQ(p.dvfsFactorAt(20 * kNsPerSec), 1.0);
}

TEST(HardwareProfile, NoDvfsMeansUnity)
{
    const HardwareProfile p = testProfile();
    EXPECT_DOUBLE_EQ(p.dvfsFactorAt(0), 1.0);
}

// ------------------------------------------------------ simulated sut

/** Minimal delegate that records completion times. */
class RecordingDelegate : public loadgen::ResponseDelegate
{
  public:
    explicit RecordingDelegate(sim::Executor &ex) : ex_(ex) {}

    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        for (const auto &r : responses)
            completions_.emplace_back(r.id, ex_.now());
    }

    std::vector<std::pair<loadgen::ResponseId, sim::Tick>> completions_;

  private:
    sim::Executor &ex_;
};

TEST(SimulatedSut, SingleQueryLatencyMatchesModel)
{
    sim::VirtualExecutor ex;
    RecordingDelegate delegate(ex);
    SimulatedSut sut(ex, testProfile(), testCost());
    sut.issueQuery({{0, 0}}, delegate);
    ex.run();
    ASSERT_EQ(delegate.completions_.size(), 1u);
    // batch 1: 10us + 4ms (see BatchSecondsComposition).
    EXPECT_NEAR(static_cast<double>(delegate.completions_[0].second),
                4.01e6, 1e3);
}

TEST(SimulatedSut, LargeQuerySplitsIntoMaxBatches)
{
    sim::VirtualExecutor ex;
    RecordingDelegate delegate(ex);
    SimulatedSut sut(ex, testProfile(), testCost());
    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < 100; ++i)
        samples.push_back({i, i});
    sut.issueQuery(samples, delegate);
    ex.run();
    EXPECT_EQ(delegate.completions_.size(), 100u);
    // maxBatch 32 -> 4 batches (32+32+32+4).
    EXPECT_EQ(sut.batchesDispatched(), 4u);
    EXPECT_EQ(sut.samplesProcessed(), 100u);
}

TEST(SimulatedSut, EnginesRunInParallel)
{
    HardwareProfile two = testProfile();
    two.acceleratorCount = 2;
    two.maxBatch = 1;
    sim::VirtualExecutor ex;
    RecordingDelegate delegate(ex);
    SimulatedSut sut(ex, two, testCost());
    sut.issueQuery({{0, 0}, {1, 1}}, delegate);
    ex.run();
    ASSERT_EQ(delegate.completions_.size(), 2u);
    // Two engines: both finish at ~4ms rather than 4 and 8.
    EXPECT_NEAR(static_cast<double>(delegate.completions_[0].second),
                4.01e6, 1e3);
    EXPECT_NEAR(static_cast<double>(delegate.completions_[1].second),
                4.01e6, 1e3);
}

TEST(SimulatedSut, SerialEngineQueues)
{
    sim::VirtualExecutor ex;
    RecordingDelegate delegate(ex);
    HardwareProfile p = testProfile();
    p.maxBatch = 1;
    SimulatedSut sut(ex, p, testCost());
    sut.issueQuery({{0, 0}, {1, 1}}, delegate);
    ex.run();
    ASSERT_EQ(delegate.completions_.size(), 2u);
    EXPECT_NEAR(static_cast<double>(delegate.completions_[1].second),
                2 * 4.01e6, 2e3);
}

TEST(SimulatedSut, BatchWindowAccumulates)
{
    sim::VirtualExecutor ex;
    RecordingDelegate delegate(ex);
    SchedulerOptions sched;
    sched.batchWindowNs = 5 * kNsPerMs;
    SimulatedSut sut(ex, testProfile(), testCost(), sched);
    // Two queries arriving close together combine into one batch.
    sut.issueQuery({{0, 0}}, delegate);
    ex.schedule(1 * kNsPerMs, [&] {
        sut.issueQuery({{1, 1}}, delegate);
    });
    ex.run();
    EXPECT_EQ(sut.batchesDispatched(), 1u);
    EXPECT_DOUBLE_EQ(sut.averageBatchSize(), 2.0);
}

TEST(SimulatedSut, BatchingImprovesThroughput)
{
    const HardwareProfile p = testProfile();
    const ModelCost cost = testCost();
    // Roofline throughput grows with batch (saturating).
    EXPECT_GT(steadyStateThroughput(p, cost, 32),
              2.0 * steadyStateThroughput(p, cost, 1));
    EXPECT_GE(steadyStateThroughput(p, cost, 32),
              steadyStateThroughput(p, cost, 8));
}

TEST(SimulatedSut, WorkVariabilityChangesPerSampleTime)
{
    ModelCost vary = testCost();
    vary.workCv = 0.5;
    sim::VirtualExecutor ex;
    RecordingDelegate delegate(ex);
    HardwareProfile p = testProfile();
    p.maxBatch = 1;
    SimulatedSut sut(ex, p, vary, {}, 7);
    for (uint64_t i = 0; i < 20; ++i)
        sut.issueQuery({{i, i}}, delegate);
    ex.run();
    // Completion gaps vary when per-sample work varies.
    std::set<sim::Tick> gaps;
    for (size_t i = 1; i < delegate.completions_.size(); ++i) {
        gaps.insert(delegate.completions_[i].second -
                    delegate.completions_[i - 1].second);
    }
    EXPECT_GT(gaps.size(), 10u);
}

TEST(SimulatedSut, DeterministicForSeed)
{
    auto run = [](uint64_t seed) {
        sim::VirtualExecutor ex;
        RecordingDelegate delegate(ex);
        HardwareProfile p = testProfile();
        p.jitterFraction = 0.05;
        SimulatedSut sut(ex, p, testCost(), {}, seed);
        for (uint64_t i = 0; i < 10; ++i)
            sut.issueQuery({{i, i}}, delegate);
        ex.run();
        std::vector<sim::Tick> times;
        for (const auto &[id, t] : delegate.completions_)
            times.push_back(t);
        return times;
    };
    EXPECT_EQ(run(3), run(3));
    EXPECT_NE(run(3), run(4));
}

TEST(SimulatedSut, TimedPreprocessingAddsLatency)
{
    sim::VirtualExecutor ex;
    RecordingDelegate untimed_delegate(ex);
    SimulatedSut untimed(ex, testProfile(), testCost());
    untimed.issueQuery({{0, 0}}, untimed_delegate);
    ex.run();

    SchedulerOptions sched;
    sched.timedPreprocessNsPerSample = 500 * 1000;  // 0.5 ms
    RecordingDelegate timed_delegate(ex);
    SimulatedSut timed(ex, testProfile(), testCost(), sched);
    const sim::Tick start = ex.now();
    timed.issueQuery({{0, 0}}, timed_delegate);
    ex.run();

    const sim::Tick untimed_latency =
        untimed_delegate.completions_[0].second;
    const sim::Tick timed_latency =
        timed_delegate.completions_[0].second - start;
    EXPECT_NEAR(static_cast<double>(timed_latency - untimed_latency),
                500e3, 1e3);
}

TEST(SimulatedSut, PaddedBatchingCostsMaxTimesBatch)
{
    // Two samples with different work in one batch: padded cost is
    // 2 x max rather than the sum, so the batch takes longer than a
    // sum-cost batch would.
    ModelCost padded = testCost();
    padded.workCv = 0.6;
    padded.paddedBatching = true;
    ModelCost summed = padded;
    summed.paddedBatching = false;

    auto run = [](const ModelCost &cost) {
        sim::VirtualExecutor ex;
        RecordingDelegate delegate(ex);
        HardwareProfile p;
        p.systemName = "pad";
        p.peakMacsPerSec = 1e12;
        p.batchOneEfficiency = 1.0;
        p.saturationBatch = 1;
        p.overheadNs = 0;
        p.jitterFraction = 0.0;
        p.maxBatch = 8;
        SimulatedSut sut(ex, p, cost, {}, /*seed=*/99);
        std::vector<loadgen::QuerySample> samples;
        for (uint64_t i = 0; i < 8; ++i)
            samples.push_back({i, i});
        sut.issueQuery(samples, delegate);
        ex.run();
        return delegate.completions_.back().second;
    };
    // Same seed => identical per-sample work draws; only the batch
    // cost rule differs.
    EXPECT_GT(run(padded), run(summed));
}

TEST(SimulatedSut, OfflineLengthSortingBeatsArrivalOrder)
{
    // A large padded-batching query is length-sorted before batching;
    // the same samples arriving one by one (server-style) batch in
    // arrival order and pay more padding waste.
    ModelCost cost = testCost();
    cost.workCv = 0.6;
    cost.paddedBatching = true;

    HardwareProfile p;
    p.systemName = "sort";
    p.peakMacsPerSec = 1e12;
    p.batchOneEfficiency = 1.0;
    p.saturationBatch = 1;
    p.overheadNs = 0;
    p.jitterFraction = 0.0;
    p.maxBatch = 16;

    const uint64_t n = 128;
    // Offline-style: one big query.
    sim::VirtualExecutor ex1;
    RecordingDelegate d1(ex1);
    SimulatedSut sorted(ex1, p, cost, {}, 5);
    std::vector<loadgen::QuerySample> all;
    for (uint64_t i = 0; i < n; ++i)
        all.push_back({i, i});
    sorted.issueQuery(all, d1);
    ex1.run();
    const sim::Tick sorted_finish = d1.completions_.back().second;

    // Server-style: the same number of single-sample queries with a
    // batching window, so batches form in arrival order.
    sim::VirtualExecutor ex2;
    RecordingDelegate d2(ex2);
    SchedulerOptions window;
    window.batchWindowNs = 1000;
    SimulatedSut unsorted(ex2, p, cost, window, 5);
    for (uint64_t i = 0; i < n; ++i)
        unsorted.issueQuery({{i, i}}, d2);
    ex2.run();
    const sim::Tick unsorted_finish = d2.completions_.back().second;

    EXPECT_LT(sorted_finish, unsorted_finish);
}

TEST(SimulatedSut, DynamicEnergyTracksWork)
{
    HardwareProfile p = testProfile();
    p.picojoulesPerMac = 2.0;
    sim::VirtualExecutor ex;
    RecordingDelegate delegate(ex);
    SimulatedSut sut(ex, p, testCost());
    EXPECT_DOUBLE_EQ(sut.dynamicEnergyJoules(), 0.0);
    sut.issueQuery({{0, 0}}, delegate);
    ex.run();
    // 1e9 MACs at 2 pJ/MAC = 2 mJ.
    EXPECT_NEAR(sut.dynamicEnergyJoules(), 2e-3, 1e-9);
    sut.issueQuery({{1, 1}, {2, 2}}, delegate);
    ex.run();
    EXPECT_NEAR(sut.dynamicEnergyJoules(), 6e-3, 1e-9);
}

TEST(SystemZoo, PowerSpansThreeOrdersOfMagnitude)
{
    // Sec. I: systems "span at least three orders of magnitude in
    // power consumption."
    double min_w = 1e300, max_w = 0.0;
    for (const auto &p : systemZoo()) {
        EXPECT_GT(p.idleWatts, 0.0);
        EXPECT_GT(p.picojoulesPerMac, 0.0);
        // Rough full-load power: idle + peak * pJ/MAC.
        const double watts =
            p.idleWatts + p.peakMacsPerSec *
                              static_cast<double>(p.acceleratorCount) *
                              p.picojoulesPerMac * 1e-12;
        min_w = std::min(min_w, watts);
        max_w = std::max(max_w, watts);
    }
    EXPECT_GE(max_w / min_w, 1e3);
}

// -------------------------------------------------------------- zoo

TEST(SystemZoo, PopulationShape)
{
    const auto &zoo = systemZoo();
    EXPECT_GE(zoo.size(), 30u);

    // All five processor types appear (Figure 7).
    std::set<ProcessorType> processors;
    std::set<std::string> names;
    for (const auto &p : zoo) {
        processors.insert(p.processor);
        EXPECT_TRUE(names.insert(p.systemName).second)
            << "duplicate system name " << p.systemName;
        EXPECT_GT(p.peakMacsPerSec, 0.0);
        EXPECT_GT(p.batchOneEfficiency, 0.0);
        EXPECT_LE(p.batchOneEfficiency, 1.0);
        EXPECT_GE(p.acceleratorCount, 1);
        EXPECT_GE(p.maxBatch, 1);
    }
    EXPECT_EQ(processors.size(), 5u);
}

TEST(SystemZoo, FourOrdersOfMagnitudeCompute)
{
    // Sec. VI-D: "The performance delta between the smallest and
    // largest inference systems is four orders of magnitude."
    double min_peak = 1e300, max_peak = 0.0;
    for (const auto &p : systemZoo()) {
        const double total =
            p.peakMacsPerSec * static_cast<double>(p.acceleratorCount);
        min_peak = std::min(min_peak, total);
        max_peak = std::max(max_peak, total);
    }
    EXPECT_GE(max_peak / min_peak, 1e4);
}

TEST(SystemZoo, FigureSixSelectionHasElevenSystems)
{
    const auto systems = figureSixSystems();
    EXPECT_EQ(systems.size(), 11u);
    std::set<std::string> names;
    for (const auto &p : systems)
        names.insert(p.systemName);
    EXPECT_EQ(names.size(), 11u);
}

TEST(SystemZoo, FrameworkMatrixCoversTableSeven)
{
    const auto matrix = frameworkProcessorMatrix();
    // At least as rich as the paper's 14-cell matrix in spirit:
    // several frameworks, and TensorFlow spanning multiple processor
    // types ("TensorFlow has the most architectural variety").
    std::set<std::string> frameworks;
    int tensorflow_processors = 0;
    for (const auto &[fw, proc] : matrix) {
        frameworks.insert(fw);
        if (fw == "TensorFlow")
            ++tensorflow_processors;
    }
    EXPECT_GE(frameworks.size(), 8u);
    EXPECT_GE(tensorflow_processors, 2);
}

} // namespace
} // namespace sut
} // namespace mlperf
