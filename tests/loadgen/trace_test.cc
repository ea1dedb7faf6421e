/**
 * @file
 * Trace-driven arrival generation: determinism, shape properties
 * (diurnal rate variation, heavy-tailed session bursts), recorded
 * replay semantics, config parsing, and an end-to-end open-loop run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "loadgen/loadgen.h"
#include "loadgen/trace.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"
#include "test_doubles.h"

namespace mlperf {
namespace loadgen {
namespace {

using sim::kNsPerMs;
using sim::kNsPerSec;
using sim::Tick;
using testing::FakeQsl;
using testing::ParallelSut;

/** Mean of consecutive gaps, in seconds. */
double
meanGapSeconds(const std::vector<Tick> &ticks, size_t begin,
               size_t end)
{
    if (end <= begin + 1)
        return 0.0;
    return static_cast<double>(ticks[end - 1] - ticks[begin]) /
           static_cast<double>(end - begin - 1) / 1e9;
}

void
expectSortedNonDecreasing(const std::vector<Tick> &ticks)
{
    for (size_t i = 1; i < ticks.size(); ++i)
        ASSERT_GE(ticks[i], ticks[i - 1]) << "at index " << i;
}

TEST(TraceArrivals, DiurnalIsDeterministicAndSorted)
{
    const auto a = generateDiurnalArrivals(500, 100.0, 0.8,
                                           2 * kNsPerSec, 42);
    const auto b = generateDiurnalArrivals(500, 100.0, 0.8,
                                           2 * kNsPerSec, 42);
    ASSERT_EQ(a.size(), 500u);
    EXPECT_EQ(a, b);
    expectSortedNonDecreasing(a);

    const auto c = generateDiurnalArrivals(500, 100.0, 0.8,
                                           2 * kNsPerSec, 43);
    EXPECT_NE(a, c) << "different seed must change the schedule";
}

TEST(TraceArrivals, DiurnalRateActuallyVaries)
{
    // Amplitude 0.9 around 100 qps over a 2 s period: the rising
    // half of each cycle (sin > 0, rate up to 1.9x mean) must hold
    // far more arrivals than the falling half (rate down to 0.1x).
    // Expected ratio is (1 + 0.9*2/pi)/(1 - 0.9*2/pi) ~ 3.7.
    const Tick period = 2 * kNsPerSec;
    const auto ticks =
        generateDiurnalArrivals(2000, 100.0, 0.9, period, 7);
    uint64_t crest = 0, trough = 0;
    for (Tick t : ticks) {
        const double phase =
            static_cast<double>(t % period) /
            static_cast<double>(period);
        if (phase < 0.5)
            ++crest;
        else
            ++trough;
    }
    EXPECT_GT(crest, 2 * trough)
        << "rate swing of 0.9 must skew arrivals into the crest half "
        << "(crest " << crest << " vs trough " << trough << ")";
}

TEST(TraceArrivals, DiurnalZeroAmplitudeIsPlainPoisson)
{
    const auto ticks =
        generateDiurnalArrivals(1000, 200.0, 0.0, kNsPerSec, 11);
    ASSERT_EQ(ticks.size(), 1000u);
    expectSortedNonDecreasing(ticks);
    // Mean interarrival ~5 ms, within 25%.
    const double mean_gap = meanGapSeconds(ticks, 0, ticks.size());
    EXPECT_NEAR(mean_gap, 0.005, 0.00125);
}

TEST(TraceArrivals, SessionBurstsAreHeavyTailed)
{
    TraceSpec spec;
    spec.pattern = ArrivalPattern::SessionBurst;
    spec.sessionMeanSize = 8.0;
    spec.sessionParetoAlpha = 1.3;
    spec.sessionGapNs = kNsPerMs;
    spec.sessionGapSigma = 1.0;
    const auto ticks = generateSessionArrivals(2000, 100.0, spec, 5);
    ASSERT_EQ(ticks.size(), 2000u);
    expectSortedNonDecreasing(ticks);

    // Heavy-tail signature: the gap distribution's coefficient of
    // variation must exceed 1 (a Poisson process sits at exactly 1;
    // bursts of ~1 ms gaps punctuated by long inter-session waits
    // push it well above).
    std::vector<double> gaps;
    for (size_t i = 1; i < ticks.size(); ++i)
        gaps.push_back(static_cast<double>(ticks[i] - ticks[i - 1]));
    const double mean =
        std::accumulate(gaps.begin(), gaps.end(), 0.0) /
        static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps)
        var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    EXPECT_GT(std::sqrt(var) / mean, 1.2);

    // And determinism, same as every other generator.
    EXPECT_EQ(ticks, generateSessionArrivals(2000, 100.0, spec, 5));
    EXPECT_NE(ticks, generateSessionArrivals(2000, 100.0, spec, 6));
}

TEST(TraceArrivals, RecordedReplayWrapsDeterministically)
{
    const std::vector<Tick> recorded = {0, 10, 25, 40};
    const auto ticks = replayRecordedArrivals(recorded, 10);
    ASSERT_EQ(ticks.size(), 10u);
    expectSortedNonDecreasing(ticks);
    // First pass is the recording verbatim.
    for (size_t i = 0; i < recorded.size(); ++i)
        EXPECT_EQ(ticks[i], recorded[i]);
    // Wrap offset is constant: the second pass has identical gaps.
    const Tick wrap = ticks[4] - ticks[0];
    for (size_t i = 4; i < 8; ++i)
        EXPECT_EQ(ticks[i], recorded[i - 4] + wrap);
}

TEST(TraceArrivals, EmptyRecordingThrows)
{
    EXPECT_THROW(replayRecordedArrivals({}, 5),
                 std::invalid_argument);
}

TEST(TraceArrivals, ParseRecordedTraceSkipsCommentsAndBlanks)
{
    const auto ticks = parseRecordedTrace("# capture\n"
                                          "1000\n"
                                          "\n"
                                          "2000  # inline gap\n"
                                          "  2000\n"
                                          "3000\n");
    ASSERT_EQ(ticks.size(), 4u);
    EXPECT_EQ(ticks[0], 1000u);
    EXPECT_EQ(ticks[1], 2000u);
    EXPECT_EQ(ticks[2], 2000u) << "simultaneous arrivals are legal";
    EXPECT_EQ(ticks[3], 3000u);
}

TEST(TraceArrivals, ParseRecordedTraceRejectsNonMonotonicOffsets)
{
    // A capture is a timeline: silently sorting "3000, 1000" would
    // replay a workload that never ran. The error names the line.
    try {
        parseRecordedTrace("3000\n1000\n2000\n");
        FAIL() << "non-monotonic trace must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << "got: " << e.what();
        EXPECT_NE(std::string(e.what()).find("non-decreasing"),
                  std::string::npos)
            << "got: " << e.what();
    }
}

TEST(TraceArrivals, ParseRecordedTraceRejectsMalformedValues)
{
    // Trailing junk: stoull would have silently accepted "12x34" as
    // 12. Sign, exponent and hex notation are equally rejected.
    for (const char *bad :
         {"100\n12x34\n", "-5\n", "1e9\n", "0x10\n", "12 34\n"}) {
        EXPECT_THROW(parseRecordedTrace(bad), std::invalid_argument)
            << "accepted: " << bad;
    }
    try {
        parseRecordedTrace("7\nnope\n");
        FAIL() << "malformed trace line must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << "got: " << e.what();
    }
}

TEST(TraceArrivals, ParseRecordedTraceRejectsOutOfRangeOffsets)
{
    // 2^64 = 18446744073709551616 overflows; the max value parses.
    EXPECT_THROW(parseRecordedTrace("18446744073709551616\n"),
                 std::invalid_argument);
    const auto max = parseRecordedTrace("18446744073709551615\n");
    ASSERT_EQ(max.size(), 1u);
    EXPECT_EQ(max[0], UINT64_MAX);
}

TEST(TraceArrivals, ApplyConfigSelectsPatternAndKnobs)
{
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.applyConfig("arrival_pattern = diurnal\n"
                  "diurnal_amplitude = 0.7\n"
                  "diurnal_period_s = 30\n");
    EXPECT_EQ(s.serverTrace.pattern, ArrivalPattern::Diurnal);
    EXPECT_DOUBLE_EQ(s.serverTrace.diurnalAmplitude, 0.7);
    EXPECT_EQ(s.serverTrace.diurnalPeriodNs, 30 * kNsPerSec);

    s.applyConfig("arrival_pattern = sessions\n"
                  "session_mean_size = 12\n"
                  "session_pareto_alpha = 1.8\n"
                  "session_gap_ms = 5\n"
                  "session_gap_sigma = 0.5\n");
    EXPECT_EQ(s.serverTrace.pattern, ArrivalPattern::SessionBurst);
    EXPECT_DOUBLE_EQ(s.serverTrace.sessionMeanSize, 12.0);
    EXPECT_DOUBLE_EQ(s.serverTrace.sessionParetoAlpha, 1.8);
    EXPECT_EQ(s.serverTrace.sessionGapNs, 5 * kNsPerMs);
    EXPECT_DOUBLE_EQ(s.serverTrace.sessionGapSigma, 0.5);

    EXPECT_THROW(s.applyConfig("arrival_pattern = lumpy\n"),
                 std::invalid_argument);
}

TEST(TraceArrivals, GenerateServerArrivalsDispatchesOnPattern)
{
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.serverTargetQps = 100.0;

    s.serverTrace.pattern = ArrivalPattern::Recorded;
    s.serverTrace.recorded = {5, 15, 35};
    const auto recorded = generateServerArrivals(s, 3, 1);
    EXPECT_EQ(recorded, (std::vector<Tick>{5, 15, 35}));

    // Legacy knob: burst_factor > 1 on a Poisson spec still selects
    // the MMPP generator (backward compatibility).
    s.serverTrace = TraceSpec{};
    s.serverBurstFactor = 3.0;
    const auto legacy = generateServerArrivals(s, 400, 2);
    s.serverTrace.pattern = ArrivalPattern::Bursty;
    s.serverTrace.burstFactor = 3.0;
    const auto explicit_bursty = generateServerArrivals(s, 400, 2);
    EXPECT_EQ(legacy, explicit_bursty);
}

/**
 * End to end: a diurnal trace through the LoadGen stays open-loop —
 * every query issues at its scheduled tick (virtual time, parallel
 * SUT), and the schedule is reproducible run to run.
 */
TEST(TraceArrivals, EndToEndDiurnalOpenLoop)
{
    auto run = [&] {
        sim::VirtualExecutor ex;
        ParallelSut sut(ex, 2 * kNsPerMs);
        FakeQsl qsl(512, 128);
        TestSettings s = TestSettings::forScenario(Scenario::Server);
        s.maxQueryCount = 300;
        s.serverTargetQps = 500.0;
        s.serverTrace.pattern = ArrivalPattern::Diurnal;
        s.serverTrace.diurnalAmplitude = 0.8;
        s.serverTrace.diurnalPeriodNs = 200 * kNsPerMs;
        s.recordTimeline = true;
        LoadGen lg(ex);
        return lg.startTest(sut, qsl, s);
    };
    const TestResult a = run();
    EXPECT_EQ(a.droppedQueries, 0u);
    ASSERT_EQ(a.timeline.size(), 300u);
    for (const auto &q : a.timeline)
        EXPECT_EQ(q.issued, q.scheduled)
            << "parallel SUT in virtual time must never drift";
    EXPECT_EQ(a.maxIssueDriftNs, 0u);

    const TestResult b = run();
    ASSERT_EQ(b.timeline.size(), a.timeline.size());
    for (size_t i = 0; i < a.timeline.size(); ++i)
        EXPECT_EQ(a.timeline[i].scheduled, b.timeline[i].scheduled);
}

/** A QSL whose staging takes wall time, like one that reads images. */
class SlowStagingQsl : public FakeQsl
{
  public:
    using FakeQsl::FakeQsl;

    void
    loadSamplesToRam(const std::vector<QuerySampleIndex> &idx) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        FakeQsl::loadSamplesToRam(idx);
    }
};

/**
 * A wall-clock run anchors its schedule after staging: 30 ms spent in
 * loadSamplesToRam must not make the first scheduled queries late.
 */
TEST(TraceArrivals, StagingDoesNotDelayFirstQueries)
{
    sim::RealExecutor ex;
    ParallelSut sut(ex, kNsPerMs / 10);
    SlowStagingQsl qsl(512, 128);
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.maxQueryCount = 50;
    s.serverTargetQps = 1000.0;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);

    EXPECT_EQ(r.droppedQueries, 0u);
    EXPECT_EQ(r.queryCount, 50u);
    EXPECT_GT(qsl.loadedCount_, 0u);
    EXPECT_LT(r.maxIssueDriftNs, 5 * kNsPerMs);
}

} // namespace
} // namespace loadgen
} // namespace mlperf
