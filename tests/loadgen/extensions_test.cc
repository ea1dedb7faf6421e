/**
 * @file
 * Tests for the LoadGen extensions the paper plans in Sec. I/IV-B:
 * burst-mode arrivals — plus the dropped-response validity rule.
 * Multitenancy runs on the serving platform and is tested with it
 * (tests/serving/tenancy_test.cc).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "loadgen/loadgen.h"
#include "loadgen/schedule.h"
#include "sim/virtual_executor.h"
#include "test_doubles.h"

namespace mlperf {
namespace loadgen {
namespace {

using sim::kNsPerMs;
using sim::kNsPerSec;
using testing::FakeQsl;
using testing::ParallelSut;
using testing::SerialSut;

// ---------------------------------------------------------- burst mode

TEST(BurstMode, MeanRatePreserved)
{
    const double qps = 200.0;
    const auto arrivals = generateBurstyArrivals(100000, qps, 3.0, 7);
    const double span_s =
        static_cast<double>(arrivals.back() - arrivals.front()) /
        static_cast<double>(kNsPerSec);
    EXPECT_NEAR(99999.0 / span_s, qps, 0.1 * qps);
}

TEST(BurstMode, GapsBurstierThanPoisson)
{
    // The coefficient of variation of interarrival gaps exceeds the
    // Poisson value of 1 when bursts are on.
    auto cv = [](const std::vector<sim::Tick> &arrivals) {
        double sum = 0.0, sum_sq = 0.0;
        for (size_t i = 1; i < arrivals.size(); ++i) {
            const double gap =
                static_cast<double>(arrivals[i] - arrivals[i - 1]);
            sum += gap;
            sum_sq += gap * gap;
        }
        const double n = static_cast<double>(arrivals.size() - 1);
        const double mean = sum / n;
        return std::sqrt(sum_sq / n - mean * mean) / mean;
    };
    const auto poisson = generatePoissonArrivals(50000, 100.0, 3);
    const auto bursty = generateBurstyArrivals(50000, 100.0, 3.0, 3);
    EXPECT_NEAR(cv(poisson), 1.0, 0.05);
    EXPECT_GT(cv(bursty), 1.15);
}

TEST(BurstMode, DeterministicPerSeed)
{
    EXPECT_EQ(generateBurstyArrivals(1000, 50.0, 2.0, 9),
              generateBurstyArrivals(1000, 50.0, 2.0, 9));
    EXPECT_NE(generateBurstyArrivals(1000, 50.0, 2.0, 9),
              generateBurstyArrivals(1000, 50.0, 2.0, 10));
}

TEST(BurstMode, SameMeanLoadFailsUnderBurstsButPassesUnderPoisson)
{
    // The point of burst mode: a serial system sized with little
    // headroom survives Poisson arrivals but not 3x bursts.
    auto run = [](double burst_factor) {
        sim::VirtualExecutor ex;
        SerialSut sut(ex, 5 * kNsPerMs);  // capacity 200 qps
        FakeQsl qsl(1000, 256);
        TestSettings s = TestSettings::forScenario(Scenario::Server);
        s.serverTargetQps = 100.0;  // utilization 0.5: Poisson-safe
        s.serverBurstFactor = burst_factor;  // bursts hit 1.5x capacity
        s.targetLatencyNs = 25 * kNsPerMs;
        s.maxQueryCount = 20000;
        LoadGen lg(ex);
        return lg.startTest(sut, qsl, s);
    };
    const TestResult poisson = run(1.0);
    const TestResult bursty = run(3.0);
    EXPECT_TRUE(poisson.valid);
    EXPECT_GT(bursty.overLatencyFraction,
              poisson.overLatencyFraction);
    EXPECT_FALSE(bursty.valid);
}

TEST(BurstMode, ConfigKeyParsed)
{
    TestSettings s;
    s.applyConfig("server_burst_factor = 2.5\n");
    EXPECT_DOUBLE_EQ(s.serverBurstFactor, 2.5);
}

// --------------------------------------------------- dropped queries

/** SUT that silently drops every other query. */
class DroppingSut : public SystemUnderTest
{
  public:
    explicit DroppingSut(sim::Executor &ex) : ex_(ex) {}
    std::string name() const override { return "dropper"; }

    void
    issueQuery(const std::vector<QuerySample> &samples,
               ResponseDelegate &delegate) override
    {
        if (++count_ % 2 == 0)
            return;  // drop
        std::vector<QuerySampleResponse> responses;
        for (const auto &s : samples)
            responses.push_back({s.id, ""});
        ex_.scheduleAfter(1 * kNsPerMs, [&delegate, responses] {
            delegate.querySamplesComplete(responses);
        });
    }

    void flushQueries() override {}

  private:
    sim::Executor &ex_;
    uint64_t count_ = 0;
};

TEST(DroppedQueries, InvalidateTheRun)
{
    sim::VirtualExecutor ex;
    DroppingSut sut(ex);
    FakeQsl qsl(100, 64);
    TestSettings s = TestSettings::forScenario(Scenario::Server);
    s.serverTargetQps = 100.0;
    s.maxQueryCount = 50;
    LoadGen lg(ex);
    const TestResult r = lg.startTest(sut, qsl, s);
    EXPECT_EQ(r.droppedQueries, 25u);
    EXPECT_FALSE(r.valid);
    EXPECT_NE(r.summary().find("never completed"), std::string::npos);
}

} // namespace
} // namespace loadgen
} // namespace mlperf
