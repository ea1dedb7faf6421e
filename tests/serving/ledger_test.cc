/**
 * @file
 * The sample ledger as a property (DESIGN.md, "One outcome path").
 * Whatever the tracker, chaos, queue, batching window or arrival
 * pattern, a drained ServingSut — and each tenant of a
 * ServingPlatform — holds exactly one terminal status per issued
 * sample, and each status count equals the LoadGen's own tally of the
 * run (report::ledgerMismatch). A virtual-time run reproduces its
 * ledger from its seed.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "../loadgen/test_doubles.h"
#include "loadgen/loadgen.h"
#include "report/serving_report.h"
#include "serving/chaos.h"
#include "serving/serving_sut.h"
#include "serving/tenancy/platform.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"

namespace mlperf {
namespace serving {
namespace {

using sim::kNsPerMs;

/**
 * Answers Ok after 1 ms per batch plus 0.25 ms per sample: modeled
 * under virtual time, slept on the worker under threads.
 */
class FixedCostInference : public BatchInference
{
  public:
    explicit FixedCostInference(bool sleeps = false) : sleeps_(sleeps) {}

    std::string name() const override { return "fixed-cost"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        if (sleeps_) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(cost(samples.size())));
        }
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, "answer"});
        return responses;
    }

    sim::Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &samples,
                  sim::Tick) override
    {
        return cost(samples.size());
    }

  private:
    static sim::Tick
    cost(size_t samples)
    {
        return kNsPerMs + samples * kNsPerMs / 4;
    }

    const bool sleeps_;
};

/** FixedCostInference behind its own fault injector (a registry model). */
class ChaoticModel : public BatchInference
{
  public:
    explicit ChaoticModel(ChaosOptions options) : chaos_(inner_, options) {}

    std::string name() const override { return "chaotic"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        return chaos_.runBatch(samples);
    }

    sim::Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &samples,
                  sim::Tick now) override
    {
        return chaos_.serviceTimeNs(samples, now);
    }

  private:
    FixedCostInference inner_;
    FaultInjectingInference chaos_;
};

/** The ledger plus the stage counters a seed must reproduce. */
struct Ledger
{
    uint64_t issued = 0;
    uint64_t ok = 0;
    uint64_t degraded = 0;
    uint64_t shed = 0;
    uint64_t timeout = 0;
    uint64_t failed = 0;
    uint64_t queueShed = 0;
    uint64_t admissionShed = 0;
    uint64_t expired = 0;
    uint64_t dropped = 0;
    uint64_t batchesFailed = 0;
    uint64_t retries = 0;

    bool operator==(const Ledger &) const = default;
};

Ledger
ledgerOf(const StatsSnapshot &s)
{
    return {s.samplesIssued,        s.completedOk,
            s.completedDegraded,    s.completedShed,
            s.completedTimeout,     s.completedFailed,
            s.samplesShed,          s.admissionShedSamples,
            s.expiredSamples,       s.droppedCompletions,
            s.batchesFailed,        s.retries};
}

loadgen::TestSettings
serverSettings(double qps, uint64_t queries, uint64_t seed)
{
    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    settings.serverTargetQps = qps;
    settings.maxQueryCount = queries;
    settings.scheduleSeed = seed;
    return settings;
}

// ------------------------------------------- ServingSut, virtual time

enum class Tracker { None, Deadline, Admission, Both };
enum class Chaos { None, Transient, TransientRetried, Dropped, Spikes };

/** tracker, chaos, 1-batch queue, 1 ms window, bursty arrivals. */
using Cell = std::tuple<Tracker, Chaos, bool, bool, bool>;

constexpr sim::Tick kDeadlineNs = 8 * kNsPerMs;

struct CellRun
{
    Ledger ledger;
    std::string mismatch;
    uint64_t droppedQueries = 0;
    uint64_t outstanding = 0;
    ChaosCounters chaos;
};

CellRun
runCell(const Cell &cell, uint64_t seed)
{
    const auto [tracker, chaos_kind, queue_one, window, bursty] = cell;
    ChaosOptions chaos;
    chaos.seed = seed;
    switch (chaos_kind) {
      case Chaos::None:
        break;
      case Chaos::Transient:
      case Chaos::TransientRetried:
        chaos.transientFaultProb = 0.05;
        break;
      case Chaos::Dropped:
        chaos.dropCompletionProb = 0.05;
        break;
      case Chaos::Spikes:
        chaos.latencySpikeProb = 0.05;
        chaos.latencySpikeNs = 10 * kNsPerMs;
        break;
    }

    ServingOptions options;
    options.workers = 2;
    options.maxBatch = 4;
    options.batchTimeoutNs = window ? kNsPerMs : 0;
    options.queueCapacityBatches = queue_one ? 1 : 0;
    if (tracker == Tracker::Deadline || tracker == Tracker::Both)
        options.queryDeadlineNs = kDeadlineNs;
    if (tracker == Tracker::Admission || tracker == Tracker::Both)
        options.admission.maxInFlightSamples = 24;
    if (chaos_kind == Chaos::TransientRetried)
        options.retry.maxAttempts = 3;

    loadgen::TestSettings settings = serverSettings(3000.0, 400, seed);
    settings.serverQueryDeadlineNs = options.queryDeadlineNs;
    if (bursty)
        settings.serverBurstFactor = 3.0;

    sim::VirtualExecutor ex;
    FixedCostInference inner;
    FaultInjectingInference chaotic(inner, chaos);
    ServingSut sut(ex, chaotic, options);
    loadgen::testing::FakeQsl qsl(1024, 256);
    loadgen::LoadGen lg(ex);
    const loadgen::TestResult result = lg.startTest(sut, qsl, settings);
    sut.shutdown();

    CellRun run;
    run.ledger = ledgerOf(sut.stats());
    run.mismatch = report::ledgerMismatch(sut.stats(), result);
    run.droppedQueries = result.droppedQueries;
    run.outstanding = sut.outstandingTracked();
    run.chaos = chaotic.counters();
    return run;
}

class SampleLedger : public ::testing::TestWithParam<Cell>
{
};

TEST_P(SampleLedger, OneTerminalStatusPerSampleMatchingLoadGen)
{
    const Cell cell = GetParam();
    const Tracker tracker = std::get<0>(cell);
    const Chaos chaos = std::get<1>(cell);
    const uint64_t seed = 1000 + static_cast<uint64_t>(chaos) * 16 +
                          static_cast<uint64_t>(tracker);

    const CellRun run = runCell(cell, seed);
    EXPECT_EQ(run.droppedQueries, 0u);
    EXPECT_EQ(run.outstanding, 0u);
    EXPECT_EQ(run.mismatch, "");
    EXPECT_GT(run.ledger.issued, 0u);

    // The chaos axis is exercised, and each fault ends where the
    // outcome policy says.
    const bool deadline =
        tracker == Tracker::Deadline || tracker == Tracker::Both;
    switch (chaos) {
      case Chaos::None:
        EXPECT_EQ(run.ledger.failed, 0u);
        break;
      case Chaos::Transient:
        EXPECT_GT(run.chaos.transientFaults, 0u);
        EXPECT_GT(run.ledger.failed, 0u);
        break;
      case Chaos::TransientRetried:
        EXPECT_GT(run.ledger.retries, 0u);
        break;
      case Chaos::Dropped:
        EXPECT_GT(run.chaos.droppedCompletions, 0u);
        if (deadline) {
            // Left to the reaper, which answers each with Timeout.
            EXPECT_GT(run.ledger.dropped, 0u);
            EXPECT_GE(run.ledger.timeout, run.ledger.dropped);
        } else {
            // No reaper would answer them: they fail instead.
            EXPECT_EQ(run.ledger.dropped, 0u);
            EXPECT_GT(run.ledger.failed, 0u);
        }
        break;
      case Chaos::Spikes:
        EXPECT_GT(run.chaos.latencySpikes, 0u);
        break;
    }

    // Same seed, same ledger.
    EXPECT_EQ(runCell(cell, seed).ledger, run.ledger);
}

std::string
cellName(const ::testing::TestParamInfo<Cell> &info)
{
    static const char *const trackers[] = {"NoTracker", "Deadline",
                                           "Admission", "Both"};
    static const char *const chaos[] = {"NoChaos", "Transient",
                                        "TransientRetried", "Dropped",
                                        "Spikes"};
    const auto [tracker, chaos_kind, queue_one, window, bursty] =
        info.param;
    return std::string(trackers[static_cast<int>(tracker)]) + "_" +
           chaos[static_cast<int>(chaos_kind)] +
           (queue_one ? "_Queue1" : "_Unbounded") +
           (window ? "_Window1ms" : "_Demand") +
           (bursty ? "_Bursty" : "_Poisson");
}

INSTANTIATE_TEST_SUITE_P(
    Events, SampleLedger,
    ::testing::Combine(
        ::testing::Values(Tracker::None, Tracker::Deadline,
                          Tracker::Admission, Tracker::Both),
        ::testing::Values(Chaos::None, Chaos::Transient,
                          Chaos::TransientRetried, Chaos::Dropped,
                          Chaos::Spikes),
        ::testing::Bool(), ::testing::Bool(), ::testing::Bool()),
    cellName);

// ------------------------------------- ServingPlatform, virtual time

/** Each tenant's ledger, then the shared pool's stage counters. */
struct PlatformRun
{
    std::vector<Ledger> tenants;
    std::vector<std::string> mismatches;
    Ledger pool;
};

PlatformRun
runPlatform(uint64_t seed)
{
    ChaosOptions chaos;
    chaos.seed = seed;
    chaos.transientFaultProb = 0.05;
    chaos.dropCompletionProb = 0.05;

    sim::VirtualExecutor ex;
    ModelRegistry registry;
    auto clean = std::make_shared<ServableModel>();
    clean->engine = std::make_unique<FixedCostInference>();
    registry.publish("clean", clean);
    auto chaotic = std::make_shared<ServableModel>();
    chaotic->engine = std::make_unique<ChaoticModel>(chaos);
    registry.publish("chaotic", chaotic);

    PlatformOptions options;
    options.workers = 2;
    options.maxBatch = 4;
    options.queueCapacityBatches = 4;
    ServingPlatform platform(ex, registry, options);
    const uint32_t clean_route = platform.addModelRoute("clean");
    const uint32_t chaotic_route = platform.addModelRoute("chaotic");

    // The chaotic model serves a tenant with a deadline (Interactive:
    // its dropped completions are reaped) and one without (Batch:
    // they fail); Standard shares the pool on the clean model.
    TenantPolicy interactive;
    interactive.name = "interactive";
    interactive.slo = SloClass::Interactive;
    TenantPolicy standard;
    standard.name = "standard";
    standard.slo = SloClass::Standard;
    TenantPolicy batch;
    batch.name = "batch";
    batch.slo = SloClass::Batch;
    TenantSut &a = platform.addTenant(interactive, chaotic_route);
    TenantSut &b = platform.addTenant(standard, clean_route);
    TenantSut &c = platform.addTenant(batch, chaotic_route);

    loadgen::testing::FakeQsl qsl_a(1024, 256), qsl_b(1024, 256),
        qsl_c(1024, 256);
    loadgen::LoadGen lg(ex);
    const std::vector<loadgen::TestResult> results =
        lg.startMultiTenantTest(
            {{&a, &qsl_a, serverSettings(1500.0, 400, seed)},
             {&b, &qsl_b, serverSettings(1000.0, 400, seed + 1)},
             {&c, &qsl_c, serverSettings(2000.0, 400, seed + 2)}});
    platform.shutdown();

    PlatformRun run;
    for (size_t i = 0; i < platform.tenantCount(); ++i) {
        TenantSut &tenant = platform.tenant(i);
        SCOPED_TRACE(tenant.name());
        EXPECT_EQ(results[i].droppedQueries, 0u);
        EXPECT_EQ(tenant.outstanding(), 0u);
        run.mismatches.push_back(
            report::ledgerMismatch(tenant.stats(), results[i]));
        run.tenants.push_back(ledgerOf(tenant.stats()));
    }
    run.pool = ledgerOf(platform.stats());
    return run;
}

TEST(SampleLedger, ThreeTenantPlatformWithChaosOnOneModel)
{
    const PlatformRun run = runPlatform(77);
    ASSERT_EQ(run.tenants.size(), 3u);
    for (const std::string &mismatch : run.mismatches)
        EXPECT_EQ(mismatch, "");

    // Dropped completions are a stage event of the shared pool; the
    // tenants' ledgers show where each one ended.
    const Ledger &interactive = run.tenants[0];
    const Ledger &standard = run.tenants[1];
    const Ledger &batch = run.tenants[2];
    EXPECT_GT(run.pool.dropped, 0u);
    EXPECT_GT(interactive.timeout, 0u);  // reaped at its deadline
    EXPECT_GT(batch.failed, 0u);         // no deadline: failed instead
    EXPECT_EQ(standard.failed, 0u);      // the clean model
    EXPECT_EQ(run.pool.issued, 0u);      // the tenants own the ledger
    EXPECT_EQ(run.pool.ok, 0u);

    const PlatformRun again = runPlatform(77);
    EXPECT_EQ(again.tenants, run.tenants);
    EXPECT_EQ(again.pool, run.pool);
}

// ---------------------------------------- ServingSut, wall-clock time

/** shards, tracker (deadline + admission). */
using ThreadCell = std::tuple<int64_t, bool>;

class SampleLedgerThreads : public ::testing::TestWithParam<ThreadCell>
{
};

TEST_P(SampleLedgerThreads, OneTerminalStatusPerSampleMatchingLoadGen)
{
    const auto [shards, tracked] = GetParam();
    ChaosOptions chaos;
    chaos.seed = 5;
    chaos.transientFaultProb = 0.05;
    chaos.dropCompletionProb = 0.1;

    ServingOptions options;
    options.mode = WorkerMode::Threads;
    options.workers = 2;
    options.shards = shards;
    options.maxBatch = 4;
    options.queueCapacityBatches = 4;
    if (tracked) {
        options.queryDeadlineNs = 50 * kNsPerMs;
        options.admission.maxInFlightSamples = 32;
    }

    sim::RealExecutor ex;
    FixedCostInference inner(/*sleeps=*/true);
    FaultInjectingInference chaotic(inner, chaos);
    ServingSut sut(ex, chaotic, options);
    ASSERT_EQ(sut.shardCount(), static_cast<size_t>(shards));
    loadgen::testing::FakeQsl qsl(1024, 256);
    loadgen::TestSettings settings = serverSettings(2000.0, 300, 9);
    settings.serverQueryDeadlineNs = options.queryDeadlineNs;
    loadgen::LoadGen lg(ex);
    const loadgen::TestResult result = lg.startTest(sut, qsl, settings);
    sut.shutdown();

    EXPECT_EQ(result.droppedQueries, 0u);
    EXPECT_EQ(sut.outstandingTracked(), 0u);
    EXPECT_EQ(report::ledgerMismatch(sut.stats(), result), "");
    EXPECT_GT(chaotic.counters().droppedCompletions, 0u);
    if (!tracked) {
        // No deadline, so no dropped completion was left unanswered.
        EXPECT_EQ(sut.stats().droppedCompletions, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Threads, SampleLedgerThreads,
    ::testing::Combine(::testing::Values(int64_t{1}, int64_t{2}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ThreadCell> &info) {
        return std::to_string(std::get<0>(info.param)) + "Shards_" +
               (std::get<1>(info.param) ? "Tracked" : "Untracked");
    });

} // namespace
} // namespace serving
} // namespace mlperf
