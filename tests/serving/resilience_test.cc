/**
 * @file
 * Tests for the fault-tolerance layer: admission control, deadlines +
 * completion tracking, retry with backoff, the circuit breaker,
 * graceful degradation — every resilience state transition driven
 * deterministically, plus a server-scenario acceptance run with
 * injected faults proving the LoadGen never hangs and every fault is
 * visible in the counters.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <mutex>
#include <set>
#include <vector>

#include "loadgen/loadgen.h"
#include "report/serving_report.h"
#include "serving/chaos.h"
#include "serving/completion_tracker.h"
#include "serving/resilience.h"
#include "serving/serving_sut.h"
#include "sim/real_executor.h"
#include "sim/virtual_executor.h"

namespace mlperf {
namespace serving {
namespace {

using sim::kNsPerMs;
using sim::kNsPerSec;

// ------------------------------------------------------ test doubles

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

    uint64_t
    countWithStatus(loadgen::ResponseStatus status) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        uint64_t n = 0;
        for (const auto &response : responses_)
            n += response.status == status ? 1 : 0;
        return n;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<loadgen::QuerySampleResponse> responses_;
};

/**
 * Inference double following a script of per-call outcomes; once the
 * script runs out every call succeeds. Thread-safe.
 */
class ScriptedInference : public BatchInference
{
  public:
    enum class Outcome { Ok, Transient, Permanent, Drop };

    explicit ScriptedInference(std::vector<Outcome> script = {},
                               sim::Tick service_ns = kNsPerMs)
        : script_(script.begin(), script.end()), serviceNs_(service_ns)
    {
    }

    std::string name() const override { return "scripted"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        Outcome outcome = Outcome::Ok;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++calls_;
            if (!script_.empty()) {
                outcome = script_.front();
                script_.pop_front();
            }
        }
        switch (outcome) {
          case Outcome::Transient:
            throw InferenceFault(FaultKind::Transient, "scripted");
          case Outcome::Permanent:
            throw InferenceFault(FaultKind::Permanent, "scripted");
          case Outcome::Drop:
            throw InferenceFault(FaultKind::DropCompletion, "scripted");
          case Outcome::Ok:
            break;
        }
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, "primary"});
        return responses;
    }

    sim::Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &,
                  sim::Tick) override
    {
        return serviceNs_;
    }

    uint64_t
    calls() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return calls_;
    }

  private:
    mutable std::mutex mutex_;
    std::deque<Outcome> script_;
    uint64_t calls_ = 0;
    sim::Tick serviceNs_;
};

/** Always-succeeding fallback engine with a cheaper cost model. */
class FallbackInference : public BatchInference
{
  public:
    std::string name() const override { return "fallback"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        batches_.fetch_add(1);
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, "fallback"});
        return responses;
    }

    sim::Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &,
                  sim::Tick) override
    {
        return kNsPerMs / 4;
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

// ---------------------------------------------------- CircuitBreaker

TEST(CircuitBreaker, OpensAfterConsecutiveFailures)
{
    BreakerOptions options;
    options.enabled = true;
    options.failureThreshold = 3;
    options.cooldownNs = 10 * kNsPerMs;
    CircuitBreaker breaker(options);

    EXPECT_TRUE(breaker.allow(0));
    breaker.onFailure(0);
    breaker.onFailure(1);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    breaker.onFailure(2);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_FALSE(breaker.allow(5));
    EXPECT_FALSE(breaker.allow(2 + 10 * kNsPerMs - 1));
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess)
{
    BreakerOptions options;
    options.enabled = true;
    options.failureThreshold = 1;
    options.cooldownNs = 10 * kNsPerMs;
    CircuitBreaker breaker(options);

    breaker.onFailure(0);
    EXPECT_EQ(breaker.state(), BreakerState::Open);

    // Cooldown elapsed: one probe allowed, further ones held back.
    EXPECT_TRUE(breaker.allow(10 * kNsPerMs));
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    EXPECT_FALSE(breaker.allow(10 * kNsPerMs));

    breaker.onSuccess(11 * kNsPerMs);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.allow(11 * kNsPerMs));
}

TEST(CircuitBreaker, FailedProbeReopens)
{
    BreakerOptions options;
    options.enabled = true;
    options.failureThreshold = 1;
    options.cooldownNs = 10 * kNsPerMs;
    CircuitBreaker breaker(options);

    breaker.onFailure(0);
    EXPECT_TRUE(breaker.allow(10 * kNsPerMs));  // half-open probe
    breaker.onFailure(10 * kNsPerMs);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    // The cooldown restarts from the failed probe.
    EXPECT_FALSE(breaker.allow(15 * kNsPerMs));
    EXPECT_TRUE(breaker.allow(20 * kNsPerMs));
}

TEST(CircuitBreaker, SuccessResetsFailureStreak)
{
    BreakerOptions options;
    options.enabled = true;
    options.failureThreshold = 2;
    CircuitBreaker breaker(options);

    breaker.onFailure(0);
    breaker.onSuccess(1);  // streak broken
    breaker.onFailure(2);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    breaker.onFailure(3);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
}

// ----------------------------------------------- AdmissionController

TEST(AdmissionController, EnforcesInFlightBudget)
{
    AdmissionOptions options;
    options.maxInFlightSamples = 4;
    AdmissionController admission(options);

    EXPECT_TRUE(admission.tryAdmit(3, 0));
    EXPECT_FALSE(admission.tryAdmit(2, 0));  // 3 + 2 > 4
    EXPECT_TRUE(admission.tryAdmit(1, 0));
    EXPECT_EQ(admission.inFlight(), 4u);
    admission.release(3);
    EXPECT_TRUE(admission.tryAdmit(2, 0));
    EXPECT_EQ(admission.inFlight(), 3u);
}

TEST(AdmissionController, ShedsOnQueueDepth)
{
    AdmissionOptions options;
    options.maxQueuedSamples = 5;
    AdmissionController admission(options);

    EXPECT_TRUE(admission.tryAdmit(3, 2));   // 2 + 3 == 5: fits
    EXPECT_FALSE(admission.tryAdmit(3, 4));  // 4 + 3 > 5
    // The bound counts the incoming query's own samples too.
    EXPECT_FALSE(admission.tryAdmit(100, 0));
    EXPECT_TRUE(admission.tryAdmit(5, 0));
}

// ------------------------------------------------ ResilientInference

TEST(ResilientInference, RetryRecoversFromTransientFault)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary({ScriptedInference::Outcome::Transient});
    ServingStats stats;
    RetryOptions retry;
    retry.maxAttempts = 3;
    ResilientInference resilient(ex, primary, nullptr, retry, {},
                                 stats);

    const auto responses = resilient.runBatch(makeSamples(2));
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].status, loadgen::ResponseStatus::Ok);
    EXPECT_EQ(primary.calls(), 2u);

    const StatsSnapshot snapshot = stats.snapshot();
    EXPECT_EQ(snapshot.retries, 1u);
    EXPECT_EQ(snapshot.retrySuccesses, 1u);
    EXPECT_EQ(snapshot.retriesExhausted, 0u);
}

TEST(ResilientInference, RetriesExhaustedThrowPermanent)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary({ScriptedInference::Outcome::Transient,
                               ScriptedInference::Outcome::Transient});
    ServingStats stats;
    RetryOptions retry;
    retry.maxAttempts = 2;
    ResilientInference resilient(ex, primary, nullptr, retry, {},
                                 stats);

    try {
        resilient.runBatch(makeSamples(1));
        FAIL() << "expected InferenceFault";
    } catch (const InferenceFault &fault) {
        EXPECT_EQ(fault.kind(), FaultKind::Permanent);
    }
    EXPECT_EQ(primary.calls(), 2u);
    const StatsSnapshot snapshot = stats.snapshot();
    EXPECT_EQ(snapshot.retries, 1u);
    EXPECT_EQ(snapshot.retriesExhausted, 1u);
}

TEST(ResilientInference, PermanentFaultIsNotRetried)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary({ScriptedInference::Outcome::Permanent});
    ServingStats stats;
    RetryOptions retry;
    retry.maxAttempts = 3;
    ResilientInference resilient(ex, primary, nullptr, retry, {},
                                 stats);

    EXPECT_THROW(resilient.runBatch(makeSamples(1)), InferenceFault);
    EXPECT_EQ(primary.calls(), 1u);
    EXPECT_EQ(stats.snapshot().retries, 0u);
}

TEST(ResilientInference, DropCompletionPassesThroughUntouched)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary({ScriptedInference::Outcome::Drop});
    ServingStats stats;
    RetryOptions retry;
    retry.maxAttempts = 3;
    ResilientInference resilient(ex, primary, nullptr, retry, {},
                                 stats);

    try {
        resilient.runBatch(makeSamples(1));
        FAIL() << "expected InferenceFault";
    } catch (const InferenceFault &fault) {
        EXPECT_EQ(fault.kind(), FaultKind::DropCompletion);
    }
    EXPECT_EQ(primary.calls(), 1u);  // dropping is not retryable
    EXPECT_EQ(stats.snapshot().retries, 0u);
}

TEST(ResilientInference, BreakerOpensThenFastFails)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary({ScriptedInference::Outcome::Permanent,
                               ScriptedInference::Outcome::Permanent});
    ServingStats stats;
    BreakerOptions breaker;
    breaker.enabled = true;
    breaker.failureThreshold = 2;
    breaker.cooldownNs = kNsPerSec;
    ResilientInference resilient(ex, primary, nullptr, {}, breaker,
                                 stats);

    EXPECT_THROW(resilient.runBatch(makeSamples(1)), InferenceFault);
    EXPECT_THROW(resilient.runBatch(makeSamples(1)), InferenceFault);
    EXPECT_EQ(primary.calls(), 2u);

    // Breaker open: the primary is never touched again.
    EXPECT_THROW(resilient.runBatch(makeSamples(4)), InferenceFault);
    EXPECT_EQ(primary.calls(), 2u);

    const StatsSnapshot snapshot = stats.snapshot();
    EXPECT_EQ(snapshot.breakerState, BreakerState::Open);
    EXPECT_EQ(snapshot.breakerOpens, 1u);
    EXPECT_EQ(snapshot.breakerFastFailSamples, 4u);
}

TEST(ResilientInference, BreakerHalfOpenRecoveryUnderVirtualTime)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary({ScriptedInference::Outcome::Permanent});
    ServingStats stats;
    BreakerOptions breaker;
    breaker.enabled = true;
    breaker.failureThreshold = 1;
    breaker.cooldownNs = 10 * kNsPerMs;
    ResilientInference resilient(ex, primary, nullptr, {}, breaker,
                                 stats);

    ex.schedule(0, [&] {
        EXPECT_THROW(resilient.runBatch(makeSamples(1)),
                     InferenceFault);
    });
    // After the cooldown the next batch is the half-open probe; the
    // script is exhausted so it succeeds and the breaker closes.
    ex.schedule(15 * kNsPerMs, [&] {
        const auto responses = resilient.runBatch(makeSamples(1));
        EXPECT_EQ(responses[0].status, loadgen::ResponseStatus::Ok);
    });
    ex.run();

    const StatsSnapshot snapshot = stats.snapshot();
    EXPECT_EQ(snapshot.breakerState, BreakerState::Closed);
    EXPECT_EQ(snapshot.breakerOpens, 1u);
    EXPECT_EQ(snapshot.breakerHalfOpens, 1u);
    EXPECT_EQ(snapshot.breakerCloses, 1u);
}

TEST(ResilientInference, FallbackServesDegradedOnFailure)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary({ScriptedInference::Outcome::Permanent});
    FallbackInference fallback;
    ServingStats stats;
    ResilientInference resilient(ex, primary, &fallback, {}, {},
                                 stats);

    const auto responses = resilient.runBatch(makeSamples(3));
    ASSERT_EQ(responses.size(), 3u);
    for (const auto &response : responses) {
        EXPECT_EQ(response.status, loadgen::ResponseStatus::Degraded);
        EXPECT_EQ(response.data, "fallback");
    }
    // Degraded serves are counted where they leave the runtime.
    stats.recordTerminal(responses);
    EXPECT_EQ(stats.snapshot().completedDegraded, 3u);
}

TEST(ResilientInference, DegradedModeRoutesToFallback)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary;
    FallbackInference fallback;
    ServingStats stats;
    ResilientInference resilient(ex, primary, &fallback, {}, {},
                                 stats);

    resilient.setDegraded(true);
    const auto responses = resilient.runBatch(makeSamples(2));
    EXPECT_EQ(primary.calls(), 0u);
    EXPECT_EQ(fallback.batches_.load(), 1u);
    EXPECT_EQ(responses[0].status, loadgen::ResponseStatus::Degraded);
    // Degraded mode also swaps the modeled cost to the fallback's.
    EXPECT_EQ(resilient.serviceTimeNs(makeSamples(1), 0),
              fallback.serviceTimeNs(makeSamples(1), 0));

    resilient.setDegraded(false);
    resilient.runBatch(makeSamples(1));
    EXPECT_EQ(primary.calls(), 1u);
}

// ----------------------------------------------- CompletionTracker

TEST(CompletionTracker, FirstCompletionWins)
{
    sim::VirtualExecutor ex;
    ServingStats stats;
    auto tracker =
        std::make_shared<CompletionTracker>(ex, stats, nullptr);
    RecordingDelegate delegate;

    tracker->track(makeSamples(2), delegate, 0);
    EXPECT_EQ(tracker->outstanding(), 2u);

    tracker->querySamplesComplete({{0, "first"}});
    tracker->querySamplesComplete({{0, "second"}});  // duplicate
    EXPECT_EQ(tracker->outstanding(), 1u);

    const auto responses = delegate.responses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].data, "first");
}

TEST(CompletionTracker, ReaperCompletesOutstandingWithTimeout)
{
    sim::VirtualExecutor ex;
    ServingStats stats;
    auto tracker =
        std::make_shared<CompletionTracker>(ex, stats, nullptr);
    RecordingDelegate delegate;

    tracker->track(makeSamples(2), delegate, 5 * kNsPerMs);
    tracker->querySamplesComplete({{0, "served"}});
    ex.run();  // the reaper fires at 5 ms

    const auto responses = delegate.responses();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].status, loadgen::ResponseStatus::Ok);
    EXPECT_EQ(responses[1].status, loadgen::ResponseStatus::Timeout);
    EXPECT_EQ(responses[1].id, 1u);
    EXPECT_EQ(tracker->outstanding(), 0u);
    // The tracker records both in the ledger, each once.
    EXPECT_EQ(stats.snapshot().completedOk, 1u);
    EXPECT_EQ(stats.snapshot().completedTimeout, 1u);
}

TEST(CompletionTracker, LateCompletionAfterReapIsIgnored)
{
    sim::VirtualExecutor ex;
    ServingStats stats;
    auto tracker =
        std::make_shared<CompletionTracker>(ex, stats, nullptr);
    RecordingDelegate delegate;

    tracker->track(makeSamples(1), delegate, kNsPerMs);
    ex.run();  // reaped with Timeout
    tracker->querySamplesComplete({{0, "late"}});  // worker finally done

    const auto responses = delegate.responses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, loadgen::ResponseStatus::Timeout);
}

TEST(CompletionTracker, DrainCompletesLeftovers)
{
    sim::VirtualExecutor ex;
    ServingStats stats;
    auto tracker =
        std::make_shared<CompletionTracker>(ex, stats, nullptr);
    RecordingDelegate delegate;

    tracker->track(makeSamples(3), delegate, 0);
    tracker->querySamplesComplete({{1, "served"}});
    tracker->drain();

    EXPECT_EQ(tracker->outstanding(), 0u);
    EXPECT_EQ(delegate.responses().size(), 3u);
    EXPECT_EQ(delegate.countWithStatus(loadgen::ResponseStatus::Timeout),
              2u);
}

TEST(CompletionTracker, ReaperAfterDestructionIsSafe)
{
    sim::VirtualExecutor ex;
    ServingStats stats;
    RecordingDelegate delegate;
    {
        auto tracker =
            std::make_shared<CompletionTracker>(ex, stats, nullptr);
        tracker->track(makeSamples(4), delegate, 2 * kNsPerMs);
        tracker->drain();  // teardown path completes everything
    }  // tracker destroyed; its reaper event is still scheduled
    ex.run();  // must not crash or double-complete

    EXPECT_EQ(delegate.responses().size(), 4u);
}

TEST(CompletionTracker, ReleasesAdmissionBudgetOnEveryPath)
{
    sim::VirtualExecutor ex;
    ServingStats stats;
    AdmissionOptions options;
    options.maxInFlightSamples = 4;
    AdmissionController admission(options);
    auto tracker =
        std::make_shared<CompletionTracker>(ex, stats, &admission);
    RecordingDelegate delegate;

    ASSERT_TRUE(admission.tryAdmit(4, 0));
    tracker->track(makeSamples(4), delegate, 3 * kNsPerMs);
    tracker->querySamplesComplete({{0, "served"}, {1, "served"}});
    EXPECT_EQ(admission.inFlight(), 2u);
    ex.run();  // the reaper releases the rest
    EXPECT_EQ(admission.inFlight(), 0u);
}

// -------------------------------------- ServingSut integration (sim)

TEST(ServingSutResilience, AdmissionControlShedsBeyondBudget)
{
    sim::VirtualExecutor ex;
    ScriptedInference inference({}, 10 * kNsPerMs);
    ServingOptions options;
    options.maxBatch = 1;
    options.batchTimeoutNs = 0;
    options.workers = 1;
    options.queueCapacityBatches = 0;  // only admission sheds
    options.admission.maxInFlightSamples = 2;
    ServingSut sut(ex, inference, options);
    RecordingDelegate delegate;

    for (uint64_t i = 0; i < 10; ++i)
        sut.issueQuery(makeSamples(1, i), delegate);
    ex.run();
    sut.shutdown();

    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.samplesIssued, 10u);
    EXPECT_EQ(snapshot.admissionShedSamples, 8u);
    EXPECT_EQ(snapshot.completedOk, 2u);
    EXPECT_EQ(snapshot.completedShed, 8u);
    EXPECT_GT(snapshot.shedRate(), 0.5);

    EXPECT_EQ(delegate.responses().size(), 10u);
    EXPECT_EQ(delegate.countWithStatus(loadgen::ResponseStatus::Shed),
              8u);
    EXPECT_EQ(sut.outstandingTracked(), 0u);
}

TEST(ServingSutResilience, DeadlineShedsExpiredAndReapsLate)
{
    sim::VirtualExecutor ex;
    // Each batch takes 2 ms; the per-query deadline is 3 ms.
    ScriptedInference inference({}, 2 * kNsPerMs);
    ServingOptions options;
    options.maxBatch = 1;
    options.batchTimeoutNs = 0;
    options.workers = 1;
    options.queueCapacityBatches = 0;
    options.queryDeadlineNs = 3 * kNsPerMs;
    ServingSut sut(ex, inference, options);
    RecordingDelegate delegate;

    // Three back-to-back queries against one worker:
    //   q0 dispatches at 0, completes at 2 ms  -> Ok
    //   q1 dispatches at 2 ms, would complete at 4 ms, but its reaper
    //      fires at 3 ms                       -> Timeout
    //   q2 dispatches at 4 ms, deadline 3 ms already passed -> shed at
    //      dispatch (its reaper completed it at 3 ms) -> Timeout
    for (uint64_t i = 0; i < 3; ++i)
        sut.issueQuery(makeSamples(1, i), delegate);
    ex.run();
    sut.shutdown();

    const auto responses = delegate.responses();
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(delegate.countWithStatus(loadgen::ResponseStatus::Ok),
              1u);
    EXPECT_EQ(
        delegate.countWithStatus(loadgen::ResponseStatus::Timeout), 2u);

    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.completedOk, 1u);
    EXPECT_EQ(snapshot.completedTimeout, 2u);
    EXPECT_EQ(snapshot.expiredSamples, 1u);  // q2 shed at dispatch
    EXPECT_EQ(sut.outstandingTracked(), 0u);
}

TEST(ServingSutResilience, DroppedCompletionIsReapedNotHung)
{
    sim::VirtualExecutor ex;
    ScriptedInference inner({}, kNsPerMs);
    ChaosOptions chaos_options;
    chaos_options.dropCompletionProb = 1.0;
    FaultInjectingInference chaotic(inner, chaos_options);
    ServingOptions options;
    options.maxBatch = 1;
    options.batchTimeoutNs = 0;
    options.workers = 1;
    options.queryDeadlineNs = 10 * kNsPerMs;
    ServingSut sut(ex, chaotic, options);
    RecordingDelegate delegate;

    sut.issueQuery(makeSamples(1), delegate);
    ex.run();
    sut.shutdown();

    const auto responses = delegate.responses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, loadgen::ResponseStatus::Timeout);

    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.droppedCompletions, 1u);
    EXPECT_EQ(snapshot.completedTimeout, 1u);
    EXPECT_EQ(chaotic.counters().droppedCompletions, 1u);
    EXPECT_EQ(sut.outstandingTracked(), 0u);
}

TEST(ServingSutResilience, AdmissionWithoutDeadlineAnswersDroppedCompletions)
{
    // An admission budget brings a tracker but no deadline, so no
    // reaper will answer a dropped completion: the batch must fail
    // instead of leaving its samples outstanding, and the LoadGen
    // waiting on them, until shutdown drains them into a finished run.
    sim::VirtualExecutor ex;
    ScriptedInference inner({}, kNsPerMs);
    ChaosOptions chaos_options;
    chaos_options.dropCompletionProb = 0.01;
    FaultInjectingInference chaotic(inner, chaos_options);
    ServingOptions options;
    options.admission.maxInFlightSamples = 1000;
    ServingSut sut(ex, chaotic, options);
    StubQsl qsl;

    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    settings.serverTargetQps = 1000.0;
    settings.maxQueryCount = 2000;
    loadgen::LoadGen lg(ex);
    const loadgen::TestResult result = lg.startTest(sut, qsl, settings);
    EXPECT_EQ(result.droppedQueries, 0u);
    EXPECT_EQ(sut.outstandingTracked(), 0u);
    sut.shutdown();

    EXPECT_EQ(result.queryCount, 2000u);
    EXPECT_GT(chaotic.counters().droppedCompletions, 0u);
    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.droppedCompletions, 0u);  // none left unanswered
    EXPECT_GT(snapshot.completedFailed, 0u);
    EXPECT_EQ(report::ledgerMismatch(snapshot, result), "");
}

TEST(ServingSutResilience, ShedRateMonitorDegradesWithHysteresis)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary({}, 10 * kNsPerMs);
    FallbackInference fallback;
    ServingOptions options;
    options.maxBatch = 1;
    options.batchTimeoutNs = 0;
    options.workers = 1;
    options.queueCapacityBatches = 0;
    options.admission.maxInFlightSamples = 1;
    options.fallback = &fallback;
    options.degradeShedRateThreshold = 0.5;
    ServingSut sut(ex, primary, options);
    RecordingDelegate delegate;

    // A burst against a 1-sample budget: the first is admitted, the
    // rest shed, driving the EWMA over the 0.5 threshold.
    for (uint64_t i = 0; i < 20; ++i)
        sut.issueQuery(makeSamples(1, i), delegate);
    ex.run();

    StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.degradeEntries, 1u);
    ASSERT_NE(sut.resilient(), nullptr);
    EXPECT_TRUE(sut.resilient()->degraded());

    // Offered load drops: successes decay the EWMA below threshold/2
    // and the monitor disengages.
    for (uint64_t i = 0; i < 40; ++i) {
        sut.issueQuery(makeSamples(1, 100 + i), delegate);
        ex.run();  // completes before the next arrival
    }
    sut.shutdown();

    snapshot = sut.stats();
    EXPECT_EQ(snapshot.degradeExits, 1u);
    EXPECT_GT(snapshot.completedDegraded, 0u);  // fallback served some
    EXPECT_FALSE(sut.resilient()->degraded());
    EXPECT_GT(fallback.batches_.load(), 0u);
}

TEST(ServingSutResilience, BreakerOpenDegradesToFallback)
{
    sim::VirtualExecutor ex;
    ScriptedInference primary({ScriptedInference::Outcome::Permanent},
                              kNsPerMs);
    FallbackInference fallback;
    ServingOptions options;
    options.maxBatch = 1;
    options.batchTimeoutNs = 0;
    options.workers = 1;
    options.breaker.enabled = true;
    options.breaker.failureThreshold = 1;
    options.breaker.cooldownNs = kNsPerSec;
    options.fallback = &fallback;
    ServingSut sut(ex, primary, options);
    RecordingDelegate delegate;

    sut.issueQuery(makeSamples(1, 0), delegate);  // trips the breaker
    ex.run();
    sut.issueQuery(makeSamples(1, 1), delegate);  // fast-fail path
    ex.run();
    sut.shutdown();

    const StatsSnapshot snapshot = sut.stats();
    EXPECT_EQ(snapshot.breakerOpens, 1u);
    EXPECT_EQ(snapshot.breakerFastFailSamples, 1u);
    EXPECT_EQ(snapshot.completedDegraded, 2u);
    EXPECT_EQ(
        delegate.countWithStatus(loadgen::ResponseStatus::Degraded),
        2u);
}

// ------------------------------------ LoadGen acceptance under chaos

TEST(ServingSutResilience, ServerScenarioWithInjectedFaultsFinishes)
{
    sim::VirtualExecutor ex;
    ScriptedInference inner({}, kNsPerMs);
    ChaosOptions chaos_options;
    chaos_options.seed = 42;
    chaos_options.transientFaultProb = 0.01;  // the 1% fault run
    chaos_options.dropCompletionProb = 0.005;
    chaos_options.latencySpikeProb = 0.01;
    chaos_options.latencySpikeNs = 5 * kNsPerMs;
    FaultInjectingInference chaotic(inner, chaos_options);

    ServingOptions options;
    options.maxBatch = 4;
    options.batchTimeoutNs = kNsPerMs;
    options.workers = 4;
    options.queryDeadlineNs = 50 * kNsPerMs;
    options.retry.maxAttempts = 3;
    ServingSut sut(ex, chaotic, options);
    StubQsl qsl;

    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    settings.serverTargetQps = 1000.0;
    settings.maxQueryCount = 5000;
    settings.serverQueryDeadlineNs = options.queryDeadlineNs;
    loadgen::LoadGen lg(ex);
    const loadgen::TestResult result = lg.startTest(sut, qsl, settings);
    sut.shutdown();

    // Zero hung queries: every issued query completed.
    EXPECT_EQ(result.droppedQueries, 0u);
    EXPECT_EQ(sut.outstandingTracked(), 0u);
    EXPECT_EQ(result.queryCount, 5000u);

    const StatsSnapshot snapshot = sut.stats();
    const ChaosCounters chaos = chaotic.counters();
    EXPECT_GT(chaos.transientFaults, 0u);
    EXPECT_GT(chaos.droppedCompletions, 0u);

    // Transient faults were retried, and some retries succeeded.
    EXPECT_GT(snapshot.retries, 0u);
    EXPECT_GT(snapshot.retrySuccesses, 0u);

    // One terminal status per sample, the LoadGen's own, whichever
    // hop answered it: every dropped completion was reaped as a
    // timeout.
    EXPECT_EQ(report::ledgerMismatch(snapshot, result), "");
    EXPECT_GT(snapshot.droppedCompletions, 0u);
    EXPECT_GE(snapshot.completedTimeout, snapshot.droppedCompletions);

    // Errored queries count against the latency bound.
    EXPECT_GE(result.overLatencyCount, result.erroredQueries);
    EXPECT_GT(result.erroredQueries, 0u);
}

TEST(ServingSutResilience, DestructorFlushesThenDrains)
{
    // Teardown ordering: the destructor must flush the batcher (held
    // partial batch reaches the workers), drain the pool, then drain
    // the tracker — every issued sample answered exactly once, and no
    // reaper or late worker touches the delegate afterwards.
    sim::RealExecutor ex;
    ScriptedInference inference({}, 0);
    RecordingDelegate delegate;
    {
        ServingOptions options;
        options.maxBatch = 8;
        options.batchTimeoutNs = 10 * kNsPerSec;  // held until flush
        options.workers = 2;
        options.queryDeadlineNs = 10 * kNsPerSec;  // tracker active
        ServingSut sut(ex, inference, options);
        for (uint64_t i = 0; i < 5; ++i)
            sut.issueQuery(makeSamples(1, i), delegate);
    }  // ~ServingSut: flush -> pool shutdown -> tracker drain

    const auto responses = delegate.responses();
    ASSERT_EQ(responses.size(), 5u);
    std::set<loadgen::ResponseId> ids;
    for (const auto &response : responses) {
        EXPECT_TRUE(ids.insert(response.id).second)
            << "duplicate completion for id " << response.id;
        EXPECT_EQ(response.status, loadgen::ResponseStatus::Ok);
    }
}

// ----------------------- concurrent delegate completions (satellite)

/**
 * Inference that fails every 3rd batch with a permanent fault —
 * under 4 worker threads, error-flagged and success responses reach
 * the LoadGen's delegate concurrently and interleaved (TSan-checked).
 */
class EveryThirdFails : public BatchInference
{
  public:
    std::string name() const override { return "every-third-fails"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        if (counter_.fetch_add(1) % 3 == 2)
            throw InferenceFault(FaultKind::Permanent, "every third");
        std::vector<loadgen::QuerySampleResponse> responses;
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok"});
        return responses;
    }

  private:
    std::atomic<uint64_t> counter_{0};
};

TEST(ServingSutResilience, ConcurrentErrorAndSuccessCompletions)
{
    sim::RealExecutor ex;
    EveryThirdFails inference;
    ServingOptions options;
    options.maxBatch = 2;
    options.batchTimeoutNs = kNsPerMs / 4;
    options.workers = 4;
    ServingSut sut(ex, inference, options);
    StubQsl qsl;

    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    settings.serverTargetQps = 2000.0;
    settings.maxQueryCount = 120;  // keep the wall-clock run short
    settings.targetLatencyNs = 100 * kNsPerMs;
    loadgen::LoadGen lg(ex);
    const loadgen::TestResult result = lg.startTest(sut, qsl, settings);
    sut.shutdown();

    EXPECT_EQ(result.droppedQueries, 0u);
    EXPECT_EQ(result.queryCount, 120u);
    EXPECT_GT(result.completedFailed, 0u);
    EXPECT_LT(result.completedFailed, result.sampleCount);
    EXPECT_EQ(result.completedFailed, sut.stats().completedFailed);
    EXPECT_EQ(report::ledgerMismatch(sut.stats(), result), "");
    // Errored queries are visible and poison validity accounting.
    EXPECT_GT(result.erroredQueries, 0u);
    EXPECT_GE(result.overLatencyCount, result.erroredQueries);
}

} // namespace
} // namespace serving
} // namespace mlperf
