/**
 * @file
 * Instrumentation for every stage of the serving runtime.
 *
 * The sample ledger holds one terminal status per issued sample,
 * recorded once by recordTerminal() (DESIGN.md, "One sample ledger");
 * every other counter says where something happened. All record
 * methods are thread-safe; thread workers call them concurrently.
 *
 * Concurrency design: every monotonic counter is a relaxed atomic —
 * no invariant spans two fields, and snapshot() tolerates a torn
 * cross-field read (counts may disagree by the handful of events in
 * flight at the instant of the copy; they are exact once the runtime
 * is quiescent, which is when verdicts are read). The counters are
 * grouped by writer into cache-line-aligned blocks so the issue
 * thread, the worker side, and the resilience layer never
 * false-share a line. Only the histograms stay behind mutexes, one
 * per writer side; in the threaded runtime those are touched by the
 * drain role's holder (one worker at a time, off the fast path) and
 * the issue thread only.
 */

#ifndef MLPERF_SERVING_SERVING_STATS_H
#define MLPERF_SERVING_SERVING_STATS_H

#include <atomic>
#include <cstdint>
#include <mutex>

#include "serving/batch.h"
#include "sim/executor.h"
#include "stats/histogram.h"

namespace mlperf {
namespace serving {

/** Circuit-breaker state, exported as a gauge in StatsSnapshot. */
enum class BreakerState : uint8_t
{
    Closed,    //!< normal operation
    Open,      //!< fast-failing until the cooldown elapses
    HalfOpen,  //!< letting limited probes through
};

/** Point-in-time copy of all serving-runtime counters. */
struct StatsSnapshot
{
    uint64_t samplesIssued = 0;     //!< handed to issueQuery
    uint64_t samplesShed = 0;       //!< fast-failed by a full queue

    uint64_t batchesFormed = 0;
    uint64_t batchesCompleted = 0;
    uint64_t batchesShed = 0;
    uint64_t sizeFlushes = 0;     //!< batches closed by max size
    uint64_t timeoutFlushes = 0;  //!< batches closed by the deadline
    uint64_t drainFlushes = 0;    //!< batches closed by flush()
    uint64_t demandFlushes = 0;   //!< partial batches a worker started

    // ---- Resilience counters (0 unless the features are enabled).
    uint64_t admissionShedSamples = 0;  //!< rejected at issueQuery
    uint64_t expiredSamples = 0;    //!< deadline passed before dispatch
    uint64_t droppedCompletions = 0;  //!< responses lost by the worker
    uint64_t batchesFailed = 0;     //!< batches ending in a fault

    uint64_t retries = 0;           //!< retry attempts issued
    uint64_t retrySuccesses = 0;    //!< batches saved by a retry
    uint64_t retriesExhausted = 0;  //!< batches failing every attempt

    uint64_t breakerOpens = 0;
    uint64_t breakerHalfOpens = 0;
    uint64_t breakerCloses = 0;
    uint64_t breakerFastFailSamples = 0;
    BreakerState breakerState = BreakerState::Closed;

    uint64_t degradeEntries = 0;    //!< shed-rate monitor engagements
    uint64_t degradeExits = 0;

    // ---- The sample ledger: each issued sample's terminal status,
    //      counted once (ServingStats::recordTerminal).
    uint64_t completedOk = 0;
    uint64_t completedDegraded = 0;
    uint64_t completedShed = 0;
    uint64_t completedTimeout = 0;
    uint64_t completedFailed = 0;

    int64_t workers = 0;        //!< pool size (for utilization)
    uint64_t workerBusyNs = 0;  //!< busy time summed over workers

    // ---- SLO accounting and autoscaling (sharded runtime only;
    //      zeros when no SLO target / autoscaler is configured).
    uint64_t sloSamples = 0;     //!< completions judged against the SLO
    uint64_t sloViolations = 0;  //!< of those, over target (or errored)
    uint64_t scaleUps = 0;       //!< shards activated by the autoscaler
    uint64_t scaleDowns = 0;     //!< shards drained by the autoscaler
    int64_t activeShards = 0;    //!< live shard gauge (0 = unsharded)

    stats::LogHistogram queueDepth{1, 1 << 20, 64};
    stats::LogHistogram batchSize{1, 1 << 20, 64};
    stats::LogHistogram timeInQueueNs;  //!< enqueue -> worker start
    stats::LogHistogram serviceTimeNs;  //!< worker start -> done

    /** Samples with a terminal status: the ledger's sum. */
    uint64_t
    terminalSamples() const
    {
        return completedOk + completedDegraded + completedShed +
               completedTimeout + completedFailed;
    }

    /** Mean size of the batches the batcher formed. */
    double averageBatchSize() const { return batchSize.mean(); }

    /** Busy fraction of the pool over @p elapsed ns of run time. */
    double
    utilization(sim::Tick elapsedNs) const
    {
        if (workers <= 0 || elapsedNs == 0)
            return 0.0;
        return static_cast<double>(workerBusyNs) /
               (static_cast<double>(workers) *
                static_cast<double>(elapsedNs));
    }

    /**
     * Fraction of issued samples rejected without service — by
     * admission control, queue backpressure, or dispatch-time
     * deadline expiry. The overload health signal driving graceful
     * degradation.
     */
    double
    shedRate() const
    {
        if (samplesIssued == 0)
            return 0.0;
        return static_cast<double>(admissionShedSamples + samplesShed +
                                   expiredSamples) /
               static_cast<double>(samplesIssued);
    }

    /** Fraction of SLO-judged completions that missed the target. */
    double
    sloViolationRate() const
    {
        if (sloSamples == 0)
            return 0.0;
        return static_cast<double>(sloViolations) /
               static_cast<double>(sloSamples);
    }
};

class ServingStats
{
  public:
    /** Samples arrived at issueQuery; @p depth = batcher+queue load. */
    void recordIssued(uint64_t samples, uint64_t depth);

    /** The batcher emitted @p batch (before queue admission). */
    void recordBatchFormed(const Batch &batch);

    /**
     * A worker picked @p batch up at @p now. In the threaded runtime
     * the drain role's holder replays this off the ring with the
     * recorded dispatch tick, so the histogram sees identical values.
     */
    void recordDispatch(const Batch &batch, sim::Tick now);

    /** A worker finished a batch after @p busyNs. */
    void recordBatchDone(sim::Tick busyNs);

    /** Backpressure rejected a whole batch of @p samples. */
    void recordShed(uint64_t samples);

    // ---- Resilience events.
    /** Admission control rejected @p samples at issueQuery. */
    void recordAdmissionShed(uint64_t samples);
    /** @p samples expired in queue; shed at dispatch. */
    void recordExpired(uint64_t samples);
    /** A worker dropped the completion of @p samples (chaos). */
    void recordDroppedCompletion(uint64_t samples);
    /** A batch failed after @p busyNs of worker time. */
    void recordBatchFailed(sim::Tick busyNs);
    void recordRetry();
    void recordRetrySuccess();
    void recordRetriesExhausted();
    void recordBreakerTransition(BreakerState state);
    void recordBreakerFastFail(uint64_t samples);
    void recordDegradeMode(bool entered);

    /**
     * The ledger: @p responses leave the runtime, their statuses final.
     * Called before delivery by the one hop that answers each sample.
     */
    void recordTerminal(
        const std::vector<loadgen::QuerySampleResponse> &responses);

    void setWorkers(int64_t workers);

    // ---- SLO / autoscaling events (sharded runtime).
    /** @p samples were judged against the SLO; @p violations missed. */
    void recordSloOutcome(uint64_t samples, uint64_t violations);
    /** The autoscaler activated (@p up) or drained a shard. */
    void recordScaleEvent(bool up);
    void setActiveShards(int64_t shards);

    StatsSnapshot snapshot() const;

  private:
    using Counter = std::atomic<uint64_t>;

    /** Written by the issue thread and batcher emit callbacks (a
     *  worker's demand pull emits on the worker). */
    struct alignas(64) IssueCounters
    {
        Counter samplesIssued{0};
        Counter batchesFormed{0};
        Counter sizeFlushes{0};
        Counter timeoutFlushes{0};
        Counter drainFlushes{0};
        Counter demandFlushes{0};
        Counter admissionShedSamples{0};
        Counter samplesShed{0};
        Counter batchesShed{0};
    };

    /** Written by workers, the drain role's holder or the tracker;
     *  the ledger is indexed by ResponseStatus. */
    struct alignas(64) CompletionCounters
    {
        Counter batchesCompleted{0};
        Counter workerBusyNs{0};
        Counter expiredSamples{0};
        Counter droppedCompletions{0};
        Counter batchesFailed{0};
        Counter terminal[5] = {};  //!< Ok .. Failed
    };

    /** Written by the resilience layer (retry/breaker/degrade). */
    struct alignas(64) ResilienceCounters
    {
        Counter retries{0};
        Counter retrySuccesses{0};
        Counter retriesExhausted{0};
        Counter breakerOpens{0};
        Counter breakerHalfOpens{0};
        Counter breakerCloses{0};
        Counter breakerFastFailSamples{0};
        Counter degradeEntries{0};
        Counter degradeExits{0};
        std::atomic<BreakerState> breakerState{BreakerState::Closed};
    };

    /**
     * SLO outcomes (written by the drain role's holder alongside the
     * completion counters) and scale events (written by the autoscaler's
     * controller thread, a few times per second at most — the shared
     * line costs nothing at that rate).
     */
    struct alignas(64) ScaleCounters
    {
        Counter sloSamples{0};
        Counter sloViolations{0};
        Counter scaleUps{0};
        Counter scaleDowns{0};
        std::atomic<int64_t> activeShards{0};
    };

    IssueCounters issue_;
    CompletionCounters done_;
    ResilienceCounters resilience_;
    ScaleCounters scale_;
    alignas(64) std::atomic<int64_t> workers_{0};

    // Histograms are the one piece that cannot be a single atomic;
    // each side keeps its own mutex so the issue thread (queue depth,
    // batch size) never contends with the completion side (time in
    // queue, service time).
    mutable std::mutex issueHistMutex_;
    stats::LogHistogram queueDepth_{1, 1 << 20, 64};
    stats::LogHistogram batchSize_{1, 1 << 20, 64};
    mutable std::mutex doneHistMutex_;
    stats::LogHistogram timeInQueueNs_;
    stats::LogHistogram serviceTimeNs_;
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_SERVING_STATS_H
