/**
 * @file
 * Run results, validity determination, and the results summary.
 *
 * The LoadGen "reports statistics, summarizes the results, and
 * determines whether the run was valid" (Sec. IV-B). Validity folds
 * together the run-length floors of Sec. III-D and the scenario's
 * latency constraint of Sec. III-C.
 */

#ifndef MLPERF_LOADGEN_RESULTS_H
#define MLPERF_LOADGEN_RESULTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/test_settings.h"
#include "loadgen/types.h"
#include "sim/executor.h"
#include "stats/percentile.h"

namespace mlperf {
namespace loadgen {

/** Issue/completion record for one query (Figure 4 traces). */
struct QueryTiming
{
    sim::Tick scheduled = 0;  //!< when the scenario wanted to issue it
    sim::Tick issued = 0;     //!< when it was actually issued
    sim::Tick completed = 0;  //!< when its last sample completed
};

/** Accuracy-mode log entry: which sample produced which result. */
struct AccuracyRecord
{
    QuerySampleIndex sampleIndex = 0;
    std::string data;
};

struct TestResult
{
    std::string sutName;
    std::string qslName;
    Scenario scenario = Scenario::SingleStream;
    TestMode mode = TestMode::PerformanceOnly;

    uint64_t queryCount = 0;
    uint64_t sampleCount = 0;
    /** Issued queries that never fully completed (must be 0). */
    uint64_t droppedQueries = 0;
    sim::Tick durationNs = 0;       //!< first issue to last completion

    stats::LatencySummary latency;  //!< per-query latency statistics
    uint64_t tailLatencyNs = 0;     //!< latency at settings percentile

    // ---- Measurement-honesty accounting (see src/audit's
    //      coordinated-omission detector). The server scenario's
    //      official latency is measured from the *scheduled* arrival
    //      tick, so a stalled issue path cannot hide queueing delay;
    //      the issued-referenced tail is what an omission-blind
    //      harness would report, and the drift between the two issue
    //      timestamps is the omission signal itself.
    /** Tail of (completed - scheduled) at the settings percentile. */
    uint64_t correctedTailLatencyNs = 0;
    /** Tail of (completed - issued) at the settings percentile. */
    uint64_t issuedTailLatencyNs = 0;
    /** Largest issued - scheduled gap over completed queries. */
    uint64_t maxIssueDriftNs = 0;
    /** Mean issued - scheduled gap over completed queries. */
    uint64_t meanIssueDriftNs = 0;

    // ---- Scenario metrics.
    double completedQps = 0.0;      //!< samples per second completed
    double scheduledQps = 0.0;      //!< server: the Poisson parameter
    uint64_t samplesPerQuery = 1;   //!< multistream N

    // ---- TokenStream scenario (autoregressive streaming).
    //      TTFT is measured from the *scheduled* arrival, like the
    //      server scenario's corrected latency, so queueing delay in
    //      front of the decoder is charged to the SUT. TPOT is the
    //      mean inter-token gap of one response,
    //      (completed - firstToken) / (tokens - 1).
    stats::LatencySummary ttft;     //!< time-to-first-token stats
    stats::LatencySummary tpot;     //!< per-output-token stats
    uint64_t ttftTailNs = 0;        //!< TTFT at settings percentile
    uint64_t tpotTailNs = 0;        //!< TPOT at settings percentile
    uint64_t totalTokens = 0;       //!< output tokens across samples
    double tokensPerSecond = 0.0;   //!< the scenario's headline metric

    // ---- Latency-constraint accounting.
    uint64_t overLatencyCount = 0;
    double overLatencyFraction = 0.0;
    /** Multistream: queries whose processing spilled past >=1 interval. */
    uint64_t queriesWithSkippedIntervals = 0;

    // ---- Fault accounting (ResponseStatus of completed samples).
    // A fault-tolerant SUT completes every sample even when it cannot
    // serve it; these counters make the failure modes visible in the
    // report instead of hiding them as fast empty answers or hanging
    // the run. Queries containing any error-status sample count as
    // over-latency in validity determination.
    uint64_t completedDegraded = 0;  //!< served by a fallback path
    uint64_t completedShed = 0;      //!< rejected by admission/backpressure
    uint64_t completedTimeout = 0;   //!< deadline-reaped
    uint64_t completedFailed = 0;    //!< inference faults
    /** Queries with >= 1 error-status sample. */
    uint64_t erroredQueries = 0;

    uint64_t
    errorSamples() const
    {
        return completedShed + completedTimeout + completedFailed;
    }

    // ---- Validity determination.
    bool minQueriesMet = false;
    bool minDurationMet = false;
    bool latencyBoundMet = false;
    bool valid = false;

    // ---- Optional artifacts.
    std::vector<QueryTiming> timeline;        //!< when recordTimeline
    std::vector<AccuracyRecord> accuracyLog;  //!< accuracy mode

    /**
     * The scenario's headline metric (Table II): 90th-percentile
     * latency in ns (single-stream), number of streams (multistream),
     * scheduled QPS (server), samples/s throughput (offline), or
     * sustained output tokens/s (token-stream).
     */
    double scenarioMetric() const;

    /** Human-readable metric label matching scenarioMetric(). */
    std::string scenarioMetricLabel() const;

    /** mlperf_log_summary.txt-style report. */
    std::string summary() const;

    /**
     * mlperf_log_detail-style CSV of the recorded timeline (one row
     * per query: index, scheduled, issued, completed, latency in ns).
     * Empty unless the run used recordTimeline.
     */
    std::string timelineCsv() const;
};

/** Compute validity flags from the raw counters (exposed for tests). */
void determineValidity(TestResult &result, const TestSettings &settings);

} // namespace loadgen
} // namespace mlperf

#endif // MLPERF_LOADGEN_RESULTS_H
