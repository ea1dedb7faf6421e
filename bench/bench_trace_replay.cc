/**
 * @file
 * Trace-driven load with SLO autoscaling, plus the coordinated-
 * omission audit demonstrated on a deliberately closed-loop harness.
 *
 * Three studies:
 *  1. Diurnal trace, fixed vs autoscaled: the same seeded diurnal
 *     arrival schedule (rate swinging +/-90% around the mean) is
 *     served by a fixed single-shard runtime and by the SLO
 *     autoscaler (1..4 shards). The fixed config violates the p99
 *     target at the crest of the wave; the autoscaler grows shards
 *     into the crest and holds it, then drains them in the trough.
 *  2. Session-burst trace: the same comparison under heavy-tailed
 *     (Pareto-sized) session bursts instead of a smooth ramp.
 *     Both studies run under ~1% injected chaos (latency spikes,
 *     transient faults, dropped completions, wedged workers) and
 *     assert the runtime contract: zero dropped queries and zero
 *     fast-path lock acquisitions even while shards grow and shrink.
 *  3. Coordinated-omission audit: TEST06 flags a closed-loop harness
 *     (inference blocking the issue thread) whose issue timestamps
 *     drift under backpressure, and passes the open-loop serving
 *     runtime on the same offered load.
 *
 * Inference cost is a per-sample sleep, so capacity genuinely scales
 * with worker count on any host (a busy-wait would not, on a
 * single-core CI box).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "audit/measurement_audit.h"
#include "common/bench_json.h"
#include "common/ledger_gate.h"
#include "common/string_util.h"
#include "loadgen/loadgen.h"
#include "report/serving_report.h"
#include "report/table.h"
#include "serving/chaos.h"
#include "serving/serving_sut.h"
#include "sim/real_executor.h"

using namespace mlperf;

namespace {

// ---- Load shape. One worker at kPerSampleNs serves ~200 qps; the
// diurnal crest (mean * (1 + amplitude)) deliberately exceeds one
// shard's capacity while staying under four shards' worth.
constexpr sim::Tick kPerSampleNs = 5 * sim::kNsPerMs;
constexpr double kMeanQps = 120.0;
constexpr double kDiurnalAmplitude = 0.9;
constexpr sim::Tick kDiurnalPeriodNs = 3 * sim::kNsPerSec;
constexpr uint64_t kQueryCount = 600;
constexpr sim::Tick kSloTargetNs = 60 * sim::kNsPerMs;

/** Sleeps kPerSampleNs per sample: a serial accelerator slice. */
class SleepingBatchInference : public serving::BatchInference
{
  public:
    std::string name() const override { return "sleeper"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            kPerSampleNs * samples.size()));
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok",
                                 loadgen::ResponseStatus::Ok});
        return responses;
    }
};

/**
 * The omission demo's anti-pattern: inference runs synchronously
 * inside issueQuery, so the LoadGen's issue thread (and with it every
 * later scheduled arrival) stalls whenever the SUT is slow — the
 * classic closed-loop harness bug TEST06 exists to catch.
 */
class BlockingInlineSut : public loadgen::SystemUnderTest
{
  public:
    std::string name() const override { return "blocking-inline"; }

    void
    issueQuery(const std::vector<loadgen::QuerySample> &samples,
               loadgen::ResponseDelegate &delegate) override
    {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            kPerSampleNs * samples.size()));
        std::vector<loadgen::QuerySampleResponse> responses;
        for (const auto &sample : samples)
            responses.push_back({sample.id, "ok",
                                 loadgen::ResponseStatus::Ok});
        delegate.querySamplesComplete(responses);
    }

    void flushQueries() override {}
};

loadgen::TestSettings
traceSettings(loadgen::ArrivalPattern pattern)
{
    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    settings.serverTargetQps = kMeanQps;
    settings.serverTrace.pattern = pattern;
    settings.serverTrace.diurnalAmplitude = kDiurnalAmplitude;
    settings.serverTrace.diurnalPeriodNs = kDiurnalPeriodNs;
    settings.serverTrace.sessionMeanSize = 8.0;
    settings.serverTrace.sessionParetoAlpha = 1.5;
    settings.serverTrace.sessionGapNs = 2 * sim::kNsPerMs;
    settings.maxQueryCount = kQueryCount;
    settings.targetLatencyNs = kSloTargetNs;
    settings.recordTimeline = true;
    return settings;
}

serving::ChaosOptions
chaosMix()
{
    // ~1% of batches see some fault; every kind is represented.
    serving::ChaosOptions chaos;
    chaos.latencySpikeProb = 0.005;
    chaos.latencySpikeNs = 20 * sim::kNsPerMs;
    chaos.transientFaultProb = 0.004;
    chaos.dropCompletionProb = 0.003;
    chaos.wedgeProb = 0.002;
    chaos.wedgeNs = 50 * sim::kNsPerMs;
    return chaos;
}

loadgen::QuerySampleLibrary &qsl();

struct RunOutcome
{
    loadgen::TestResult result;
    serving::StatsSnapshot stats;
    uint64_t fastPathLocks = 0;
    bool contractHeld = false;  //!< no drops, no fast-path locks
};

/**
 * One serving run over @p settings under chaos. @p autoscaled picks
 * between the fixed single-shard runtime (1 worker = the same
 * capacity one shard has) and the 1..4-shard autoscaler.
 */
RunOutcome
runServing(const loadgen::TestSettings &settings, bool autoscaled)
{
    SleepingBatchInference sleeper;
    serving::FaultInjectingInference chaotic(sleeper, chaosMix());

    serving::ServingOptions options;
    options.maxBatch = 4;
    options.batchTimeoutNs = sim::kNsPerMs;
    options.mode = serving::WorkerMode::Threads;
    options.queryDeadlineNs = 250 * sim::kNsPerMs;
    options.retry.maxAttempts = 2;
    if (autoscaled) {
        options.workers = 4;  // 1 per shard at the 4-shard ceiling
        options.shards = 1;   // start at the trough's footprint
        options.autoscale.enabled = true;
        options.autoscale.minShards = 1;
        options.autoscale.maxShards = 4;
        // Scale out on a tighter internal target than the external
        // SLO so shards are up before the budget is actually spent,
        // and react fast: a diurnal crest ramps in ~750 ms.
        options.autoscale.sloTargetNs = kSloTargetNs / 2;
        options.autoscale.intervalNs = 10 * sim::kNsPerMs;
        options.autoscale.ewmaAlpha = 0.5;
        options.autoscale.growThreshold = 0.02;
        options.autoscale.shrinkThreshold = 0.005;
        options.autoscale.shrinkHoldIntervals = 20;
    } else {
        options.workers = 1;
        options.shards = 1;
    }

    sim::RealExecutor executor;
    serving::ServingSut sut(executor, chaotic, options);
    loadgen::LoadGen lg(executor);

    RunOutcome out;
    out.result = lg.startTest(sut, qsl(), settings);
    sut.shutdown();
    out.stats = sut.stats();
    if (sut.shardedPool() != nullptr)
        out.fastPathLocks = sut.shardedPool()->fastPathLockAcquisitions();
    out.contractHeld =
        out.result.droppedQueries == 0 && out.fastPathLocks == 0;
    return out;
}

loadgen::QuerySampleLibrary &
qsl()
{
    class SyntheticQsl : public loadgen::QuerySampleLibrary
    {
      public:
        std::string name() const override { return "synthetic-qsl"; }
        uint64_t totalSampleCount() const override { return 4096; }
        uint64_t
        performanceSampleCount() const override
        {
            return 1024;
        }
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
    static SyntheticQsl instance;
    return instance;
}

double
ms(uint64_t ns)
{
    return static_cast<double>(ns) /
           static_cast<double>(sim::kNsPerMs);
}

std::string
outcomeJson(const char *key, const RunOutcome &out)
{
    std::string json = strprintf(
        "\"%s\":{\"p99_ms\":%.3f,\"corrected_p99_ms\":%.3f,"
        "\"valid\":%s,\"over_latency_fraction\":%.4f,"
        "\"slo_violation_rate\":%.4f,\"shed_rate\":%.4f,"
        "\"scale_ups\":%llu,\"scale_downs\":%llu,"
        "\"active_shards\":%lld,\"dropped_queries\":%llu,"
        "\"fast_path_locks\":%llu,\"contract_held\":%s,"
        "\"stats\":",
        key, ms(out.result.latency.p99),
        ms(out.result.correctedTailLatencyNs),
        out.result.valid ? "true" : "false",
        out.result.overLatencyFraction,
        out.stats.sloViolationRate(), out.stats.shedRate(),
        static_cast<unsigned long long>(out.stats.scaleUps),
        static_cast<unsigned long long>(out.stats.scaleDowns),
        static_cast<long long>(out.stats.activeShards),
        static_cast<unsigned long long>(out.result.droppedQueries),
        static_cast<unsigned long long>(out.fastPathLocks),
        out.contractHeld ? "true" : "false");
    json += report::servingSnapshotJson(out.stats,
                                        out.result.durationNs,
                                        &out.result);
    json += "}";
    return json;
}

} // namespace

int
main()
{
    std::printf("%s",
                report::banner("Trace-driven load: diurnal + session "
                               "bursts, fixed vs SLO-autoscaled "
                               "shards, ~1% chaos")
                    .c_str());

    bool all_contracts_held = true;
    bool ledger_ok = true;
    // The host's CPU count: the autoscaled runs' 4 workers only run
    // in parallel where there are 4 CPUs to run them on.
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    std::string json = strprintf(
        "{\"benchmark\":\"trace_replay\",\"cpus\":%u,"
        "\"mean_qps\":%.1f,\"per_sample_ms\":%.1f,"
        "\"slo_target_ms\":%.1f,",
        cpus, kMeanQps, ms(kPerSampleNs), ms(kSloTargetNs));

    report::Table table({"Trace", "Config", "p99 (ms)",
                         "corrected p99 (ms)", "SLO viol.", "Shed",
                         "Ups", "Downs", "Valid"});
    const struct
    {
        const char *name;
        loadgen::ArrivalPattern pattern;
    } traces[] = {
        {"diurnal", loadgen::ArrivalPattern::Diurnal},
        {"sessions", loadgen::ArrivalPattern::SessionBurst},
    };
    bool first_trace = true;
    for (const auto &trace : traces) {
        const loadgen::TestSettings settings =
            traceSettings(trace.pattern);
        const RunOutcome fixed = runServing(settings, false);
        const RunOutcome scaled = runServing(settings, true);
        all_contracts_held = all_contracts_held &&
                             fixed.contractHeld && scaled.contractHeld;

        for (const auto *run : {&fixed, &scaled}) {
            const char *config = run == &fixed ? "fixed-1" : "auto-1..4";
            ledger_ok = bench::ledgerHolds(
                            strprintf("%s %s", trace.name, config),
                            run->stats, run->result) &&
                        ledger_ok;
            table.addRow(
                {trace.name, config,
                 report::fmt(ms(run->result.latency.p99), 2),
                 report::fmt(ms(run->result.correctedTailLatencyNs),
                             2),
                 strprintf("%.2f%%",
                           100.0 * run->stats.sloViolationRate()),
                 strprintf("%.2f%%", 100.0 * run->stats.shedRate()),
                 withThousands(run->stats.scaleUps),
                 withThousands(run->stats.scaleDowns),
                 run->result.valid ? "yes" : "NO"});
        }
        json += strprintf("%s\"%s\":{", first_trace ? "" : ",",
                          trace.name);
        json += outcomeJson("fixed", fixed) + ",";
        json += outcomeJson("autoscaled", scaled) + "}";
        first_trace = false;
    }
    std::printf("%s", table.str().c_str());

    // ---------------------------------- coordinated-omission audit
    // The same offered load (Poisson at 1.5x one worker's capacity),
    // once through the closed-loop inline SUT and once through the
    // open-loop serving runtime. TEST06 must flag the former (issue
    // timestamps drift behind schedule; the issued-referenced tail
    // hides the queueing) and clear the latter.
    loadgen::TestSettings audit_settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    audit_settings.serverTargetQps = 300.0;
    audit_settings.maxQueryCount = 200;
    audit_settings.targetLatencyNs = sim::kNsPerSec;

    const audit::AuditVerdict closed_verdict =
        audit::coordinatedOmissionTest(
            [](const loadgen::TestSettings &settings) {
                sim::RealExecutor executor;
                BlockingInlineSut sut;
                loadgen::LoadGen lg(executor);
                return lg.startTest(sut, qsl(), settings);
            },
            audit_settings);
    const audit::AuditVerdict open_verdict =
        audit::coordinatedOmissionTest(
            [&ledger_ok](const loadgen::TestSettings &settings) {
                SleepingBatchInference sleeper;
                sim::RealExecutor executor;
                serving::ServingOptions options;
                options.workers = 4;
                options.maxBatch = 4;
                options.batchTimeoutNs = sim::kNsPerMs;
                options.mode = serving::WorkerMode::Threads;
                serving::ServingSut sut(executor, sleeper, options);
                loadgen::LoadGen lg(executor);
                auto result = lg.startTest(sut, qsl(), settings);
                sut.shutdown();
                ledger_ok = bench::ledgerHolds("omission audit",
                                               sut.stats(), result) &&
                            ledger_ok;
                return result;
            },
            audit_settings);

    std::printf("\nCoordinated-omission audit (TEST06)\n"
                "  closed-loop inline SUT: %s (want FLAG) — %s\n"
                "  open-loop serving SUT : %s (want PASS) — %s\n",
                closed_verdict.pass ? "PASS" : "FLAGGED",
                closed_verdict.detail.c_str(),
                open_verdict.pass ? "PASS" : "FLAGGED",
                open_verdict.detail.c_str());

    const bool audit_discriminates =
        !closed_verdict.pass && open_verdict.pass;
    json += strprintf(
        ",\"omission_audit\":{\"closed_loop_flagged\":%s,"
        "\"open_loop_passed\":%s,\"discriminates\":%s}",
        closed_verdict.pass ? "false" : "true",
        open_verdict.pass ? "true" : "false",
        audit_discriminates ? "true" : "false");
    json += strprintf(",\"contracts_held\":%s}",
                      all_contracts_held ? "true" : "false");

    std::printf(
        "\nRuntime contract under scaling + chaos: %s (zero dropped "
        "queries, zero fast-path lock acquisitions)\n",
        all_contracts_held ? "HELD" : "VIOLATED");

    bench::writeBenchJson(json, "BENCH_trace.json");
    return (all_contracts_held && audit_discriminates && ledger_ok) ? 0
                                                                    : 1;
}
