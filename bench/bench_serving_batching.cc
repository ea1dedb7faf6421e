/**
 * @file
 * Ablation: the concurrent serving runtime vs. the inline SUT on the
 * real classifier, under the wall-clock executor. The inline
 * ClassifierSut runs inference synchronously inside issueQuery, so
 * the LoadGen's issue thread serializes every sample; ServingSut
 * moves compute onto a worker pool behind a dynamic batcher. The
 * sweep varies worker count and batch cap at a fixed Poisson load
 * and reports achieved throughput and p99 latency, plus the serving
 * runtime's own queue/batch statistics as JSON for downstream
 * plotting.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.h"
#include "common/ledger_gate.h"
#include "common/string_util.h"
#include "loadgen/loadgen.h"
#include "report/serving_report.h"
#include "report/table.h"
#include "serving/chaos.h"
#include "serving/serving_sut.h"
#include "sim/real_executor.h"
#include "sut/nn_sut.h"
#include "sut/serving_adapters.h"

using namespace mlperf;

namespace {

constexpr uint64_t kQueryCount = 128;

loadgen::TestSettings
serverSettings(double qps)
{
    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    settings.serverTargetQps = qps;
    settings.maxQueryCount = kQueryCount;
    // The ablation compares p99 directly; keep the pass/fail bound
    // out of the way so overloaded configs still report numbers.
    settings.targetLatencyNs = sim::kNsPerSec;
    return settings;
}

/** Timed batches the offered load is calibrated from. */
constexpr size_t kCalibrationBatches = 9;

/**
 * Wall-clock seconds per sample of the inline classifier: the median
 * of kCalibrationBatches timed 16-sample batches. One timed batch
 * moved the offered load 3.5x across runs on a shared host.
 */
double
measureSampleSeconds(serving::BatchInference &inference,
                     sut::ClassificationQsl &qsl)
{
    std::vector<loadgen::QuerySampleIndex> indices;
    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < 16; ++i) {
        indices.push_back(i);
        samples.push_back({i, i});
    }
    qsl.loadSamplesToRam(indices);
    inference.runBatch(samples);  // warm caches before timing
    std::vector<double> seconds;
    for (size_t rep = 0; rep < kCalibrationBatches; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        inference.runBatch(samples);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        seconds.push_back(elapsed.count());
    }
    qsl.unloadSamplesFromRam(indices);
    std::nth_element(seconds.begin(),
                     seconds.begin() + kCalibrationBatches / 2,
                     seconds.end());
    return seconds[kCalibrationBatches / 2] /
           static_cast<double>(samples.size());
}

struct RunNumbers
{
    double achievedQps = 0.0;
    double p99Ms = 0.0;
    bool valid = false;
};

RunNumbers
numbersFrom(const loadgen::TestResult &result)
{
    RunNumbers n;
    n.achievedQps = result.completedQps;
    n.p99Ms = static_cast<double>(result.latency.p99) /
              static_cast<double>(sim::kNsPerMs);
    n.valid = result.valid;
    return n;
}

} // namespace

int
main()
{
    std::printf("%s", report::banner(
        "Serving runtime vs. inline SUT: worker pool + dynamic "
        "batcher ablation (real classifier)").c_str());

    data::ClassificationConfig cfg;
    cfg.samplesPerClass = 2;  // 80 samples keeps model setup fast
    data::ClassificationDataset dataset(cfg);
    models::ImageClassifier model =
        models::ImageClassifier::resnet50Proxy(dataset);
    sut::ClassificationQsl qsl(dataset, 64);
    sut::ClassifierBatchInference inference(model, qsl);

    // Fix the offered load at ~1.5x one inline worker's capacity:
    // the inline SUT saturates while a multi-worker pool keeps up.
    const double sample_s = measureSampleSeconds(inference, qsl);
    const double qps = 1.5 / sample_s;
    std::printf("Measured inline cost: %.2f ms/sample -> offered "
                "load %.0f qps, %llu queries per run\n\n",
                sample_s * 1e3, qps,
                static_cast<unsigned long long>(kQueryCount));

    std::string json = "{\"benchmark\":\"serving_batching\",";
    json += strprintf("\"offered_qps\":%.2f,", qps);

    // Baseline: synchronous inference inside issueQuery.
    {
        sim::RealExecutor executor;
        sut::ClassifierSut inline_sut(model, qsl);
        loadgen::LoadGen lg(executor);
        const loadgen::TestResult result =
            lg.startTest(inline_sut, qsl, serverSettings(qps));
        const RunNumbers n = numbersFrom(result);
        std::printf("Inline ClassifierSut:  %7.1f qps achieved, "
                    "p99 %7.2f ms\n\n", n.achievedQps, n.p99Ms);
        json += strprintf(
            "\"inline\":{\"achieved_qps\":%.2f,\"p99_ms\":%.3f,"
            "\"valid\":%s},\"serving\":[",
            n.achievedQps, n.p99Ms, n.valid ? "true" : "false");
    }

    report::Table table({"Workers", "Max batch", "Achieved QPS",
                         "p99 (ms)", "Avg batch", "Shed"});
    bool first = true;
    bool ledger_ok = true;
    for (int64_t workers : {1, 2, 4}) {
        for (int64_t max_batch : {1, 4, 8}) {
            sim::RealExecutor executor;
            serving::ServingOptions options;
            options.workers = workers;
            options.maxBatch = max_batch;
            options.batchTimeoutNs = 2 * sim::kNsPerMs;
            serving::ServingSut sut(executor, inference, options);
            loadgen::LoadGen lg(executor);
            const loadgen::TestResult result =
                lg.startTest(sut, qsl, serverSettings(qps));
            sut.shutdown();

            const RunNumbers n = numbersFrom(result);
            const serving::StatsSnapshot stats = sut.stats();
            ledger_ok = bench::ledgerHolds(
                            strprintf("%lld workers x batch %lld",
                                      static_cast<long long>(workers),
                                      static_cast<long long>(max_batch)),
                            stats, result) &&
                        ledger_ok;
            table.addRow({withThousands(workers),
                          withThousands(max_batch),
                          report::fmt(n.achievedQps, 1),
                          report::fmt(n.p99Ms, 2),
                          report::fmt(stats.averageBatchSize(), 2),
                          withThousands(stats.samplesShed)});
            if (!first)
                json += ",";
            first = false;
            json += strprintf(
                "{\"workers\":%lld,\"max_batch\":%lld,"
                "\"achieved_qps\":%.2f,\"p99_ms\":%.3f,\"valid\":%s,"
                "\"stats\":",
                static_cast<long long>(workers),
                static_cast<long long>(max_batch), n.achievedQps,
                n.p99Ms, n.valid ? "true" : "false");
            json += report::servingSnapshotJson(stats,
                                                result.durationNs);
            json += "}";
        }
    }
    json += "]";

    // Chaos scenario: the best sweep config re-run with 1% injected
    // latency spikes, fronted by the resilience layer (per-query
    // deadline + one retry). Tail latency and shed-rate under a known
    // fault rate are the numbers a resilient config is judged on.
    {
        serving::ChaosOptions chaos_options;
        chaos_options.latencySpikeProb = 0.01;
        chaos_options.latencySpikeNs = 20 * sim::kNsPerMs;
        serving::FaultInjectingInference chaotic(inference,
                                                 chaos_options);
        sim::RealExecutor executor;
        serving::ServingOptions options;
        options.workers = 4;
        options.maxBatch = 8;
        options.batchTimeoutNs = 2 * sim::kNsPerMs;
        options.queryDeadlineNs = 500 * sim::kNsPerMs;
        options.retry.maxAttempts = 2;
        serving::ServingSut sut(executor, chaotic, options);
        loadgen::LoadGen lg(executor);
        const loadgen::TestResult result =
            lg.startTest(sut, qsl, serverSettings(qps));
        sut.shutdown();

        const RunNumbers n = numbersFrom(result);
        const serving::StatsSnapshot stats = sut.stats();
        ledger_ok = bench::ledgerHolds("chaos", stats, result) && ledger_ok;
        const serving::ChaosCounters chaos = chaotic.counters();
        std::printf("\nChaos (1%% latency spikes, 4 workers x batch "
                    "8): %7.1f qps achieved, p99 %7.2f ms,\n"
                    "  shed-rate %.2f%%, %llu spike(s) injected, "
                    "%llu sample(s) timed out\n",
                    n.achievedQps, n.p99Ms, 100.0 * stats.shedRate(),
                    static_cast<unsigned long long>(
                        chaos.latencySpikes),
                    static_cast<unsigned long long>(
                        stats.completedTimeout));
        json += strprintf(
            ",\"chaos\":{\"latency_spike_prob\":%.3f,"
            "\"spike_ms\":%.1f,\"achieved_qps\":%.2f,"
            "\"p99_ms\":%.3f,\"shed_rate\":%.5f,"
            "\"spikes_injected\":%llu,\"valid\":%s,\"stats\":",
            chaos_options.latencySpikeProb,
            static_cast<double>(chaos_options.latencySpikeNs) /
                static_cast<double>(sim::kNsPerMs),
            n.achievedQps, n.p99Ms, stats.shedRate(),
            static_cast<unsigned long long>(chaos.latencySpikes),
            n.valid ? "true" : "false");
        json += report::servingSnapshotJson(stats, result.durationNs);
        json += "}";
    }

    // Shard sweep: the sharded runtime (per-shard batcher/queue/
    // workers + lock-free completion rings) against the single-shard
    // baseline, on a synthetic busy-wait inference so the axis
    // measures pure scheduler behaviour, not model compute. Two runs
    // per shard count: a saturation run (offered load far above
    // capacity; achieved qps = drain rate) and a fixed-load run at
    // half the single-shard saturation rate for tail latency.
    // Scaling efficiency is reported against the single-shard
    // baseline and is honest about the host: on a single-CPU
    // container the busy-wait workers serialize, so efficiency ~1/N
    // is the expected reading there, while the lock counters prove
    // the coordination costs sharding is designed to remove.
    {
        constexpr sim::Tick kSpinNsPerSample = 100 * 1000;  // 100 us
        constexpr uint64_t kShardQueries = 256;
        constexpr int64_t kTotalWorkers = 4;
        sut::SyntheticBatchInference synthetic(kSpinNsPerSample);

        // Busy-wait workers measure scheduler behaviour only when
        // each shard's workers can actually run in parallel. Cap the
        // sweep at the host's CPU count and record it in the JSON so
        // a sub-1.0 scaling reading on a small container is
        // attributable to oversubscription, not a sharding
        // regression.
        const int64_t cpus = static_cast<int64_t>(
            std::max(1u, std::thread::hardware_concurrency()));
        std::vector<int64_t> shard_counts{1};
        for (int64_t candidate : {int64_t{2}, int64_t{4}}) {
            if (candidate <= cpus)
                shard_counts.push_back(candidate);
        }

        const double capacityQps =
            static_cast<double>(kTotalWorkers) *
            (static_cast<double>(sim::kNsPerSec) /
             static_cast<double>(kSpinNsPerSample));

        report::Table shard_table(
            {"Shards", "Saturated QPS", "Scaling", "p99 (ms) @ half",
             "Steals", "Ring fallbacks", "Fast-path locks"});
        json += strprintf(",\"cpus\":%lld,\"shard_sweep\":[",
                          static_cast<long long>(cpus));
        double shard1Qps = 0.0;
        bool first_shard = true;
        for (int64_t shards : shard_counts) {
            const auto run = [&](double target_qps) {
                sim::RealExecutor executor;
                serving::ServingOptions options;
                options.workers = kTotalWorkers;
                options.shards = shards;
                options.maxBatch = 1;      // per-sample: scheduler load
                options.batchTimeoutNs = 0;
                options.queueCapacityBatches = 0;  // measure drain rate
                serving::ServingSut sut(executor, synthetic, options);
                loadgen::LoadGen lg(executor);
                loadgen::TestSettings settings =
                    serverSettings(target_qps);
                settings.maxQueryCount = kShardQueries;
                const loadgen::TestResult result =
                    lg.startTest(sut, qsl, settings);
                sut.shutdown();
                ledger_ok = bench::ledgerHolds(
                                strprintf("%lld shard(s) at %.0f qps",
                                          static_cast<long long>(shards),
                                          target_qps),
                                sut.stats(), result) &&
                            ledger_ok;
                struct
                {
                    RunNumbers n;
                    uint64_t steals = 0;
                    uint64_t ringFallbacks = 0;
                    uint64_t fastPathLocks = 0;
                } out;
                out.n = numbersFrom(result);
                if (serving::ShardedWorkerPool *pool =
                        sut.shardedPool()) {
                    out.steals = pool->steals();
                    out.ringFallbacks = pool->ringFallbacks();
                    out.fastPathLocks =
                        pool->fastPathLockAcquisitions();
                }
                return out;
            };

            // Saturation: offer 2x theoretical capacity.
            const auto saturated = run(2.0 * capacityQps);
            if (shards == 1)
                shard1Qps = saturated.n.achievedQps;
            const double scaling =
                shard1Qps > 0.0 ? saturated.n.achievedQps / shard1Qps
                                : 0.0;
            // Tail latency at a load every config can carry.
            const auto half = run(0.5 * shard1Qps);

            shard_table.addRow(
                {withThousands(shards),
                 report::fmt(saturated.n.achievedQps, 1),
                 report::fmt(scaling, 2), report::fmt(half.n.p99Ms, 2),
                 withThousands(saturated.steals + half.steals),
                 withThousands(saturated.ringFallbacks +
                               half.ringFallbacks),
                 withThousands(saturated.fastPathLocks +
                               half.fastPathLocks)});
            if (!first_shard)
                json += ",";
            first_shard = false;
            json += strprintf(
                "{\"shards\":%lld,\"workers\":%lld,"
                "\"oversubscribed\":%s,"
                "\"saturated_qps\":%.2f,\"scaling_vs_1\":%.3f,"
                "\"p99_ms_at_half_load\":%.3f,\"steals\":%llu,"
                "\"ring_fallbacks\":%llu,\"fast_path_locks\":%llu}",
                static_cast<long long>(shards),
                static_cast<long long>(kTotalWorkers),
                kTotalWorkers > cpus ? "true" : "false",
                saturated.n.achievedQps, scaling, half.n.p99Ms,
                static_cast<unsigned long long>(saturated.steals +
                                                half.steals),
                static_cast<unsigned long long>(
                    saturated.ringFallbacks + half.ringFallbacks),
                static_cast<unsigned long long>(
                    saturated.fastPathLocks + half.fastPathLocks));
        }
        json += "]";
        std::printf("\nShard sweep (synthetic %.0f us/sample, %lld "
                    "workers total, %lld cpu(s), saturation + "
                    "half-load runs):\n%s",
                    static_cast<double>(kSpinNsPerSample) / 1000.0,
                    static_cast<long long>(kTotalWorkers),
                    static_cast<long long>(cpus),
                    shard_table.str().c_str());
        if (kTotalWorkers > cpus) {
            std::printf("  NOTE: %lld busy-wait workers on %lld "
                        "cpu(s) — scaling below 1.0 here reads as "
                        "oversubscription, not a sharding "
                        "regression.\n",
                        static_cast<long long>(kTotalWorkers),
                        static_cast<long long>(cpus));
        }
    }
    json += "}";

    std::printf("%s", table.str().c_str());
    std::printf("\nAt 1.5x single-worker load the inline SUT is "
                "queue-bound: every sample waits on the\nissue "
                "thread. Adding workers restores throughput; raising "
                "the batch cap trades queue\ndelay for batch "
                "efficiency, the Sec. VI-B dynamic-batching "
                "tension.\n\nJSON: %s\n", json.c_str());

    // MLPERF_BENCH_JSON=<path> overrides the committed default so
    // the BENCH_* tracking scripts get machine-readable results.
    mlperf::bench::writeBenchJson(json, "BENCH_serving.json");
    return ledger_ok ? 0 : 1;
}
