#include "report/serving_report.h"

#include "common/string_util.h"
#include "report/table.h"

namespace mlperf {
namespace report {

namespace {

/** One histogram row: count, mean, p50/p90/p99, max. */
std::vector<std::string>
histogramRow(const std::string &label,
             const stats::LogHistogram &histogram, bool duration)
{
    auto value = [duration](uint64_t v) {
        return duration ? formatDuration(v) : withThousands(v);
    };
    return {label,
            withThousands(histogram.count()),
            duration ? formatDuration(
                           static_cast<uint64_t>(histogram.mean()))
                     : fmt(histogram.mean(), 2),
            histogram.count() ? value(histogram.percentile(0.50)) : "-",
            histogram.count() ? value(histogram.percentile(0.90)) : "-",
            histogram.count() ? value(histogram.percentile(0.99)) : "-",
            histogram.count() ? value(histogram.max()) : "-"};
}

const char *
breakerStateName(serving::BreakerState state)
{
    switch (state) {
      case serving::BreakerState::Closed: return "closed";
      case serving::BreakerState::Open: return "open";
      case serving::BreakerState::HalfOpen: return "half-open";
    }
    return "closed";
}

/** Any resilience machinery fired during the run? */
bool
hasResilienceActivity(const serving::StatsSnapshot &snapshot)
{
    return snapshot.admissionShedSamples != 0 ||
           snapshot.expiredSamples != 0 ||
           snapshot.completedTimeout != 0 ||
           snapshot.droppedCompletions != 0 ||
           snapshot.completedFailed != 0 || snapshot.retries != 0 ||
           snapshot.breakerOpens != 0 ||
           snapshot.breakerFastFailSamples != 0 ||
           snapshot.completedDegraded != 0;
}

std::string
histogramJson(const stats::LogHistogram &histogram)
{
    if (histogram.count() == 0)
        return "{\"count\":0}";
    return strprintf(
        "{\"count\":%llu,\"mean\":%.2f,\"p50\":%llu,\"p90\":%llu,"
        "\"p99\":%llu,\"max\":%llu}",
        static_cast<unsigned long long>(histogram.count()),
        histogram.mean(),
        static_cast<unsigned long long>(histogram.percentile(0.50)),
        static_cast<unsigned long long>(histogram.percentile(0.90)),
        static_cast<unsigned long long>(histogram.percentile(0.99)),
        static_cast<unsigned long long>(histogram.max()));
}

} // namespace

std::string
renderServingSummary(const serving::StatsSnapshot &snapshot,
                     sim::Tick elapsed_ns,
                     const loadgen::TestResult *result)
{
    std::string out;
    out += "Serving runtime statistics\n";
    out += strprintf(
        "  samples: issued %s; ok %s, degraded %s, shed %s, "
        "timed out %s, failed %s\n",
        withThousands(snapshot.samplesIssued).c_str(),
        withThousands(snapshot.completedOk).c_str(),
        withThousands(snapshot.completedDegraded).c_str(),
        withThousands(snapshot.completedShed).c_str(),
        withThousands(snapshot.completedTimeout).c_str(),
        withThousands(snapshot.completedFailed).c_str());
    out += strprintf(
        "  batches: %s formed (%s size / %s demand / %s timeout / "
        "%s drain), %s shed, avg size %.2f\n",
        withThousands(snapshot.batchesFormed).c_str(),
        withThousands(snapshot.sizeFlushes).c_str(),
        withThousands(snapshot.demandFlushes).c_str(),
        withThousands(snapshot.timeoutFlushes).c_str(),
        withThousands(snapshot.drainFlushes).c_str(),
        withThousands(snapshot.batchesShed).c_str(),
        snapshot.averageBatchSize());
    out += strprintf(
        "  workers: %lld, utilization %.1f%% over %s\n",
        static_cast<long long>(snapshot.workers),
        100.0 * snapshot.utilization(elapsed_ns),
        formatDuration(elapsed_ns).c_str());
    if (hasResilienceActivity(snapshot)) {
        out += strprintf(
            "  resilience: shed-rate %.2f%% (admission %s, "
            "backpressure %s, expired %s)\n",
            100.0 * snapshot.shedRate(),
            withThousands(snapshot.admissionShedSamples).c_str(),
            withThousands(snapshot.samplesShed).c_str(),
            withThousands(snapshot.expiredSamples).c_str());
        out += strprintf(
            "    dropped completions %s, failed batches %s\n",
            withThousands(snapshot.droppedCompletions).c_str(),
            withThousands(snapshot.batchesFailed).c_str());
        out += strprintf(
            "    retries %s (saved %s, exhausted %s); breaker %s "
            "(opens %s, fast-failed %s samples)\n",
            withThousands(snapshot.retries).c_str(),
            withThousands(snapshot.retrySuccesses).c_str(),
            withThousands(snapshot.retriesExhausted).c_str(),
            breakerStateName(snapshot.breakerState),
            withThousands(snapshot.breakerOpens).c_str(),
            withThousands(snapshot.breakerFastFailSamples).c_str());
        out += strprintf(
            "    degraded mode entered %s, exited %s\n",
            withThousands(snapshot.degradeEntries).c_str(),
            withThousands(snapshot.degradeExits).c_str());
    }
    if (snapshot.activeShards != 0 || snapshot.scaleUps != 0 ||
        snapshot.scaleDowns != 0 || snapshot.sloSamples != 0) {
        out += strprintf(
            "  autoscaler: %lld shard(s) active, scaled up %s / "
            "down %s; SLO violations %s of %s judged (%.2f%%)\n",
            static_cast<long long>(snapshot.activeShards),
            withThousands(snapshot.scaleUps).c_str(),
            withThousands(snapshot.scaleDowns).c_str(),
            withThousands(snapshot.sloViolations).c_str(),
            withThousands(snapshot.sloSamples).c_str(),
            100.0 * snapshot.sloViolationRate());
    }
    if (result != nullptr &&
        result->scenario == loadgen::Scenario::Server &&
        result->latency.count > 0) {
        out += strprintf(
            "  latency audit: corrected tail %s (sched-ref) vs "
            "issued-ref %s; issue drift mean %s / max %s\n",
            formatDuration(result->correctedTailLatencyNs).c_str(),
            formatDuration(result->issuedTailLatencyNs).c_str(),
            formatDuration(result->meanIssueDriftNs).c_str(),
            formatDuration(result->maxIssueDriftNs).c_str());
    }

    Table table({"Stage", "Count", "Mean", "p50", "p90", "p99", "Max"});
    table.addRow(histogramRow("Queue depth (samples)",
                              snapshot.queueDepth, false));
    table.addRow(histogramRow("Batch size", snapshot.batchSize, false));
    table.addRow(histogramRow("Time in queue", snapshot.timeInQueueNs,
                              true));
    table.addRow(histogramRow("Service time", snapshot.serviceTimeNs,
                              true));
    out += table.str();
    return out;
}

std::string
servingSnapshotJson(const serving::StatsSnapshot &snapshot,
                    sim::Tick elapsed_ns,
                    const loadgen::TestResult *result)
{
    std::string out = "{";
    out += strprintf(
        "\"samples_issued\":%llu,"
        "\"samples_shed\":%llu,\"batches_formed\":%llu,"
        "\"batches_shed\":%llu,\"size_flushes\":%llu,"
        "\"demand_flushes\":%llu,\"timeout_flushes\":%llu,"
        "\"drain_flushes\":%llu,"
        "\"avg_batch_size\":%.3f,\"workers\":%lld,"
        "\"utilization\":%.4f,\"elapsed_ns\":%llu,",
        static_cast<unsigned long long>(snapshot.samplesIssued),
        static_cast<unsigned long long>(snapshot.samplesShed),
        static_cast<unsigned long long>(snapshot.batchesFormed),
        static_cast<unsigned long long>(snapshot.batchesShed),
        static_cast<unsigned long long>(snapshot.sizeFlushes),
        static_cast<unsigned long long>(snapshot.demandFlushes),
        static_cast<unsigned long long>(snapshot.timeoutFlushes),
        static_cast<unsigned long long>(snapshot.drainFlushes),
        snapshot.averageBatchSize(),
        static_cast<long long>(snapshot.workers),
        snapshot.utilization(elapsed_ns),
        static_cast<unsigned long long>(elapsed_ns));
    out += strprintf(
        "\"shed_rate\":%.5f,\"admission_shed\":%llu,"
        "\"expired\":%llu,"
        "\"dropped_completions\":%llu,"
        "\"batches_failed\":%llu,\"retries\":%llu,"
        "\"retry_successes\":%llu,\"retries_exhausted\":%llu,"
        "\"breaker_state\":\"%s\",\"breaker_opens\":%llu,"
        "\"breaker_fast_fail\":%llu,"
        "\"degrade_entries\":%llu,\"degrade_exits\":%llu,",
        snapshot.shedRate(),
        static_cast<unsigned long long>(snapshot.admissionShedSamples),
        static_cast<unsigned long long>(snapshot.expiredSamples),
        static_cast<unsigned long long>(snapshot.droppedCompletions),
        static_cast<unsigned long long>(snapshot.batchesFailed),
        static_cast<unsigned long long>(snapshot.retries),
        static_cast<unsigned long long>(snapshot.retrySuccesses),
        static_cast<unsigned long long>(snapshot.retriesExhausted),
        breakerStateName(snapshot.breakerState),
        static_cast<unsigned long long>(snapshot.breakerOpens),
        static_cast<unsigned long long>(
            snapshot.breakerFastFailSamples),
        static_cast<unsigned long long>(snapshot.degradeEntries),
        static_cast<unsigned long long>(snapshot.degradeExits));
    out += strprintf(
        "\"completed_ok\":%llu,\"completed_degraded\":%llu,"
        "\"completed_shed\":%llu,\"completed_timeout\":%llu,"
        "\"completed_failed\":%llu,",
        static_cast<unsigned long long>(snapshot.completedOk),
        static_cast<unsigned long long>(snapshot.completedDegraded),
        static_cast<unsigned long long>(snapshot.completedShed),
        static_cast<unsigned long long>(snapshot.completedTimeout),
        static_cast<unsigned long long>(snapshot.completedFailed));
    out += strprintf(
        "\"active_shards\":%lld,\"scale_ups\":%llu,"
        "\"scale_downs\":%llu,\"slo_samples\":%llu,"
        "\"slo_violations\":%llu,\"slo_violation_rate\":%.5f,",
        static_cast<long long>(snapshot.activeShards),
        static_cast<unsigned long long>(snapshot.scaleUps),
        static_cast<unsigned long long>(snapshot.scaleDowns),
        static_cast<unsigned long long>(snapshot.sloSamples),
        static_cast<unsigned long long>(snapshot.sloViolations),
        snapshot.sloViolationRate());
    if (result != nullptr) {
        out += strprintf(
            "\"latency_audit\":{\"corrected_tail_ns\":%llu,"
            "\"issued_tail_ns\":%llu,\"mean_issue_drift_ns\":%llu,"
            "\"max_issue_drift_ns\":%llu},",
            static_cast<unsigned long long>(
                result->correctedTailLatencyNs),
            static_cast<unsigned long long>(
                result->issuedTailLatencyNs),
            static_cast<unsigned long long>(result->meanIssueDriftNs),
            static_cast<unsigned long long>(result->maxIssueDriftNs));
    }
    out += "\"queue_depth\":" + histogramJson(snapshot.queueDepth);
    out += ",\"batch_size\":" + histogramJson(snapshot.batchSize);
    out += ",\"time_in_queue_ns\":" +
           histogramJson(snapshot.timeInQueueNs);
    out += ",\"service_time_ns\":" +
           histogramJson(snapshot.serviceTimeNs);
    out += "}";
    return out;
}

std::string
ledgerMismatch(const serving::StatsSnapshot &snapshot,
               const loadgen::TestResult &result)
{
    const uint64_t ok = result.sampleCount - result.errorSamples() -
                        result.completedDegraded;
    const struct
    {
        const char *name;
        uint64_t serving;
        uint64_t loadgen;
    } checks[] = {
        {"issued", snapshot.samplesIssued, result.sampleCount},
        {"ok", snapshot.completedOk, ok},
        {"degraded", snapshot.completedDegraded, result.completedDegraded},
        {"shed", snapshot.completedShed, result.completedShed},
        {"timed out", snapshot.completedTimeout, result.completedTimeout},
        {"failed", snapshot.completedFailed, result.completedFailed},
    };
    for (const auto &check : checks) {
        if (check.serving != check.loadgen) {
            return strprintf("sample ledger: %s %s, LoadGen %s",
                             check.name,
                             withThousands(check.serving).c_str(),
                             withThousands(check.loadgen).c_str());
        }
    }
    return "";
}

std::string
renderMultiTenantSummary(const std::vector<TenantReportRow> &tenants,
                         const serving::StatsSnapshot &platform,
                         const serving::RegistrySnapshot &registry,
                         sim::Tick elapsed_ns)
{
    std::string out;
    out += "Multi-tenant platform statistics\n";
    out += strprintf(
        "  registry: %lld models hot (%s publishes, %s swaps, "
        "%s evictions), %s lookups (%s misses), constants %s bytes\n",
        static_cast<long long>(registry.hotModels),
        withThousands(registry.publishes).c_str(),
        withThousands(registry.swaps).c_str(),
        withThousands(registry.evictions).c_str(),
        withThousands(registry.lookups).c_str(),
        withThousands(registry.misses).c_str(),
        withThousands(static_cast<uint64_t>(registry.constantBytes))
            .c_str());
    out += strprintf(
        "  shared pool: %lld workers, utilization %.1f%%, "
        "%s batches, avg size %.2f\n",
        static_cast<long long>(platform.workers),
        100.0 * platform.utilization(elapsed_ns),
        withThousands(platform.batchesCompleted).c_str(),
        platform.averageBatchSize());

    Table table({"Tenant", "SLO", "Model", "Issued", "Ok", "Shed",
                 "Timeout", "Shed rate", "p99 (ms)", "Valid"});
    for (const TenantReportRow &tenant : tenants) {
        table.addRow(
            {tenant.name, tenant.slo, tenant.model,
             withThousands(tenant.stats.samplesIssued),
             withThousands(tenant.stats.completedOk),
             withThousands(tenant.stats.completedShed),
             withThousands(tenant.stats.completedTimeout),
             strprintf("%.2f%%", 100.0 * tenant.stats.shedRate()),
             fmt(tenant.p99Ms, 3), tenant.valid ? "yes" : "NO"});
    }
    out += table.str();
    return out;
}

std::string
tenantSnapshotJson(const TenantReportRow &tenant, sim::Tick elapsed_ns)
{
    std::string out = "{";
    out += strprintf(
        "\"tenant\":\"%s\",\"slo\":\"%s\",\"model\":\"%s\","
        "\"p99_ms\":%.4f,\"valid\":%s,\"stats\":",
        tenant.name.c_str(), tenant.slo.c_str(),
        tenant.model.c_str(), tenant.p99Ms,
        tenant.valid ? "true" : "false");
    out += servingSnapshotJson(tenant.stats, elapsed_ns);
    out += "}";
    return out;
}

} // namespace report
} // namespace mlperf
