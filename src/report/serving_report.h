/**
 * @file
 * Run-summary rendering for the serving runtime's stage counters.
 *
 * Makes batching ablations first-class experiments: every
 * ServingSut run can print (or emit as JSON) its queue-depth,
 * time-in-queue, batch-size, utilization, and shed statistics next
 * to the LoadGen's TestResult summary.
 */

#ifndef MLPERF_REPORT_SERVING_REPORT_H
#define MLPERF_REPORT_SERVING_REPORT_H

#include <string>
#include <vector>

#include "loadgen/results.h"
#include "serving/serving_stats.h"
#include "serving/tenancy/model_registry.h"
#include "sim/executor.h"

namespace mlperf {
namespace report {

/**
 * mlperf_log_summary-style block of the serving counters.
 * @param elapsed_ns run duration used for worker utilization.
 * @param result optional LoadGen result for the same run; when given
 *        (and it carries a Server-scenario timeline) the summary adds
 *        the measurement-honesty line — corrected vs issued-referenced
 *        tail latency and the issue-drift that separates them.
 * Autoscaler activity (active shards, scale events, SLO outcomes) is
 * rendered whenever the snapshot carries it.
 */
std::string renderServingSummary(
    const serving::StatsSnapshot &snapshot, sim::Tick elapsed_ns,
    const loadgen::TestResult *result = nullptr);

/**
 * The same counters as a single JSON object (machine-readable bench
 * output). Histograms are reduced to mean/p50/p90/p99/max. When
 * @p result is given, a "latency_audit" object (corrected/issued tail,
 * drift) is embedded alongside the counters.
 */
std::string servingSnapshotJson(
    const serving::StatsSnapshot &snapshot, sim::Tick elapsed_ns,
    const loadgen::TestResult *result = nullptr);

/**
 * Empty when a drained run's ledger reconciles with the LoadGen's
 * tally: issued == Σ terminal == sampleCount, and each status equal;
 * otherwise the first disagreement.
 */
std::string ledgerMismatch(const serving::StatsSnapshot &snapshot,
                           const loadgen::TestResult &result);

/**
 * One tenant's row of a multi-tenant platform report. Latency fields
 * come from the tenant's LoadGen TestResult (the platform does not
 * measure per-query latency itself).
 */
struct TenantReportRow
{
    std::string name;
    std::string slo;    //!< serving::sloClassName of the SLO class
    std::string model;  //!< registry model the tenant routes to
    serving::StatsSnapshot stats;
    double p99Ms = 0.0;
    bool valid = false;
};

/**
 * Per-tenant table (issued; ok / shed / timed-out from its ledger;
 * shed-rate; p99)
 * plus the shared-pool and registry counters — the multi-tenant
 * counterpart of renderServingSummary.
 */
std::string renderMultiTenantSummary(
    const std::vector<TenantReportRow> &tenants,
    const serving::StatsSnapshot &platform,
    const serving::RegistrySnapshot &registry, sim::Tick elapsed_ns);

/** One tenant row as JSON (embeds the full stats snapshot). */
std::string tenantSnapshotJson(const TenantReportRow &tenant,
                               sim::Tick elapsed_ns);

} // namespace report
} // namespace mlperf

#endif // MLPERF_REPORT_SERVING_REPORT_H
