/**
 * @file
 * The benches' sample-ledger gate. A serving run's ledger must hold
 * one terminal status per issued sample, each equal to the LoadGen's
 * own tally of the run (report::ledgerMismatch); a run that does not
 * reconcile is reported on stderr and fails its bench. Header-only,
 * like bench_json.h.
 */

#ifndef MLPERF_BENCH_COMMON_LEDGER_GATE_H
#define MLPERF_BENCH_COMMON_LEDGER_GATE_H

#include <cstdio>
#include <string>

#include "loadgen/results.h"
#include "report/serving_report.h"
#include "serving/serving_stats.h"

namespace mlperf {
namespace bench {

/** True when @p run's ledger reconciles; otherwise say why on stderr. */
inline bool
ledgerHolds(const std::string &run, const serving::StatsSnapshot &stats,
            const loadgen::TestResult &result)
{
    const std::string mismatch = report::ledgerMismatch(stats, result);
    if (mismatch.empty())
        return true;
    std::fprintf(stderr, "FATAL: %s: %s\n", run.c_str(),
                 mismatch.c_str());
    return false;
}

} // namespace bench
} // namespace mlperf

#endif // MLPERF_BENCH_COMMON_LEDGER_GATE_H
