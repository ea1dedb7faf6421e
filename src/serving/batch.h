/**
 * @file
 * Shared value types of the serving runtime: the unit of work handed
 * from the dynamic batcher to a worker pool.
 *
 * The paper's server scenario exists to stress "multiple users
 * submitting concurrent, independent queries"; this runtime is the
 * SUT-side answer — samples from independent queries are merged into
 * batches, so one Batch may carry samples owned by different
 * ResponseDelegates (e.g. under multitenancy).
 */

#ifndef MLPERF_SERVING_BATCH_H
#define MLPERF_SERVING_BATCH_H

#include <vector>

#include "loadgen/sut.h"
#include "loadgen/types.h"
#include "serving/batch_inference.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

/** One sample waiting for (or undergoing) inference. */
struct BatchItem
{
    loadgen::QuerySample sample;
    loadgen::ResponseDelegate *delegate = nullptr;
    sim::Tick enqueuedAt = 0;  //!< when issueQuery handed it over
    /**
     * Absolute completion deadline; 0 = none. Propagated from
     * TestSettings::serverQueryDeadlineNs through the batcher so
     * worker pools can shed already-expired items at dispatch instead
     * of wasting a worker slot on an answer nobody will accept.
     */
    sim::Tick deadline = 0;
};

/** Why the batcher emitted a batch. */
enum class FlushReason
{
    Size,     //!< reached the max batch size
    Timeout,  //!< batching-window deadline expired
    Drain,    //!< explicit flush (flushQueries / end of run)
    Demand,   //!< partial batch released to a free worker (window 0)
};

/** A formed batch travelling from batcher to worker. */
struct Batch
{
    std::vector<BatchItem> items;
    sim::Tick formedAt = 0;
    FlushReason reason = FlushReason::Size;
    /**
     * Which route (model or DAG pipeline) the batch is bound for.
     * 0 for the single-model ServingSut; the multi-tenant platform
     * stamps its tenants' route ids here so one shared worker pool
     * can serve many models (see serving/tenancy/platform.h).
     */
    uint32_t route = 0;
};

/**
 * Complete every item of @p batch through its delegate, preserving
 * issue order and grouping consecutive items that share a delegate
 * into one querySamplesComplete call. @p responses must be aligned
 * with batch.items (the contract of BatchInference::runBatch).
 */
void completeBatch(
    const Batch &batch,
    const std::vector<loadgen::QuerySampleResponse> &responses);

/**
 * One empty-payload response per sample, all carrying @p status —
 * the fast-fail payload of the shed/timeout/failure paths.
 */
std::vector<loadgen::QuerySampleResponse> errorResponses(
    const std::vector<loadgen::QuerySample> &samples,
    loadgen::ResponseStatus status);

/** Same, drawn from a formed batch's items. */
std::vector<loadgen::QuerySampleResponse> errorResponses(
    const Batch &batch, loadgen::ResponseStatus status);

/** The batch's samples in issue order (runBatch's input contract). */
std::vector<loadgen::QuerySample> batchSamples(const Batch &batch);

/** Route + tightest item deadline, for the routed inference entry. */
BatchMeta batchMeta(const Batch &batch);

/**
 * Remove the items of @p batch whose deadline passed at @p now and
 * return them as their own batch (empty when none expired). The
 * caller completes the expired batch with Timeout status and counts
 * it; both worker-pool flavors and the sharded runtime share this
 * dispatch-time shed logic.
 */
Batch splitExpired(Batch &batch, sim::Tick now);

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_BATCH_H
