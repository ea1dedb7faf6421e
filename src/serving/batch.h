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

#include <atomic>
#include <cstdint>
#include <vector>

#include "loadgen/sut.h"
#include "loadgen/types.h"
#include "serving/batch_inference.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

class ServingStats;

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
    /**
     * The submitting tenant's count of its samples queued in a worker
     * pool, or null (ServingSut reads the pool's total). Pools move a
     * batch's samples into and out of it through countTenantQueued,
     * where they keep their own total.
     */
    std::atomic<uint64_t> *tenantQueued = nullptr;
};

/**
 * A pool queued @p batch (@p queued true) or a worker took it (false):
 * add its samples to, or remove them from, its tenant's queued count.
 * A no-op for a batch without one.
 */
inline void
countTenantQueued(const Batch &batch, bool queued)
{
    if (batch.tenantQueued == nullptr)
        return;
    const uint64_t samples = batch.items.size();
    if (queued)
        batch.tenantQueued->fetch_add(samples, std::memory_order_relaxed);
    else
        batch.tenantQueued->fetch_sub(samples, std::memory_order_relaxed);
}

/**
 * Complete every item of @p batch through its delegate, preserving
 * issue order and grouping consecutive items that share a delegate
 * into one querySamplesComplete call. @p responses must be aligned
 * with batch.items (the contract of BatchInference::runBatch). Their
 * statuses are recorded in @p ledger first, unless it is null (the
 * items' delegate is a CompletionTracker, which records them).
 */
void completeBatch(
    const Batch &batch,
    const std::vector<loadgen::QuerySampleResponse> &responses,
    ServingStats *ledger);

/**
 * One empty-payload response per item, all carrying @p status — the
 * fast-fail payload of the shed/timeout/failure paths.
 */
std::vector<loadgen::QuerySampleResponse> errorResponses(
    const Batch &batch, loadgen::ResponseStatus status);

/**
 * Answer @p samples Shed at a frontend's door (admission control),
 * counting them in @p stats: they never reach a tracker, so their
 * ledger entries are recorded here.
 */
void shedAtAdmission(ServingStats &stats,
                     const std::vector<loadgen::QuerySample> &samples,
                     loadgen::ResponseDelegate &delegate);

/** The batch's samples in issue order (runBatch's input contract). */
std::vector<loadgen::QuerySample> batchSamples(const Batch &batch);

/** Route + tightest item deadline, for the routed inference entry. */
BatchMeta batchMeta(const Batch &batch);

/**
 * Remove the items of @p batch whose deadline passed at @p now and
 * return them as their own batch (empty when none expired).
 */
Batch splitExpired(Batch &batch, sim::Tick now);

// ---- The batch-outcome policy. Every worker pool reaches it only
//      through the three functions below (DESIGN.md, "One outcome
//      path").

/** What became of a batch a worker took. */
struct CompletionRecord
{
    enum class Kind : uint8_t
    {
        None,     //!< default-constructed; nothing to apply
        Done,     //!< inference succeeded; responses are real answers
        Failed,   //!< batch fault; responses carry Failed status
        Expired,  //!< deadline passed in queue; Timeout responses
        Dropped,  //!< chaos DropCompletion; the reaper answers it
    };

    Kind kind = Kind::None;
    Batch batch;
    std::vector<loadgen::QuerySampleResponse> responses;
    sim::Tick dispatchedAt = 0;  //!< worker pickup time (time-in-queue)
    sim::Tick busyNs = 0;        //!< worker busy time (service time)
    /** LockProbe count once inference returned: a publisher's
     *  lock-free region starts here. */
    uint64_t locksAtReturn = 0;
};

/**
 * Run @p batch through @p inference and classify the outcome: Done
 * with the answers; Failed with Failed statuses after an
 * InferenceFault or any other exception; Dropped after a
 * DropCompletion fault when every item carries a deadline (the
 * CompletionTracker's reaper will answer each at its deadline — the
 * failure being simulated; otherwise nobody would, so the batch fails
 * instead and the run never hangs). Busy time is executor.now() minus
 * @p dispatched_at.
 */
CompletionRecord runBatchRecord(sim::Executor &executor,
                                BatchInference &inference, Batch &&batch,
                                sim::Tick dispatched_at);

/**
 * Move the items of @p batch whose deadline passed at @p now into an
 * Expired record with Timeout responses, so no worker slot is spent
 * on an answer nobody will accept. Kind None when nothing expired.
 */
CompletionRecord expiredRecord(Batch &batch, sim::Tick now);

/**
 * Turn @p record into ServingStats calls and delegate completions.
 * Done: time in queue (from the recorded pickup tick), delivery, then
 * the batch counters. Failed: time in queue, counters, delivery.
 * Expired: counter, delivery. Dropped: time in queue and counter, no
 * delivery; deliveries record the ledger unless @p tracker_active.
 * With @p slo_target_ns nonzero every sample is also judged against
 * that enqueue-to-completion SLO; failed, expired and dropped samples
 * are violations.
 */
void applyRecord(const CompletionRecord &record, ServingStats &stats,
                 bool tracker_active, sim::Tick slo_target_ns = 0);

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_BATCH_H
