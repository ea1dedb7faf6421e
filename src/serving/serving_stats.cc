#include "serving/serving_stats.h"

#include <iterator>

#include "common/lock_probe.h"

namespace mlperf {
namespace serving {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

} // namespace

void
ServingStats::recordIssued(uint64_t samples, uint64_t depth)
{
    issue_.samplesIssued.fetch_add(samples, kRelaxed);
    LockProbe::noteAcquire();
    std::lock_guard<std::mutex> lock(issueHistMutex_);
    queueDepth_.record(depth);
}

void
ServingStats::recordBatchFormed(const Batch &batch)
{
    issue_.batchesFormed.fetch_add(1, kRelaxed);
    switch (batch.reason) {
      case FlushReason::Size:
        issue_.sizeFlushes.fetch_add(1, kRelaxed);
        break;
      case FlushReason::Timeout:
        issue_.timeoutFlushes.fetch_add(1, kRelaxed);
        break;
      case FlushReason::Drain:
        issue_.drainFlushes.fetch_add(1, kRelaxed);
        break;
      case FlushReason::Demand:
        issue_.demandFlushes.fetch_add(1, kRelaxed);
        break;
    }
    LockProbe::noteAcquire();
    std::lock_guard<std::mutex> lock(issueHistMutex_);
    batchSize_.record(batch.items.size());
}

void
ServingStats::recordDispatch(const Batch &batch, sim::Tick now)
{
    LockProbe::noteAcquire();
    std::lock_guard<std::mutex> lock(doneHistMutex_);
    for (const BatchItem &item : batch.items) {
        timeInQueueNs_.record(
            now >= item.enqueuedAt ? now - item.enqueuedAt : 0);
    }
}

void
ServingStats::recordBatchDone(sim::Tick busyNs)
{
    done_.batchesCompleted.fetch_add(1, kRelaxed);
    done_.workerBusyNs.fetch_add(busyNs, kRelaxed);
    LockProbe::noteAcquire();
    std::lock_guard<std::mutex> lock(doneHistMutex_);
    serviceTimeNs_.record(busyNs);
}

void
ServingStats::recordShed(uint64_t samples)
{
    issue_.batchesShed.fetch_add(1, kRelaxed);
    issue_.samplesShed.fetch_add(samples, kRelaxed);
}

void
ServingStats::recordAdmissionShed(uint64_t samples)
{
    issue_.admissionShedSamples.fetch_add(samples, kRelaxed);
}

void
ServingStats::recordExpired(uint64_t samples)
{
    done_.expiredSamples.fetch_add(samples, kRelaxed);
}

void
ServingStats::recordDroppedCompletion(uint64_t samples)
{
    done_.droppedCompletions.fetch_add(samples, kRelaxed);
}

void
ServingStats::recordBatchFailed(sim::Tick busyNs)
{
    done_.batchesFailed.fetch_add(1, kRelaxed);
    done_.workerBusyNs.fetch_add(busyNs, kRelaxed);
    LockProbe::noteAcquire();
    std::lock_guard<std::mutex> lock(doneHistMutex_);
    serviceTimeNs_.record(busyNs);
}

void
ServingStats::recordRetry()
{
    resilience_.retries.fetch_add(1, kRelaxed);
}

void
ServingStats::recordRetrySuccess()
{
    resilience_.retrySuccesses.fetch_add(1, kRelaxed);
}

void
ServingStats::recordRetriesExhausted()
{
    resilience_.retriesExhausted.fetch_add(1, kRelaxed);
}

void
ServingStats::recordBreakerTransition(BreakerState state)
{
    resilience_.breakerState.store(state, kRelaxed);
    switch (state) {
      case BreakerState::Open:
        resilience_.breakerOpens.fetch_add(1, kRelaxed);
        break;
      case BreakerState::HalfOpen:
        resilience_.breakerHalfOpens.fetch_add(1, kRelaxed);
        break;
      case BreakerState::Closed:
        resilience_.breakerCloses.fetch_add(1, kRelaxed);
        break;
    }
}

void
ServingStats::recordBreakerFastFail(uint64_t samples)
{
    resilience_.breakerFastFailSamples.fetch_add(samples, kRelaxed);
}

void
ServingStats::recordDegradeMode(bool entered)
{
    if (entered)
        resilience_.degradeEntries.fetch_add(1, kRelaxed);
    else
        resilience_.degradeExits.fetch_add(1, kRelaxed);
}

void
ServingStats::recordTerminal(
    const std::vector<loadgen::QuerySampleResponse> &responses)
{
    // One add per run of equal statuses: a served batch is one run.
    size_t begin = 0;
    while (begin < responses.size()) {
        const loadgen::ResponseStatus status = responses[begin].status;
        size_t end = begin + 1;
        while (end < responses.size() && responses[end].status == status)
            ++end;
        done_.terminal[static_cast<size_t>(status)].fetch_add(end - begin,
                                                             kRelaxed);
        begin = end;
    }
}

void
ServingStats::setWorkers(int64_t workers)
{
    workers_.store(workers, kRelaxed);
}

void
ServingStats::recordSloOutcome(uint64_t samples, uint64_t violations)
{
    scale_.sloSamples.fetch_add(samples, kRelaxed);
    if (violations != 0)
        scale_.sloViolations.fetch_add(violations, kRelaxed);
}

void
ServingStats::recordScaleEvent(bool up)
{
    if (up)
        scale_.scaleUps.fetch_add(1, kRelaxed);
    else
        scale_.scaleDowns.fetch_add(1, kRelaxed);
}

void
ServingStats::setActiveShards(int64_t shards)
{
    scale_.activeShards.store(shards, kRelaxed);
}

StatsSnapshot
ServingStats::snapshot() const
{
    StatsSnapshot s;

    s.samplesIssued = issue_.samplesIssued.load(kRelaxed);
    s.batchesFormed = issue_.batchesFormed.load(kRelaxed);
    s.sizeFlushes = issue_.sizeFlushes.load(kRelaxed);
    s.timeoutFlushes = issue_.timeoutFlushes.load(kRelaxed);
    s.demandFlushes = issue_.demandFlushes.load(kRelaxed);
    s.drainFlushes = issue_.drainFlushes.load(kRelaxed);
    s.admissionShedSamples = issue_.admissionShedSamples.load(kRelaxed);
    s.samplesShed = issue_.samplesShed.load(kRelaxed);
    s.batchesShed = issue_.batchesShed.load(kRelaxed);

    s.batchesCompleted = done_.batchesCompleted.load(kRelaxed);
    s.workerBusyNs = done_.workerBusyNs.load(kRelaxed);
    s.expiredSamples = done_.expiredSamples.load(kRelaxed);
    s.droppedCompletions = done_.droppedCompletions.load(kRelaxed);
    s.batchesFailed = done_.batchesFailed.load(kRelaxed);
    // In ResponseStatus order (Ok, Degraded, Shed, Timeout, Failed).
    uint64_t *const ledger[] = {&s.completedOk, &s.completedDegraded,
                                &s.completedShed, &s.completedTimeout,
                                &s.completedFailed};
    for (size_t i = 0; i < std::size(ledger); ++i)
        *ledger[i] = done_.terminal[i].load(kRelaxed);

    s.retries = resilience_.retries.load(kRelaxed);
    s.retrySuccesses = resilience_.retrySuccesses.load(kRelaxed);
    s.retriesExhausted = resilience_.retriesExhausted.load(kRelaxed);
    s.breakerOpens = resilience_.breakerOpens.load(kRelaxed);
    s.breakerHalfOpens = resilience_.breakerHalfOpens.load(kRelaxed);
    s.breakerCloses = resilience_.breakerCloses.load(kRelaxed);
    s.breakerFastFailSamples =
        resilience_.breakerFastFailSamples.load(kRelaxed);
    s.breakerState = resilience_.breakerState.load(kRelaxed);
    s.degradeEntries = resilience_.degradeEntries.load(kRelaxed);
    s.degradeExits = resilience_.degradeExits.load(kRelaxed);

    s.workers = workers_.load(kRelaxed);

    s.sloSamples = scale_.sloSamples.load(kRelaxed);
    s.sloViolations = scale_.sloViolations.load(kRelaxed);
    s.scaleUps = scale_.scaleUps.load(kRelaxed);
    s.scaleDowns = scale_.scaleDowns.load(kRelaxed);
    s.activeShards = scale_.activeShards.load(kRelaxed);

    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(issueHistMutex_);
        s.queueDepth = queueDepth_;
        s.batchSize = batchSize_;
    }
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(doneHistMutex_);
        s.timeInQueueNs = timeInQueueNs_;
        s.serviceTimeNs = serviceTimeNs_;
    }
    return s;
}

} // namespace serving
} // namespace mlperf
