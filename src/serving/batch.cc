#include "serving/batch.h"

#include <algorithm>
#include <cassert>
#include <exception>

#include "common/lock_probe.h"
#include "serving/serving_stats.h"

namespace mlperf {
namespace serving {

void
completeBatch(const Batch &batch,
              const std::vector<loadgen::QuerySampleResponse> &responses,
              ServingStats *ledger)
{
    assert(batch.items.size() == responses.size() &&
           "runBatch must return one response per sample");
    if (ledger)
        ledger->recordTerminal(responses);
    loadgen::completeByDelegate(
        responses, [&batch](size_t i) { return batch.items[i].delegate; });
}

void
shedAtAdmission(ServingStats &stats,
                const std::vector<loadgen::QuerySample> &samples,
                loadgen::ResponseDelegate &delegate)
{
    std::vector<loadgen::QuerySampleResponse> shed;
    shed.reserve(samples.size());
    for (const auto &sample : samples)
        shed.push_back({sample.id, "", loadgen::ResponseStatus::Shed});
    stats.recordAdmissionShed(samples.size());
    stats.recordTerminal(shed);
    delegate.querySamplesComplete(shed);
}

std::vector<loadgen::QuerySampleResponse>
errorResponses(const Batch &batch, loadgen::ResponseStatus status)
{
    std::vector<loadgen::QuerySampleResponse> responses;
    responses.reserve(batch.items.size());
    for (const BatchItem &item : batch.items)
        responses.push_back({item.sample.id, "", status});
    return responses;
}

std::vector<loadgen::QuerySample>
batchSamples(const Batch &batch)
{
    std::vector<loadgen::QuerySample> samples;
    samples.reserve(batch.items.size());
    for (const BatchItem &item : batch.items)
        samples.push_back(item.sample);
    return samples;
}

BatchMeta
batchMeta(const Batch &batch)
{
    BatchMeta meta;
    meta.route = batch.route;
    for (const BatchItem &item : batch.items) {
        if (item.deadline != 0 &&
            (meta.deadline == 0 || item.deadline < meta.deadline)) {
            meta.deadline = item.deadline;
        }
    }
    return meta;
}

Batch
splitExpired(Batch &batch, sim::Tick now)
{
    Batch expired;
    expired.formedAt = batch.formedAt;
    expired.reason = batch.reason;
    expired.route = batch.route;
    bool anyExpired = false;
    for (const BatchItem &item : batch.items) {
        if (item.deadline != 0 && item.deadline <= now) {
            anyExpired = true;
            break;
        }
    }
    if (!anyExpired)
        return expired;
    std::vector<BatchItem> live;
    live.reserve(batch.items.size());
    for (BatchItem &item : batch.items) {
        if (item.deadline != 0 && item.deadline <= now)
            expired.items.push_back(std::move(item));
        else
            live.push_back(std::move(item));
    }
    batch.items = std::move(live);
    return expired;
}

CompletionRecord
runBatchRecord(sim::Executor &executor, BatchInference &inference,
               Batch &&batch, sim::Tick dispatched_at)
{
    using Kind = CompletionRecord::Kind;
    CompletionRecord record;
    try {
        record.responses =
            inference.runBatch(batchSamples(batch), batchMeta(batch));
        record.kind = Kind::Done;
    } catch (const InferenceFault &fault) {
        const bool reaped = std::all_of(
            batch.items.begin(), batch.items.end(),
            [](const BatchItem &item) { return item.deadline != 0; });
        record.kind = fault.kind() == FaultKind::DropCompletion && reaped
                          ? Kind::Dropped
                          : Kind::Failed;
    } catch (const std::exception &) {
        record.kind = Kind::Failed;
    }
    const sim::Tick end = executor.now();
    record.locksAtReturn = LockProbe::threadAcquisitions();
    if (record.kind == Kind::Failed)
        record.responses =
            errorResponses(batch, loadgen::ResponseStatus::Failed);
    record.batch = std::move(batch);
    record.dispatchedAt = dispatched_at;
    record.busyNs = end >= dispatched_at ? end - dispatched_at : 0;
    return record;
}

CompletionRecord
expiredRecord(Batch &batch, sim::Tick now)
{
    CompletionRecord record;
    record.locksAtReturn = LockProbe::threadAcquisitions();
    record.batch = splitExpired(batch, now);
    if (record.batch.items.empty())
        return record;
    record.kind = CompletionRecord::Kind::Expired;
    record.responses = errorResponses(record.batch,
                                      loadgen::ResponseStatus::Timeout);
    record.dispatchedAt = now;
    return record;
}

void
applyRecord(const CompletionRecord &record, ServingStats &stats,
            bool tracker_active, sim::Tick slo_target_ns)
{
    using Kind = CompletionRecord::Kind;
    const Batch &batch = record.batch;
    const uint64_t samples = batch.items.size();
    ServingStats *ledger = tracker_active ? nullptr : &stats;
    uint64_t violations = samples;
    switch (record.kind) {
      case Kind::Done:
        stats.recordDispatch(batch, record.dispatchedAt);
        completeBatch(batch, record.responses, ledger);
        stats.recordBatchDone(record.busyNs);
        if (slo_target_ns != 0) {
            const sim::Tick done = record.dispatchedAt + record.busyNs;
            violations = 0;
            for (const BatchItem &item : batch.items)
                violations += done > item.enqueuedAt + slo_target_ns;
        }
        break;
      case Kind::Failed:
        stats.recordDispatch(batch, record.dispatchedAt);
        stats.recordBatchFailed(record.busyNs);
        completeBatch(batch, record.responses, ledger);
        break;
      case Kind::Expired:
        stats.recordExpired(samples);
        completeBatch(batch, record.responses, ledger);
        break;
      case Kind::Dropped:
        stats.recordDispatch(batch, record.dispatchedAt);
        stats.recordDroppedCompletion(samples);
        break;
      case Kind::None:
        return;
    }
    if (slo_target_ns != 0)
        stats.recordSloOutcome(samples, violations);
}

} // namespace serving
} // namespace mlperf
