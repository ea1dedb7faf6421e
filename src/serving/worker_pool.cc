#include "serving/worker_pool.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/parallel.h"

namespace mlperf {
namespace serving {

namespace {

/**
 * Shed items whose deadline passed while queued: complete them with
 * Timeout status instead of wasting a worker slot on an answer nobody
 * will accept. Mutates @p batch to hold only live items; returns the
 * count shed. (The sharded runtime shares splitExpired but publishes
 * the expired batch through its completion ring instead.)
 */
uint64_t
shedExpired(Batch &batch, sim::Tick now, ServingStats &stats)
{
    Batch expired = splitExpired(batch, now);
    if (expired.items.empty())
        return 0;
    stats.recordExpired(expired.items.size());
    completeBatch(expired, errorResponses(
                               expired, loadgen::ResponseStatus::Timeout));
    return expired.items.size();
}

/**
 * Convert a batch-level fault into completions + accounting. A
 * DropCompletion fault with a tracker in place is the one case where
 * deliberately not answering is correct — the deadline reaper (or the
 * shutdown drain) completes the samples, which is the failure being
 * simulated. Everything else completes with Failed status so the
 * LoadGen never hangs on a faulty SUT.
 */
void
handleBatchFault(FaultKind kind, const Batch &batch, sim::Tick busy_ns,
                 ServingStats &stats, bool tracker_active)
{
    if (kind == FaultKind::DropCompletion && tracker_active) {
        stats.recordDroppedCompletion(batch.items.size());
        return;
    }
    stats.recordBatchFailed(batch.items.size(), busy_ns);
    completeBatch(batch, errorResponses(
                             batch, loadgen::ResponseStatus::Failed));
}

} // namespace

// --------------------------------------------------- ThreadWorkerPool

ThreadWorkerPool::ThreadWorkerPool(sim::Executor &executor,
                                   BatchInference &inference,
                                   ServingStats &stats, int64_t workers,
                                   size_t queue_capacity,
                                   bool tracker_active, PullFn pull)
    : executor_(executor), inference_(inference), stats_(stats),
      trackerActive_(tracker_active), pull_(std::move(pull)),
      intraOpWidth_(ThreadPool::budgetShare(workers)),
      queue_(queue_capacity)
{
    workers = std::max<int64_t>(1, workers);
    stats_.setWorkers(workers);
    threads_.reserve(static_cast<size_t>(workers));
    for (int64_t i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadWorkerPool::~ThreadWorkerPool()
{
    shutdown();
}

bool
ThreadWorkerPool::submit(Batch &batch)
{
    return queue_.tryPush(batch);
}

void
ThreadWorkerPool::shutdown()
{
    if (stopped_.exchange(true))
        return;
    queue_.close();
    for (std::thread &thread : threads_) {
        if (thread.joinable())
            thread.join();
    }
}

void
ThreadWorkerPool::workerLoop()
{
    IntraOpBinding budget(intraOpWidth_);
    const auto pull = [this] { return pull_ && pull_(0); };
    for (;;) {
        std::optional<Batch> batch = queue_.tryPopBusy(pull);
        if (!batch) {
            // Out of queued batches: idle before the pull, the order
            // the demand protocol rests on (serving/demand_queue.h).
            queue_.enterIdle();
            const bool pulled = pull();
            if (!pulled)
                batch = queue_.pop();
            queue_.leaveIdle();
            if (pulled)
                continue;
            if (!batch)
                return;  // closed and drained
        }
        process(std::move(*batch));
    }
}

void
ThreadWorkerPool::process(Batch &&batch)
{
    const sim::Tick start = executor_.now();
    shedExpired(batch, start, stats_);
    if (batch.items.empty())
        return;
    stats_.recordDispatch(batch, start);
    try {
        const auto responses =
            inference_.runBatch(batchSamples(batch), batchMeta(batch));
        completeBatch(batch, responses);
        const sim::Tick end = executor_.now();
        stats_.recordBatchDone(batch.items.size(),
                               end >= start ? end - start : 0);
    } catch (const InferenceFault &fault) {
        const sim::Tick end = executor_.now();
        handleBatchFault(fault.kind(), batch,
                         end >= start ? end - start : 0, stats_,
                         trackerActive_);
    } catch (const std::exception &) {
        const sim::Tick end = executor_.now();
        handleBatchFault(FaultKind::Permanent, batch,
                         end >= start ? end - start : 0, stats_,
                         trackerActive_);
    }
}

// ---------------------------------------------------- EventWorkerPool

EventWorkerPool::EventWorkerPool(sim::Executor &executor,
                                 BatchInference &inference,
                                 ServingStats &stats, int64_t workers,
                                 size_t queue_capacity,
                                 bool tracker_active, PullFn pull)
    : executor_(executor), inference_(inference), stats_(stats),
      trackerActive_(tracker_active),
      workers_(std::max<int64_t>(1, workers)),
      queueCapacity_(queue_capacity), pull_(std::move(pull))
{
    stats_.setWorkers(workers_);
}

bool
EventWorkerPool::submit(Batch &batch)
{
    if (queueCapacity_ != 0 && queue_.size() >= queueCapacity_)
        return false;
    queuedSamples_ += batch.items.size();
    queue_.push_back(std::move(batch));
    if (!dispatching_)
        dispatch(false);
    return true;
}

void
EventWorkerPool::dispatch(bool pull)
{
    dispatching_ = true;
    while (busyWorkers_ < workers_) {
        if (queue_.empty() && !(pull && pull_ && pull_(0)))
            break;
        if (queue_.empty())
            continue;  // defensive: the pulled batch did not land here
        Batch batch = std::move(queue_.front());
        queue_.pop_front();
        queuedSamples_ -= batch.items.size();

        const sim::Tick now = executor_.now();
        // Shed before serviceTimeNs so the inference functor (and any
        // chaos plan keyed off the batch) only ever sees live items.
        shedExpired(batch, now, stats_);
        if (batch.items.empty())
            continue;
        stats_.recordDispatch(batch, now);
        const sim::Tick service = inference_.serviceTimeNs(
            batchSamples(batch), now, batchMeta(batch));
        ++busyWorkers_;
        executor_.scheduleAfter(
            service, [this, batch = std::move(batch), service] {
                finishBatch(batch, service);
            });
    }
    dispatching_ = false;
}

void
EventWorkerPool::finishBatch(const Batch &batch, sim::Tick service_ns)
{
    // runBatch is instantaneous in host time; virtual time already
    // advanced by the modeled service time.
    try {
        const auto responses =
            inference_.runBatch(batchSamples(batch), batchMeta(batch));
        completeBatch(batch, responses);
        stats_.recordBatchDone(batch.items.size(), service_ns);
    } catch (const InferenceFault &fault) {
        handleBatchFault(fault.kind(), batch, service_ns, stats_,
                         trackerActive_);
    } catch (const std::exception &) {
        handleBatchFault(FaultKind::Permanent, batch, service_ns,
                         stats_, trackerActive_);
    }
    --busyWorkers_;
    dispatch(true);
}

} // namespace serving
} // namespace mlperf
