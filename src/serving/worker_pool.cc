#include "serving/worker_pool.h"

#include <algorithm>
#include <utility>

#include "serving/shard.h"

namespace mlperf {
namespace serving {

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
    countTenantQueued(batch, true);
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
        countTenantQueued(batch, false);

        const sim::Tick now = executor_.now();
        // Shed before serviceTimeNs so the inference functor (and any
        // chaos plan keyed off the batch) only ever sees live items.
        CompletionRecord expired = expiredRecord(batch, now);
        applyRecord(expired, stats_, trackerActive_);
        if (batch.items.empty())
            continue;
        const sim::Tick service = inference_.serviceTimeNs(
            batchSamples(batch), now, batchMeta(batch));
        ++busyWorkers_;
        executor_.scheduleAfter(
            service, [this, batch = std::move(batch), now]() mutable {
                finishBatch(std::move(batch), now);
            });
    }
    dispatching_ = false;
}

void
EventWorkerPool::finishBatch(Batch &&batch, sim::Tick dispatched_at)
{
    // runBatch is instantaneous in host time; virtual time already
    // advanced by the modeled service time, so the record's busy time
    // is exactly that service time.
    CompletionRecord record = runBatchRecord(
        executor_, inference_, std::move(batch), dispatched_at);
    applyRecord(record, stats_, trackerActive_);
    --busyWorkers_;
    dispatch(true);
}

// ------------------------------------------------------ pool choice

PoolPlan
resolvePlan(PoolPlan plan, const sim::Executor &executor)
{
    if (plan.mode == WorkerMode::Auto) {
        plan.mode = executor.virtualTime() ? WorkerMode::Events
                                           : WorkerMode::Threads;
    }
    if (plan.mode != WorkerMode::Threads) {
        plan.shards = 1;  // the event pool is single-threaded already
        plan.activeShards = 0;
    } else if (plan.activeShards == 0) {
        plan.shards = std::clamp<int64_t>(
            plan.shards, 1, std::max<int64_t>(1, plan.workers));
    }
    return plan;
}

std::unique_ptr<WorkerPool>
makeWorkerPool(sim::Executor &executor, BatchInference &inference,
               ServingStats &stats, const PoolPlan &plan,
               WorkerPool::PullFn pull)
{
    if (plan.mode == WorkerMode::Threads) {
        ShardOptions sharding;
        sharding.shards = plan.shards;
        sharding.initialActiveShards = plan.activeShards;
        sharding.workersPerShard =
            std::max<int64_t>(1, plan.workers / plan.shards);
        sharding.queueCapacityBatches =
            plan.queueCapacityBatches == 0
                ? 0
                : std::max<size_t>(1, plan.queueCapacityBatches /
                                          static_cast<size_t>(plan.shards));
        sharding.stealWhenIdle = plan.stealWhenIdle;
        sharding.trackerActive = plan.trackerActive;
        sharding.sloTargetNs = plan.sloTargetNs;
        return std::make_unique<ShardedWorkerPool>(
            executor, inference, stats, sharding, std::move(pull));
    }
    return std::make_unique<EventWorkerPool>(
        executor, inference, stats, plan.workers, plan.queueCapacityBatches,
        plan.trackerActive, std::move(pull));
}

} // namespace serving
} // namespace mlperf
