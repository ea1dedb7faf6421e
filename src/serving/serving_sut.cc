#include "serving/serving_sut.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mlperf {
namespace serving {

namespace {

/** Per-observation weight of the shed-rate EWMA. */
constexpr double kShedEwmaAlpha = 0.1;

} // namespace

ServingSut::ServingSut(sim::Executor &executor,
                       BatchInference &inference, ServingOptions options)
    : executor_(executor), inference_(inference), options_(options),
      shedEwma_(kShedEwmaAlpha),
      // Engage degraded mode at the threshold, release at half of it.
      degradeLatch_(options.degradeShedRateThreshold,
                    options.degradeShedRateThreshold / 2.0)
{
    PoolPlan plan;
    plan.mode = options_.mode;
    plan.workers = options_.workers;
    plan.queueCapacityBatches = options_.queueCapacityBatches;
    plan.shards = options_.shards;
    plan.stealWhenIdle = options_.stealWhenIdle;
    plan.sloTargetNs = options_.autoscale.sloTargetNs;
    if (options_.autoscale.enabled) {
        // Built at the ceiling with workers per shard, so capacity
        // scales with the active count; `shards` start active.
        const int64_t maxShards =
            std::max<int64_t>(1, options_.autoscale.maxShards);
        const int64_t minShards = std::max<int64_t>(
            1, std::min(options_.autoscale.minShards, maxShards));
        plan.shards = maxShards;
        plan.activeShards =
            std::clamp(options_.shards, minShards, maxShards);
    }
    plan = resolvePlan(plan, executor_);
    mode_ = plan.mode;

    if (options_.admission.enabled()) {
        admission_ =
            std::make_unique<AdmissionController>(options_.admission);
    }
    // The tracker is needed whenever completions must be observed:
    // deadlines (reaper) or admission (budget release).
    if (options_.queryDeadlineNs != 0 || admission_) {
        tracker_ = std::make_shared<CompletionTracker>(
            executor_, stats_, admission_.get());
    }
    plan.trackerActive = tracker_ != nullptr;

    BatchInference *engine = &inference_;
    if (options_.retry.enabled() || options_.breaker.enabled ||
        options_.fallback != nullptr) {
        resilient_ = std::make_unique<ResilientInference>(
            executor_, inference_, options_.fallback, options_.retry,
            options_.breaker, stats_);
        engine = resilient_.get();
    }

    // Window 0 is demand dispatch: each shard's batcher asks the pool
    // whether a worker of that shard is free, and a worker that runs
    // out of queued batches pulls from its shard's batcher. The
    // batchers exist before the pool because its workers may pull as
    // soon as they start.
    const bool demand = options_.batchTimeoutNs == 0;
    batchers_.reserve(static_cast<size_t>(plan.shards));
    for (int64_t s = 0; s < plan.shards; ++s) {
        const size_t shard = static_cast<size_t>(s);
        DynamicBatcher::DemandFn workerFree;
        if (demand)
            workerFree = [this, shard] { return pool_->workerFree(shard); };
        batchers_.push_back(std::make_unique<DynamicBatcher>(
            executor_, options_.maxBatch, options_.batchTimeoutNs,
            [this, shard](Batch &&batch) {
                onBatchFormed(shard, std::move(batch));
            },
            std::move(workerFree)));
    }
    WorkerPool::PullFn pull;
    if (demand)
        pull = [this](size_t shard) { return batchers_[shard]->pull(); };
    pool_ = makeWorkerPool(executor_, *engine, stats_, plan,
                           std::move(pull));
    sharded_ = dynamic_cast<ShardedWorkerPool *>(pool_.get());

    activeBatchers_.store(sharded_ ? sharded_->activeShardCount() : 1,
                          std::memory_order_release);

    if (plan.activeShards > 0) {
        // Keep the issue-side batcher fan-out in lockstep with the
        // pool's active prefix. On shrink the victim's batcher is
        // flushed *while its queue still accepts*, so held partial
        // batches land ahead of the close; a straggler emitted later
        // (timeout race) reroutes inside submitTo. Batchers are never
        // destroyed, only un-routed, so no emission can dangle.
        sharded_->setScaleHooks(
            [this](size_t active) {
                activeBatchers_.store(active,
                                      std::memory_order_release);
                batchers_[active]->flush();
            },
            [this](size_t active) {
                activeBatchers_.store(active,
                                      std::memory_order_release);
            });
        autoscaler_ = std::make_unique<ShardAutoscaler>(
            *sharded_, stats_, options_.autoscale);
    }
}

ServingSut::~ServingSut()
{
    shutdown();
}

std::string
ServingSut::name() const
{
    return inference_.name() + "+serving";
}

void
ServingSut::noteShedSignal(uint64_t samples, bool shed)
{
    if (options_.degradeShedRateThreshold <= 0.0 || !resilient_ ||
        options_.fallback == nullptr) {
        return;
    }
    std::lock_guard<std::mutex> lock(degradeMutex_);
    const double target = shed ? 1.0 : 0.0;
    for (uint64_t i = 0; i < samples; ++i)
        shedEwma_.observe(target);
    // The latch is the hysteresis: the gap between its engage and
    // release thresholds keeps the SUT from flapping between fp32 and
    // the fallback on noise.
    const bool was = degradeLatch_.engaged();
    const bool engaged = degradeLatch_.update(shedEwma_.value());
    if (engaged && !was) {
        resilient_->setDegraded(true);
        stats_.recordDegradeMode(true);
        MLPERF_LOG(Warn) << name() << ": shed-rate EWMA "
                         << shedEwma_.value() << " crossed "
                         << options_.degradeShedRateThreshold
                         << ", entering degraded mode";
    } else if (!engaged && was) {
        resilient_->setDegraded(false);
        stats_.recordDegradeMode(false);
        MLPERF_LOG(Info) << name()
                         << ": shed-rate recovered, leaving degraded "
                            "mode";
    }
}

void
ServingSut::issueQuery(const std::vector<loadgen::QuerySample> &samples,
                       loadgen::ResponseDelegate &delegate)
{
    uint64_t depth = pool_->queuedSamples() + samples.size();
    for (const auto &batcher : batchers_)
        depth += batcher->pending();
    stats_.recordIssued(samples.size(), depth);

    if (admission_ &&
        !admission_->tryAdmit(samples.size(), depth - samples.size())) {
        noteShedSignal(samples.size(), true);
        shedAtAdmission(stats_, samples, delegate);
        return;
    }
    noteShedSignal(samples.size(), false);

    sim::Tick deadline = 0;
    if (options_.queryDeadlineNs != 0)
        deadline = executor_.now() + options_.queryDeadlineNs;

    loadgen::ResponseDelegate *target = &delegate;
    if (tracker_) {
        tracker_->track(samples, delegate, deadline);
        target = tracker_.get();
    }
    // Hash-partition the query across the *active* shards: each
    // sample lives its whole queued life (batcher, queue, worker)
    // inside one shard. The active count is the autoscaler's routing
    // surface; static configurations always see batchers_.size().
    const size_t shards =
        std::max<size_t>(1, activeBatchers_.load(
                                std::memory_order_acquire));
    if (shards == 1) {
        batchers_[0]->enqueue(samples, *target, deadline);
        return;
    }
    std::vector<std::vector<loadgen::QuerySample>> parts(shards);
    for (const auto &sample : samples) {
        parts[ShardedWorkerPool::shardFor(sample.id, shards)]
            .push_back(sample);
    }
    for (size_t s = 0; s < shards; ++s) {
        if (!parts[s].empty())
            batchers_[s]->enqueue(parts[s], *target, deadline);
    }
    if (!autoscaler_)
        return;
    // A shrink may have unrouted a shard after the count above was
    // read. Its scale hook flushes the batcher after unrouting, so
    // either that flush saw these samples or this re-read sees the
    // smaller count. Flush them here then: the shard's workers are
    // leaving, so no demand would release them, and the flushed batch
    // reroutes in submitTo.
    const size_t active = activeBatchers_.load(std::memory_order_acquire);
    for (size_t s = active; s < shards; ++s) {
        if (!parts[s].empty())
            batchers_[s]->flush();
    }
}

void
ServingSut::flushQueries()
{
    for (const auto &batcher : batchers_)
        batcher->flush();
}

void
ServingSut::shutdown()
{
    if (shutdownDone_)
        return;
    shutdownDone_ = true;
    // Stop the controller first so no grow/shrink races the teardown.
    if (autoscaler_)
        autoscaler_->stop();
    // Flush-then-drain: emit held batches, join/drain the workers so
    // no completion is in flight, then time out whatever the tracker
    // still holds (lost completions). After this no code path touches
    // the LoadGen's delegate again.
    for (const auto &batcher : batchers_)
        batcher->flush();
    pool_->shutdown();
    if (tracker_)
        tracker_->drain();
}

void
ServingSut::onBatchFormed(size_t shard, Batch &&batch)
{
    stats_.recordBatchFormed(batch);
    const bool admitted =
        sharded_ ? sharded_->submitTo(shard, batch) : pool_->submit(batch);
    if (!admitted)
        shedBatch(batch);
}

void
ServingSut::shedBatch(const Batch &batch)
{
    stats_.recordShed(batch.items.size());
    noteShedSignal(batch.items.size(), true);
    MLPERF_LOG(Warn) << name() << ": worker queue full, shedding "
                     << batch.items.size() << " sample(s)";
    completeBatch(batch,
                  errorResponses(batch, loadgen::ResponseStatus::Shed),
                  tracker_ ? nullptr : &stats_);
}

} // namespace serving
} // namespace mlperf
