#include "serving/batcher.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/lock_probe.h"

namespace mlperf {
namespace serving {

DynamicBatcher::DynamicBatcher(sim::Executor &executor,
                               int64_t max_batch, sim::Tick timeout_ns,
                               EmitFn emit, DemandFn worker_free)
    : executor_(executor), maxBatch_(std::max<int64_t>(1, max_batch)),
      timeoutNs_(timeout_ns), emit_(std::move(emit)),
      workerFree_(timeout_ns == 0 ? std::move(worker_free) : DemandFn{})
{
    assert(emit_ && "batcher needs an emit callback");
}

Batch
DynamicBatcher::takeBatch(size_t count, FlushReason reason)
{
    Batch batch;
    batch.formedAt = executor_.now();
    batch.reason = reason;
    batch.items.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        batch.items.push_back(std::move(pending_.front()));
        pending_.pop_front();
    }
    if (pending_.empty()) {
        ++generation_;  // any armed deadline is now stale
        deadlineArmed_ = false;
    }
    return batch;
}

void
DynamicBatcher::emitAll(std::vector<Batch> &batches)
{
    for (Batch &batch : batches)
        emit_(std::move(batch));
}

void
DynamicBatcher::armDeadline()
{
    deadlineArmed_ = true;
    const uint64_t generation = generation_;
    executor_.scheduleAfter(timeoutNs_, [this, generation] {
        onDeadline(generation);
    });
}

void
DynamicBatcher::enqueue(const std::vector<loadgen::QuerySample> &samples,
                        loadgen::ResponseDelegate &delegate,
                        sim::Tick deadline)
{
    std::vector<Batch> formed;
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        const sim::Tick now = executor_.now();
        for (const auto &sample : samples)
            pending_.push_back({sample, &delegate, now, deadline});

        while (static_cast<int64_t>(pending_.size()) >= maxBatch_) {
            formed.push_back(takeBatch(
                static_cast<size_t>(maxBatch_), FlushReason::Size));
        }
        if (!pending_.empty() && !workerFree_) {
            if (timeoutNs_ == 0) {
                // No window and no demand source: a zero-length
                // deadline expires at once, so dispatch in-line.
                formed.push_back(takeBatch(pending_.size(),
                                           FlushReason::Timeout));
            } else if (!deadlineArmed_) {
                armDeadline();
            }
        }
    }
    emitAll(formed);
    // Judge demand only now that the full batches are queued: an idle
    // worker they will occupy is not free for the remainder.
    Batch partial;
    if (workerFree_ && takeDemand(true, partial))
        emit_(std::move(partial));
}

bool
DynamicBatcher::takeDemand(bool ask_pool, Batch &out)
{
    LockProbe::noteAcquire();
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty() || (ask_pool && !workerFree_()))
        return false;
    out = takeBatch(std::min<size_t>(pending_.size(),
                                     static_cast<size_t>(maxBatch_)),
                    FlushReason::Demand);
    return true;
}

bool
DynamicBatcher::pull()
{
    Batch batch;
    if (!takeDemand(false, batch))
        return false;
    emit_(std::move(batch));
    return true;
}

void
DynamicBatcher::onDeadline(uint64_t generation)
{
    std::vector<Batch> formed;
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        if (generation != generation_)
            return;  // batch already left by size flush or drain
        deadlineArmed_ = false;
        if (!pending_.empty()) {
            formed.push_back(
                takeBatch(pending_.size(), FlushReason::Timeout));
        }
    }
    emitAll(formed);
}

void
DynamicBatcher::flush()
{
    std::vector<Batch> formed;
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        while (!pending_.empty()) {
            const size_t take = std::min<size_t>(
                pending_.size(), static_cast<size_t>(maxBatch_));
            formed.push_back(takeBatch(take, FlushReason::Drain));
        }
        ++generation_;
        deadlineArmed_ = false;
    }
    emitAll(formed);
}

size_t
DynamicBatcher::pending() const
{
    LockProbe::noteAcquire();
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

} // namespace serving
} // namespace mlperf
