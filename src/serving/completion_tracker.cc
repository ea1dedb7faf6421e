#include "serving/completion_tracker.h"

#include "common/lock_probe.h"
#include "serving/batch.h"

namespace mlperf {
namespace serving {

namespace {

/**
 * Deliver @p responses grouped by owning delegate, preserving order
 * within each group. Called outside the tracker lock.
 */
void
deliverGrouped(
    const std::vector<loadgen::QuerySampleResponse> &responses,
    const std::vector<loadgen::ResponseDelegate *> &owners)
{
    std::vector<loadgen::QuerySampleResponse> group;
    loadgen::ResponseDelegate *delegate = nullptr;
    for (size_t i = 0; i < responses.size(); ++i) {
        if (delegate && owners[i] != delegate) {
            delegate->querySamplesComplete(group);
            group.clear();
        }
        delegate = owners[i];
        group.push_back(responses[i]);
    }
    if (delegate && !group.empty())
        delegate->querySamplesComplete(group);
}

} // namespace

void
CompletionTracker::track(
    const std::vector<loadgen::QuerySample> &samples,
    loadgen::ResponseDelegate &delegate, sim::Tick deadline)
{
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &sample : samples)
            pending_[sample.id] = &delegate;
    }
    if (deadline == 0)
        return;
    std::vector<loadgen::ResponseId> ids;
    ids.reserve(samples.size());
    for (const auto &sample : samples)
        ids.push_back(sample.id);
    // weak_ptr: the reaper may fire after ServingSut (and with it this
    // tracker) is gone; locking fails then and the event is a no-op.
    std::weak_ptr<CompletionTracker> self = weak_from_this();
    executor_.schedule(deadline, [self, ids = std::move(ids)] {
        if (auto tracker = self.lock())
            tracker->reap(ids);
    });
}

void
CompletionTracker::querySamplesComplete(
    const std::vector<loadgen::QuerySampleResponse> &responses)
{
    std::vector<loadgen::QuerySampleResponse> fresh;
    std::vector<loadgen::ResponseDelegate *> owners;
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &response : responses) {
            auto it = pending_.find(response.id);
            if (it == pending_.end())
                continue; // Already completed (reaped or duplicate).
            fresh.push_back(response);
            owners.push_back(it->second);
            pending_.erase(it);
        }
    }
    if (fresh.empty())
        return;
    for (const auto &response : fresh)
        stats_.recordTrackedCompletion(response.status, 1);
    if (admission_)
        admission_->release(fresh.size());
    deliverGrouped(fresh, owners);
}

void
CompletionTracker::reap(const std::vector<loadgen::ResponseId> &ids)
{
    std::vector<loadgen::QuerySampleResponse> expired;
    std::vector<loadgen::ResponseDelegate *> owners;
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        for (loadgen::ResponseId id : ids) {
            auto it = pending_.find(id);
            if (it == pending_.end())
                continue;
            expired.push_back(
                {id, "", loadgen::ResponseStatus::Timeout});
            owners.push_back(it->second);
            pending_.erase(it);
        }
    }
    if (expired.empty())
        return;
    stats_.recordTimeout(expired.size());
    stats_.recordTrackedCompletion(loadgen::ResponseStatus::Timeout,
                                   expired.size());
    if (admission_)
        admission_->release(expired.size());
    deliverGrouped(expired, owners);
}

void
CompletionTracker::drain()
{
    std::vector<loadgen::QuerySampleResponse> leftovers;
    std::vector<loadgen::ResponseDelegate *> owners;
    {
        LockProbe::noteAcquire();
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, delegate] : pending_) {
            leftovers.push_back(
                {id, "", loadgen::ResponseStatus::Timeout});
            owners.push_back(delegate);
        }
        pending_.clear();
    }
    if (leftovers.empty())
        return;
    stats_.recordTimeout(leftovers.size());
    stats_.recordTrackedCompletion(loadgen::ResponseStatus::Timeout,
                                   leftovers.size());
    if (admission_)
        admission_->release(leftovers.size());
    deliverGrouped(leftovers, owners);
}

uint64_t
CompletionTracker::outstanding() const
{
    LockProbe::noteAcquire();
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

} // namespace serving
} // namespace mlperf
