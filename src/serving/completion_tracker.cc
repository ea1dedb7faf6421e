#include "serving/completion_tracker.h"

#include "common/lock_probe.h"

namespace mlperf {
namespace serving {

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
    finish(fresh, owners);
}

void
CompletionTracker::finish(
    const std::vector<loadgen::QuerySampleResponse> &responses,
    const std::vector<loadgen::ResponseDelegate *> &owners)
{
    if (responses.empty())
        return;
    stats_.recordTerminal(responses);
    if (admission_)
        admission_->release(responses.size());
    loadgen::completeByDelegate(
        responses, [&owners](size_t i) { return owners[i]; });
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
    finish(expired, owners);
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
    finish(leftovers, owners);
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
