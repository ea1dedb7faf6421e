/**
 * @file
 * Deadline-enforcing completion proxy between ServingSut and the
 * LoadGen's ResponseDelegate.
 *
 * Two fault modes make a plain fire-and-forget pipeline hang the
 * LoadGen: a worker that loses a completion (crash, dropped response)
 * and a query stuck behind a wedged worker past any useful deadline.
 * The tracker closes both holes: every admitted sample is registered
 * with its real delegate and (optionally) a deadline; the first
 * completion wins and later ones are ignored; a reaper event fires at
 * the deadline and completes whatever is still outstanding with
 * Timeout status. The run always finishes, and every lost or late
 * sample is visible in ServingStats instead of as a wedged run.
 * Its deduplicated forward, reap and drain are the only ways out for
 * a tracked sample, so they record the ServingStats ledger.
 */

#ifndef MLPERF_SERVING_COMPLETION_TRACKER_H
#define MLPERF_SERVING_COMPLETION_TRACKER_H

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "loadgen/sut.h"
#include "serving/resilience.h"
#include "serving/serving_stats.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

/**
 * ResponseDelegate proxy with first-completion-wins deduplication and
 * deadline reaping. Thread-safe. Held by shared_ptr: reaper events
 * capture a weak_ptr, so an event firing after ServingSut teardown is
 * a no-op rather than a use-after-free.
 */
class CompletionTracker
    : public loadgen::ResponseDelegate,
      public std::enable_shared_from_this<CompletionTracker>
{
  public:
    CompletionTracker(sim::Executor &executor, ServingStats &stats,
                      AdmissionController *admission)
        : executor_(executor), stats_(stats), admission_(admission)
    {
    }

    /**
     * Register @p samples for completion through @p delegate. If
     * @p deadline is nonzero, a reaper event at that tick completes
     * any still-outstanding sample with Timeout status.
     */
    void track(const std::vector<loadgen::QuerySample> &samples,
               loadgen::ResponseDelegate &delegate, sim::Tick deadline);

    /**
     * Forward completions to each sample's registered delegate,
     * dropping ids already completed (or never tracked). Records the
     * ledger and releases admission budget for every deduplicated
     * completion.
     */
    void querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override;

    /**
     * Complete every outstanding sample with Timeout status. Called
     * at shutdown after the worker pool has drained, so any sample
     * still tracked lost its completion; nothing can race a late
     * worker completion into a destroyed delegate afterwards.
     */
    void drain();

    /** Samples registered but not yet completed. */
    uint64_t outstanding() const;

  private:
    void reap(const std::vector<loadgen::ResponseId> &ids);
    /** Ledger, budget release, delivery (outside the lock). */
    void finish(const std::vector<loadgen::QuerySampleResponse> &responses,
                const std::vector<loadgen::ResponseDelegate *> &owners);

    sim::Executor &executor_;
    ServingStats &stats_;
    AdmissionController *admission_;
    mutable std::mutex mutex_;
    std::unordered_map<loadgen::ResponseId, loadgen::ResponseDelegate *>
        pending_;
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_COMPLETION_TRACKER_H
