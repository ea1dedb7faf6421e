/**
 * @file
 * Thread-local mutex-acquisition probe for the runtime's fast paths.
 *
 * The sharded runtime's contract is that a worker's completion fast
 * path — from runBatch returning to the completion record landing in
 * the shard's ring — acquires zero mutexes, and a serving worker that
 * runs its kernels inline takes none inside runBatch either.
 * Contracts rot unless they are checked: every instrumented lock site
 * bumps a thread-local counter, callers measure the delta across the
 * region they own, and tests assert the accumulated total stays zero.
 * Because the counter is thread-local, the probe adds no shared write
 * to the very paths it watches.
 *
 * Instrumented sites: the serving layer's bounded queue, serving
 * stats histograms, completion tracker and dynamic batcher, and the
 * intra-op ThreadPool's job locks (common/parallel). The one lock the
 * probe does not count is ThreadPool::global()'s lookup of the
 * process-wide pool; a thread bound to its own intra-op width never
 * takes it.
 */

#ifndef MLPERF_COMMON_LOCK_PROBE_H
#define MLPERF_COMMON_LOCK_PROBE_H

#include <cstdint>

namespace mlperf {

class LockProbe
{
  public:
    /** Called by instrumented lock sites on each acquire. */
    static void noteAcquire() { ++acquisitions_; }

    /** Instrumented acquisitions by the calling thread so far. */
    static uint64_t threadAcquisitions() { return acquisitions_; }

  private:
    inline static thread_local uint64_t acquisitions_ = 0;
};

} // namespace mlperf

#endif // MLPERF_COMMON_LOCK_PROBE_H
