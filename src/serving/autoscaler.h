/**
 * @file
 * SLO-driven shard autoscaler for the sharded serving runtime.
 *
 * The serving runtime's capacity knob is its active shard count:
 * each shard brings a batcher, a bounded queue, and workers.
 * Fixed provisioning must choose between wasting capacity at the
 * trough of a diurnal load curve and violating the latency SLO at its
 * peak. The autoscaler closes that loop: a controller thread samples
 * ServingStats on a fixed interval, computes the *SLO error rate* of
 * the interval — the fraction of demand that either missed the
 * latency target or was shed outright —
 *
 *     error = (slo violations + sheds) / (judged completions + sheds)
 *
 * smooths it with an EWMA (serving/ewma.h), and steps the pool's
 * active shard prefix: grow one shard when the smoothed error crosses
 * growThreshold, shrink one after the error has stayed at or below
 * shrinkThreshold for shrinkHoldIntervals consecutive intervals. The
 * asymmetry is deliberate — growing is cheap and urgent (SLO burn is
 * user-visible), shrinking is lazy (a premature shrink under a lull
 * of a bursty trace re-triggers the violation it just fixed).
 *
 * Scaling uses ShardedWorkerPool::growOneShard/shrinkOneShard, whose
 * drain-and-join shrink protocol guarantees no completion is lost or
 * duplicated; the worker fast path never sees the controller (it only
 * reads relaxed counters and takes the pool's scale mutex, which is
 * off the sample path by construction).
 *
 * step() is public and the controller thread optional (intervalNs =
 * 0) so tests drive the decision logic deterministically from
 * synthetic snapshots.
 */

#ifndef MLPERF_SERVING_AUTOSCALER_H
#define MLPERF_SERVING_AUTOSCALER_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "serving/ewma.h"
#include "serving/serving_stats.h"
#include "serving/shard.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

struct AutoscaleOptions
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;
    /** Active-shard floor (>= 1). */
    int64_t minShards = 1;
    /** Active-shard ceiling; the pool is built with this many. */
    int64_t maxShards = 4;
    /**
     * Per-sample completion-latency SLO judged by the pool's drain
     * role; the violation counts drive the error signal. 0 = only
     * sheds drive scaling.
     */
    sim::Tick sloTargetNs = 0;
    /**
     * Controller sampling interval; 0 disables the thread entirely
     * (tests call step() by hand).
     */
    sim::Tick intervalNs = 50 * sim::kNsPerMs;
    /** EWMA weight per interval observation. */
    double ewmaAlpha = 0.3;
    /** Grow when the smoothed error rate reaches this. */
    double growThreshold = 0.10;
    /** Shrink only while the smoothed error stays at or below this. */
    double shrinkThreshold = 0.02;
    /** Consecutive quiet intervals required before one shrink. */
    int shrinkHoldIntervals = 4;
};

class ShardAutoscaler
{
  public:
    /**
     * @p pool and @p stats must outlive the autoscaler. Spawns the
     * controller thread unless options.intervalNs == 0.
     */
    ShardAutoscaler(ShardedWorkerPool &pool, ServingStats &stats,
                    AutoscaleOptions options);
    ~ShardAutoscaler();

    /** Stop the controller thread (idempotent). */
    void stop();

    /**
     * One control decision from @p snapshot: compute the interval's
     * error rate from the counter deltas since the previous call,
     * fold it into the EWMA, and grow/shrink at most one shard.
     * Thread-safe; the controller thread is just a step() metronome.
     */
    void step(const StatsSnapshot &snapshot);

    /** Smoothed SLO error rate after the last step. */
    double errorEwma() const;

    /** Scale events decided by this controller (grow / shrink). */
    uint64_t scaleUps() const;
    uint64_t scaleDowns() const;

  private:
    void controllerLoop();

    ShardedWorkerPool &pool_;
    ServingStats &stats_;
    const AutoscaleOptions options_;

    mutable std::mutex mutex_;  //!< guards the control state below
    Ewma error_;
    int quietIntervals_ = 0;
    uint64_t lastSloSamples_ = 0;
    uint64_t lastSloViolations_ = 0;
    uint64_t lastSheds_ = 0;
    uint64_t ups_ = 0;
    uint64_t downs_ = 0;

    std::mutex cvMutex_;
    std::condition_variable cv_;
    bool stopRequested_ = false;  //!< guarded by cvMutex_
    std::thread controller_;
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_AUTOSCALER_H
