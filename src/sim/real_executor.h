/**
 * @file
 * Wall-clock executor backed by a timer thread.
 */

#ifndef MLPERF_SIM_REAL_EXECUTOR_H
#define MLPERF_SIM_REAL_EXECUTOR_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <queue>
#include <vector>

#include "sim/executor.h"

namespace mlperf {
namespace sim {

/**
 * Executor whose tick counter is wall-clock nanoseconds since run()
 * started. Events fire on the thread that called run(); schedule() may
 * be called from any thread (e.g. SUT inference workers completing
 * queries).
 *
 * Unlike VirtualExecutor, run() does not return when the queue drains —
 * a wall-clock scenario is still in flight while queries are pending —
 * it returns only on stop().
 *
 * Park, then spin. A timed condition-variable wait wakes late by the
 * thread's timer slack plus the wake-up of an idle CPU, and LoadGen
 * counts that lateness against the system (Server and TokenStream
 * latency runs from the scheduled arrival). So run() parks on the
 * condition variable only until kSpinGuardNs before the earliest due
 * tick, then releases the lock and spins to the tick itself. The spin
 * hand-off is one atomic, spinCut_: schedule() and stop() set it after
 * publishing under the lock, and the spinner, which cleared it under
 * the lock before it let go, leaves the spin when it reads it set and
 * re-reads the queue. While run() runs, the calling thread's timer
 * slack is 1 ns (Linux), so the park itself lands inside the guard.
 */
class RealExecutor : public Executor
{
  public:
    /**
     * How long before a due tick run() stops parking and spins; it is
     * also the spin's CPU cost, at most kSpinGuardNs per event (one
     * core x guard x event rate). It must exceed the park's wake-up
     * overshoot, or events fire late by the excess. On a 4-vCPU VM,
     * bench_executor_lateness measured that overshoot (a park with
     * no spin, 1 ns slack) at p99 64-164 us, largest at the lowest
     * rate (100 events/s), whose CPUs idle deepest; at the default
     * 50 us slack it was 117-182 us. 200 us covers the 1 ns p99 at
     * every rate: a 100 us guard left the 100/s and 700/s lateness
     * p99 at 60-65 us, 200 us at 29 and 15 us.
     */
    static constexpr Tick kSpinGuardNs = 200 * kNsPerUs;

    Tick now() const override;
    void schedule(Tick when, Task task) override;
    void run() override;
    void stop() override;

  private:
    using Clock = std::chrono::steady_clock;

    struct Event
    {
        Tick when;
        uint64_t seq;
        Task task;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Spin (lock released) until @p due or until spinCut_ is set. */
    void spinUntil(Tick due) const;

    Clock::time_point epoch_ = Clock::now();
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    uint64_t nextSeq_ = 0;
    bool stopped_ = false;
    /** Set by schedule()/stop(); cleared by run() before each spin. */
    alignas(64) std::atomic<bool> spinCut_{false};
};

} // namespace sim
} // namespace mlperf

#endif // MLPERF_SIM_REAL_EXECUTOR_H
