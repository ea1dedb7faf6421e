#include "sim/real_executor.h"

#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace mlperf {
namespace sim {

namespace {

/**
 * Sets the calling thread's timer slack to 1 ns while it lives, then
 * restores the old value. Linux defers a timed wait's expiry by up to
 * the slack (50 us by default); at 1 ns the park ends on time and only
 * the CPU's wake-up remains. A no-op on other systems.
 */
class FineTimerSlack
{
  public:
    FineTimerSlack()
    {
#ifdef __linux__
        const int old = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
        if (old > 0 && prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0) == 0)
            saved_ = old;
#endif
    }

    ~FineTimerSlack()
    {
#ifdef __linux__
        if (saved_ > 0) {
            prctl(PR_SET_TIMERSLACK,
                  static_cast<unsigned long>(saved_), 0, 0, 0);
        }
#endif
    }

    FineTimerSlack(const FineTimerSlack &) = delete;
    FineTimerSlack &operator=(const FineTimerSlack &) = delete;

  private:
    int saved_ = 0;  //!< slack to restore; 0 = left unchanged
};

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
}

/** Spin iterations between yields: a runnable thread sharing this
 *  CPU (a 1-CPU host) gets it back within a few microseconds. */
constexpr unsigned kSpinsPerYield = 32;

} // namespace

Tick
RealExecutor::now() const
{
    return static_cast<Tick>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_).count());
}

void
RealExecutor::schedule(Tick when, Task task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push(Event{when, nextSeq_++, std::move(task)});
    }
    spinCut_.store(true, std::memory_order_release);
    cv_.notify_one();
}

void
RealExecutor::spinUntil(Tick due) const
{
    unsigned spins = 0;
    while (!spinCut_.load(std::memory_order_acquire) && now() < due) {
        cpuRelax();
        if (++spins % kSpinsPerYield == 0)
            std::this_thread::yield();
    }
}

void
RealExecutor::run()
{
    const FineTimerSlack slack;
    std::unique_lock<std::mutex> lock(mutex_);
    stopped_ = false;
    while (!stopped_) {
        if (queue_.empty()) {
            cv_.wait(lock);
            continue;
        }
        const Tick due = queue_.top().when;
        const Tick current = now();
        if (due > current) {
            if (due - current > kSpinGuardNs) {
                // Park until the guard before the event, or until a
                // new earlier event / stop request arrives.
                cv_.wait_until(lock, epoch_ + std::chrono::nanoseconds(
                                                  due - kSpinGuardNs));
                continue;
            }
            // Within the guard: spin to the tick with the lock free,
            // then re-read the queue (an earlier event may have come).
            spinCut_.store(false, std::memory_order_relaxed);
            lock.unlock();
            spinUntil(due);
            lock.lock();
            continue;
        }
        Task task = std::move(const_cast<Event &>(queue_.top()).task);
        queue_.pop();
        lock.unlock();
        task();
        lock.lock();
    }
}

void
RealExecutor::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
    }
    spinCut_.store(true, std::memory_order_release);
    cv_.notify_all();
}

} // namespace sim
} // namespace mlperf
