/**
 * @file
 * Bounded lock-free multi-producer/single-consumer ring.
 *
 * The publication channel of the threaded serving runtime: workers
 * push completion records (lock-free, a CAS on the enqueue cursor
 * plus a release store on the cell sequence), and one consumer at a
 * time pops them with plain loads/stores. In ShardedWorkerPool the
 * consumer is whichever worker holds the drain role; the role passes
 * between threads through an acq_rel exchange, which orders one
 * holder's pops before the next holder's. The upstream LoadGen names
 * "efficient multi-thread friendly logging" as a design goal; this
 * ring is how the runtime keeps completion/stats publication off
 * every worker's critical path at saturation.
 *
 * Implementation: Dmitry Vyukov's bounded MPMC queue, specialized in
 * usage (one consumer at a time) but not in algorithm — each cell
 * carries a sequence number that encodes whether it is free, full,
 * or being written, so producers never wait on the consumer and vice
 * versa.
 *
 * Memory-order contract (documented in DESIGN.md "Sharded serving &
 * lock-free completion"):
 *  - a producer CASes the enqueue cursor (relaxed; the cursor only
 *    reserves a cell), moves the value in, then publishes with a
 *    release store of the cell sequence;
 *  - the consumer observes the value through an acquire load of the
 *    same sequence, so everything the producer wrote to the record
 *    happens-before the consumer's read;
 *  - a full ring fails tryPush rather than blocking or overwriting —
 *    callers fall back to a direct (locked) completion and count it.
 */

#ifndef MLPERF_SERVING_MPSC_RING_H
#define MLPERF_SERVING_MPSC_RING_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace mlperf {
namespace serving {

template <typename T>
class MpscRing
{
  public:
    /** @param capacity slot count; rounded up to a power of two. */
    explicit MpscRing(size_t capacity)
    {
        size_t cap = 2;
        while (cap < capacity)
            cap <<= 1;
        mask_ = cap - 1;
        cells_ = std::make_unique<Cell[]>(cap);
        for (size_t i = 0; i < cap; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    MpscRing(const MpscRing &) = delete;
    MpscRing &operator=(const MpscRing &) = delete;

    /**
     * Publish @p value (moved from on success). Lock-free and safe
     * from any number of producer threads. Returns false — leaving
     * @p value intact — when the ring is full.
     */
    bool
    tryPush(T &value)
    {
        uint64_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & mask_];
            const uint64_t seq =
                cell.seq.load(std::memory_order_acquire);
            const int64_t dif = static_cast<int64_t>(seq) -
                                static_cast<int64_t>(pos);
            if (dif == 0) {
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    cell.value = std::move(value);
                    cell.seq.store(pos + 1,
                                   std::memory_order_release);
                    return true;
                }
                // CAS failed: pos was reloaded; retry with it.
            } else if (dif < 0) {
                return false;  // full: the consumer is behind
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Consume the oldest record into @p out. One consumer at a time.
     * Returns false when the ring is empty.
     */
    bool
    tryPop(T &out)
    {
        const uint64_t pos = tail_.load(std::memory_order_relaxed);
        Cell &cell = cells_[pos & mask_];
        const uint64_t seq = cell.seq.load(std::memory_order_acquire);
        const int64_t dif = static_cast<int64_t>(seq) -
                            static_cast<int64_t>(pos + 1);
        if (dif < 0)
            return false;  // empty (or the producer mid-write)
        out = std::move(cell.value);
        // Mark the cell free for the producer one lap ahead.
        cell.seq.store(pos + mask_ + 1, std::memory_order_release);
        tail_.store(pos + 1, std::memory_order_relaxed);
        return true;
    }

    /**
     * Whether tryPop would yield a record now: the oldest cell is
     * published. False while that cell's producer is between its
     * cursor CAS and its release store, even if later cells are full.
     * Safe from any thread: a read of the consumer cursor that lags
     * another consumer's pops finds a freed or refilled cell, and
     * answers true.
     */
    bool
    ready() const
    {
        const uint64_t pos = tail_.load(std::memory_order_relaxed);
        const uint64_t seq =
            cells_[pos & mask_].seq.load(std::memory_order_acquire);
        const int64_t dif = static_cast<int64_t>(seq) -
                            static_cast<int64_t>(pos + 1);
        return dif >= 0;
    }

    /** Racy size estimate; exact only when producers are quiescent. */
    size_t
    approxSize() const
    {
        const uint64_t head = head_.load(std::memory_order_acquire);
        const uint64_t tail = tail_.load(std::memory_order_acquire);
        return head >= tail ? static_cast<size_t>(head - tail) : 0;
    }

    bool empty() const { return approxSize() == 0; }

    size_t capacity() const { return mask_ + 1; }

  private:
    struct Cell
    {
        std::atomic<uint64_t> seq{0};
        T value{};
    };

    std::unique_ptr<Cell[]> cells_;
    size_t mask_ = 0;
    /** Producer cursor on its own line: producers CAS it constantly. */
    alignas(64) std::atomic<uint64_t> head_{0};
    /** Consumer cursor likewise, so pops never bounce the head line. */
    alignas(64) std::atomic<uint64_t> tail_{0};
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_MPSC_RING_H
