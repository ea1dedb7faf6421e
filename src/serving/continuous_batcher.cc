#include "serving/continuous_batcher.h"

#include <cassert>
#include <chrono>

#include "common/lock_probe.h"

namespace mlperf {
namespace serving {

std::string
batchingModeName(BatchingMode mode)
{
    return mode == BatchingMode::Continuous ? "continuous" : "static";
}

ContinuousBatcher::ContinuousBatcher(SequenceDecoder &decoder,
                                     sim::Executor &executor,
                                     ContinuousBatcherOptions options,
                                     ServingStats *stats)
    : decoder_(decoder), executor_(executor), options_(options),
      stats_(stats),
      ring_(options.ringCapacity), slots_(decoder.slotCount())
{
    assert(!slots_.empty());
    completionBuf_.reserve(1);
    if (options_.startThread)
        worker_ = std::thread([this] { workerLoop(); });
}

ContinuousBatcher::~ContinuousBatcher()
{
    stop_.store(true, std::memory_order_release);
    idleCv_.notify_all();
    if (worker_.joinable())
        worker_.join();
}

std::string
ContinuousBatcher::name() const
{
    return batchingModeName(options_.mode) + std::string("-batcher");
}

void
ContinuousBatcher::issueQuery(
    const std::vector<loadgen::QuerySample> &samples,
    loadgen::ResponseDelegate &delegate)
{
    for (const auto &sample : samples) {
        PendingSeq seq{sample, &delegate, executor_.now()};
        if (!ring_.tryPush(seq)) {
            shed(sample, delegate);
            continue;
        }
        admitted_.fetch_add(1, std::memory_order_relaxed);
        inFlight_.fetch_add(1, std::memory_order_relaxed);
    }
    // Producers never take the idle mutex: a missed notify is bounded
    // by the decode thread's timed park.
    idleCv_.notify_one();
}

void
ContinuousBatcher::flushQueries()
{
    while (!idle()) {
        if (!options_.startThread) {
            pump();
        } else {
            std::this_thread::sleep_for(
                std::chrono::microseconds(options_.idleWaitUs));
        }
    }
}

bool
ContinuousBatcher::idle() const
{
    return inFlight_.load(std::memory_order_acquire) == 0;
}

void
ContinuousBatcher::admitInto(size_t slot, PendingSeq &seq)
{
    Slot &s = slots_[slot];
    assert(!s.occupied);
    decoder_.prefill(slot, seq.sample.index);
    s.occupied = true;
    s.draining = false;
    s.firstTokenSent = false;
    s.sample = seq.sample;
    s.delegate = seq.delegate;
    s.enqueuedAt = seq.enqueuedAt;
    ++occupied_;
}

void
ContinuousBatcher::completeSlot(size_t slot)
{
    Slot &s = slots_[slot];
    completionBuf_.clear();
    loadgen::QuerySampleResponse response;
    response.id = s.sample.id;
    response.data = decoder_.result(slot);
    response.status = loadgen::ResponseStatus::Ok;
    response.tokenCount = decoder_.tokenCount(slot);
    completionBuf_.push_back(std::move(response));
    s.delegate->querySamplesComplete(completionBuf_);
    completed_.fetch_add(1, std::memory_order_relaxed);
    --occupied_;
    if (options_.mode == BatchingMode::Continuous) {
        decoder_.release(slot);
        s.occupied = false;
    } else {
        // The state stays resident: padStep needs it until the whole
        // batch drains.
        s.draining = true;
        ++draining_;
    }
    inFlight_.fetch_sub(1, std::memory_order_release);
}

void
ContinuousBatcher::shed(const loadgen::QuerySample &sample,
                        loadgen::ResponseDelegate &delegate)
{
    shed_.fetch_add(1, std::memory_order_relaxed);
    std::vector<loadgen::QuerySampleResponse> responses(1);
    responses[0].id = sample.id;
    responses[0].status = loadgen::ResponseStatus::Shed;
    delegate.querySamplesComplete(responses);
}

uint64_t
ContinuousBatcher::pump()
{
    const uint64_t locksBefore = LockProbe::threadAcquisitions();
    uint64_t work = 0;
    uint64_t stepped = 0;

    // ---- Admission (decode thread only, so slot scans race nothing).
    // Continuous: every free slot is fillable every round. Static:
    // admission reopens only once the previous batch fully drained.
    const bool may_admit =
        options_.mode == BatchingMode::Continuous
            ? occupied_ < slots_.size()
            : occupied_ == 0 && draining_ == 0;
    if (may_admit) {
        for (size_t s = 0; s < slots_.size(); ++s) {
            if (slots_[s].occupied)
                continue;
            PendingSeq seq;
            if (!ring_.tryPop(seq))
                break;
            admitInto(s, seq);
            ++work;
        }
    }

    if (occupied_ == 0 && draining_ == 0) {
        fastPathLocks_.fetch_add(
            LockProbe::threadAcquisitions() - locksBefore,
            std::memory_order_relaxed);
        return work;
    }

    // ---- One decode step per live slot; one pad step per drained
    // slot (static). Per-slot batch-1 compute: a sequence's tokens
    // cannot depend on who shares the round.
    for (size_t s = 0; s < slots_.size(); ++s) {
        Slot &slot = slots_[s];
        if (!slot.occupied)
            continue;
        if (slot.draining) {
            decoder_.padStep(s);
            padSteps_.fetch_add(1, std::memory_order_relaxed);
            ++stepped;
            ++work;
            continue;
        }
        const StepOutcome out = decoder_.step(s);
        tokens_.fetch_add(1, std::memory_order_relaxed);
        ++stepped;
        ++work;
        if (!slot.firstTokenSent) {
            slot.firstTokenSent = true;
            if (options_.ttftSloNs != 0) {
                const sim::Tick now = executor_.now();
                const sim::Tick ttft =
                    now >= slot.enqueuedAt ? now - slot.enqueuedAt : 0;
                const bool miss = ttft > options_.ttftSloNs;
                sloJudged_.fetch_add(1, std::memory_order_relaxed);
                if (miss) {
                    sloViolations_.fetch_add(
                        1, std::memory_order_relaxed);
                }
                if (stats_)
                    stats_->recordSloOutcome(1, miss ? 1 : 0);
            }
            slot.delegate->querySampleFirstToken(slot.sample.id);
        }
        if (out.finished)
            completeSlot(s);
    }

    // Static: once the longest member finishes no further fused step
    // runs, so the drained batch releases as a whole right here.
    if (options_.mode == BatchingMode::Static && occupied_ == 0 &&
        draining_ > 0) {
        for (size_t s = 0; s < slots_.size(); ++s) {
            if (!slots_[s].occupied)
                continue;
            assert(slots_[s].draining);
            decoder_.release(s);
            slots_[s].occupied = false;
            slots_[s].draining = false;
        }
        draining_ = 0;
    }

    if (stepped > 0) {
        decodeRounds_.fetch_add(1, std::memory_order_relaxed);
        slotStepSum_.fetch_add(stepped, std::memory_order_relaxed);
    }
    fastPathLocks_.fetch_add(
        LockProbe::threadAcquisitions() - locksBefore,
        std::memory_order_relaxed);
    return work;
}

void
ContinuousBatcher::workerLoop()
{
    while (!stop_.load(std::memory_order_acquire)) {
        if (pump() != 0)
            continue;
        std::unique_lock<std::mutex> lock(idleMutex_);
        idleCv_.wait_for(
            lock, std::chrono::microseconds(options_.idleWaitUs),
            [this] {
                return stop_.load(std::memory_order_acquire) ||
                       !ring_.empty();
            });
    }
    // Never wedge in-flight sequences on shutdown.
    while (!idle())
        pump();
}

BatcherCounters
ContinuousBatcher::counters() const
{
    BatcherCounters c;
    c.admitted = admitted_.load(std::memory_order_relaxed);
    c.shed = shed_.load(std::memory_order_relaxed);
    c.completed = completed_.load(std::memory_order_relaxed);
    c.tokens = tokens_.load(std::memory_order_relaxed);
    c.padSteps = padSteps_.load(std::memory_order_relaxed);
    c.decodeRounds = decodeRounds_.load(std::memory_order_relaxed);
    c.slotStepSum = slotStepSum_.load(std::memory_order_relaxed);
    c.sloJudged = sloJudged_.load(std::memory_order_relaxed);
    c.sloViolations = sloViolations_.load(std::memory_order_relaxed);
    c.fastPathLockAcquisitions =
        fastPathLocks_.load(std::memory_order_relaxed);
    return c;
}

// ------------------------------------------------- DecodeLaneRouter

namespace {

/** splitmix64: cheap, well-mixed sticky lane assignment. */
uint64_t
mixIndex(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

DecodeLaneRouter::DecodeLaneRouter(
    std::vector<std::unique_ptr<ContinuousBatcher>> lanes)
    : lanes_(std::move(lanes))
{
    assert(!lanes_.empty());
}

std::string
DecodeLaneRouter::name() const
{
    return lanes_[0]->name() + "-x" + std::to_string(lanes_.size());
}

void
DecodeLaneRouter::issueQuery(
    const std::vector<loadgen::QuerySample> &samples,
    loadgen::ResponseDelegate &delegate)
{
    if (lanes_.size() == 1) {
        lanes_[0]->issueQuery(samples, delegate);
        return;
    }
    // Route per sample; a sequence's slot state lives (and stays) in
    // the lane its index hashes to.
    std::vector<loadgen::QuerySample> one(1);
    for (const auto &sample : samples) {
        one[0] = sample;
        lanes_[mixIndex(sample.index) % lanes_.size()]->issueQuery(
            one, delegate);
    }
}

void
DecodeLaneRouter::flushQueries()
{
    for (auto &lane : lanes_)
        lane->flushQueries();
}

BatcherCounters
DecodeLaneRouter::counters() const
{
    BatcherCounters total;
    for (const auto &lane : lanes_) {
        const BatcherCounters c = lane->counters();
        total.admitted += c.admitted;
        total.shed += c.shed;
        total.completed += c.completed;
        total.tokens += c.tokens;
        total.padSteps += c.padSteps;
        total.decodeRounds += c.decodeRounds;
        total.slotStepSum += c.slotStepSum;
        total.sloJudged += c.sloJudged;
        total.sloViolations += c.sloViolations;
        total.fastPathLockAcquisitions += c.fastPathLockAcquisitions;
    }
    return total;
}

} // namespace serving
} // namespace mlperf
