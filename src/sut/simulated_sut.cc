#include "sut/simulated_sut.h"

#include <algorithm>

namespace mlperf {
namespace sut {

SimulatedSut::SimulatedSut(sim::Executor &executor,
                           HardwareProfile profile, ModelCost cost,
                           SchedulerOptions options, uint64_t seed)
    : executor_(executor), profile_(std::move(profile)), cost_(cost),
      options_(options),
      maxBatch_(std::max<int64_t>(1, profile_.maxBatch)), rng_(seed)
{
}

void
SimulatedSut::issueQuery(const std::vector<loadgen::QuerySample> &samples,
                         loadgen::ResponseDelegate &delegate)
{
    std::vector<PendingSample> incoming;
    incoming.reserve(samples.size());
    for (const auto &sample : samples)
        incoming.push_back(
            {sample.id, &delegate, drawSampleMacs(cost_, rng_)});

    // Length-sorted batching for big (offline-style) queries of
    // variable-length work: reordering within a query is allowed, and
    // it eliminates the padding waste of mixed-length batches.
    if (cost_.paddedBatching &&
        static_cast<int64_t>(incoming.size()) > maxBatch_) {
        std::sort(incoming.begin(), incoming.end(),
                  [](const PendingSample &a, const PendingSample &b) {
                      return a.macs < b.macs;
                  });
    }
    for (auto &sample : incoming)
        batcher_.push_back(std::move(sample));

    if (options_.batchWindowNs == 0 ||
        static_cast<int64_t>(batcher_.size()) >= maxBatch_) {
        flushBatcher();
    } else if (!batcherFlushScheduled_) {
        batcherFlushScheduled_ = true;
        executor_.scheduleAfter(options_.batchWindowNs, [this] {
            batcherFlushScheduled_ = false;
            flushBatcher();
        });
    }
}

void
SimulatedSut::flushQueries()
{
    flushBatcher();
}

void
SimulatedSut::flushBatcher()
{
    while (!batcher_.empty()) {
        const int64_t take = std::min<int64_t>(
            maxBatch_, static_cast<int64_t>(batcher_.size()));
        std::vector<PendingSample> batch;
        batch.reserve(static_cast<size_t>(take));
        for (int64_t i = 0; i < take; ++i) {
            batch.push_back(batcher_.front());
            batcher_.pop_front();
        }
        ready_.push_back(std::move(batch));
    }
    dispatchReady();
}

void
SimulatedSut::dispatchReady()
{
    while (busyEngines_ < profile_.acceleratorCount &&
           !ready_.empty()) {
        std::vector<PendingSample> batch = std::move(ready_.front());
        ready_.pop_front();
        startBatch(std::move(batch));
    }
}

void
SimulatedSut::startBatch(std::vector<PendingSample> batch)
{
    ++busyEngines_;
    ++batchesDispatched_;
    samplesProcessed_ += batch.size();

    const int64_t batch_size = static_cast<int64_t>(batch.size());
    const double macs = batchMacs(
        cost_, batch_size,
        [&batch](int64_t i) { return batch[static_cast<size_t>(i)].macs; });
    dynamicJoules_ += macs * profile_.picojoulesPerMac * 1e-12;
    const sim::Tick latency =
        batchServiceNs(profile_, macs, batch_size, executor_.now(), rng_,
                       options_.timedPreprocessNsPerSample);

    executor_.scheduleAfter(
        latency, [this, batch = std::move(batch)] {
            std::vector<loadgen::QuerySampleResponse> responses;
            responses.reserve(batch.size());
            for (const auto &sample : batch)
                responses.push_back({sample.id, ""});
            loadgen::completeByDelegate(responses, [&batch](size_t i) {
                return batch[i].delegate;
            });
            --busyEngines_;
            dispatchReady();
        });
}

} // namespace sut
} // namespace mlperf
