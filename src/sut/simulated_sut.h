/**
 * @file
 * Event-driven simulated inference system.
 *
 * Models a submitter's SUT in virtual time: a dynamic batcher feeding
 * a pool of inference engines, with batch-dependent efficiency, DVFS
 * warm-up, and latency jitter from the HardwareProfile. Together with
 * VirtualExecutor this executes full-scale LoadGen runs (270,336
 * queries) in well under a second of host time.
 */

#ifndef MLPERF_SUT_SIMULATED_SUT_H
#define MLPERF_SUT_SIMULATED_SUT_H

#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"
#include "loadgen/sut.h"
#include "sim/executor.h"
#include "sut/hardware_profile.h"
#include "sut/model_cost.h"

namespace mlperf {
namespace sut {

/** Submitter-tunable scheduling knobs; batches cap at profile.maxBatch. */
struct SchedulerOptions
{
    /**
     * How long the batcher may hold samples to form a fuller batch.
     * 0 dispatches immediately (query-at-a-time). The batching
     * ablation bench sweeps this.
     */
    sim::Tick batchWindowNs = 0;
    /**
     * Per-sample preprocessing cost ADDED TO THE TIMED PATH. MLPerf
     * v0.5 keeps preprocessing untimed (Sec. IV-A: "there is no
     * vendor- or application-neutral preprocessing"), i.e. 0 here;
     * the paper's roadmap item "timing preprocessing" is explored by
     * setting this nonzero (see bench_ablation_preprocessing).
     */
    sim::Tick timedPreprocessNsPerSample = 0;
};

class SimulatedSut : public loadgen::SystemUnderTest
{
  public:
    SimulatedSut(sim::Executor &executor, HardwareProfile profile,
                 ModelCost cost, SchedulerOptions options = {},
                 uint64_t seed = 0xDEC0DE);

    std::string name() const override { return profile_.systemName; }
    void issueQuery(const std::vector<loadgen::QuerySample> &samples,
                    loadgen::ResponseDelegate &delegate) override;
    void flushQueries() override;

    // ---- Introspection for tests and benches.
    uint64_t batchesDispatched() const { return batchesDispatched_; }
    uint64_t samplesProcessed() const { return samplesProcessed_; }
    double
    averageBatchSize() const
    {
        return batchesDispatched_ == 0
                   ? 0.0
                   : static_cast<double>(samplesProcessed_) /
                         static_cast<double>(batchesDispatched_);
    }

    /**
     * Dynamic energy consumed so far (joules); add idleWatts x run
     * time for wall energy. Lets benches report performance/watt.
     */
    double dynamicEnergyJoules() const { return dynamicJoules_; }

  private:
    struct PendingSample
    {
        loadgen::ResponseId id;
        loadgen::ResponseDelegate *delegate;
        double macs;  //!< per-sample work, drawn at enqueue
    };

    void flushBatcher();
    void dispatchReady();
    void startBatch(std::vector<PendingSample> batch);

    sim::Executor &executor_;
    HardwareProfile profile_;
    ModelCost cost_;
    SchedulerOptions options_;
    const int64_t maxBatch_;  //!< profile.maxBatch, at least 1
    Rng rng_;

    std::deque<PendingSample> batcher_;     //!< awaiting batch formation
    bool batcherFlushScheduled_ = false;
    std::deque<std::vector<PendingSample>> ready_;  //!< formed batches
    int64_t busyEngines_ = 0;

    uint64_t batchesDispatched_ = 0;
    uint64_t samplesProcessed_ = 0;
    double dynamicJoules_ = 0.0;
};

} // namespace sut
} // namespace mlperf

#endif // MLPERF_SUT_SIMULATED_SUT_H
