/**
 * @file
 * Per-task compute-cost models for the simulated SUTs, and the one
 * composition of a HardwareProfile's service time from them.
 *
 * Costs use the paper's Table I reference complexity (GOPs/input), so
 * simulated systems see the real relative weights of the five tasks —
 * including the Sec. VII-D observation that operation count alone
 * mispredicts throughput, which the structure discount models.
 */

#ifndef MLPERF_SUT_MODEL_COST_H
#define MLPERF_SUT_MODEL_COST_H

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "models/model_info.h"
#include "sim/executor.h"
#include "sut/hardware_profile.h"

namespace mlperf {
namespace sut {

struct ModelCost
{
    models::TaskType task = models::TaskType::ImageClassificationHeavy;
    /** Mean MACs per sample (paper GOPs / 2). */
    double macsPerSample = 4.1e9;
    /**
     * Coefficient of variation of per-sample work. Vision inputs are
     * fixed-size (cv ~ 0); NMT work scales with sentence length
     * (Sec. VI-B attributes NMT's server-scenario losses partly to
     * "variable text input").
     */
    double workCv = 0.0;
    /**
     * Achieved-throughput discount for network structure: Sec. VII-D
     * reports SSD-R34 costs 175x the ops of SSD-MobileNet but only
     * runs 50-60x slower, i.e. large dense networks utilize hardware
     * ~3x better. Modeled as a multiplier on effective MACs.
     */
    double structureDiscount = 1.0;
    /**
     * Sequence batching pads every sample in a batch to the longest
     * sequence, so a batch costs batch_size x max(work) rather than
     * sum(work). Offline queries may be length-sorted before batching
     * (reordering within a query is explicitly allowed), which the
     * server scenario's arrival order precludes — a key source of
     * GNMT's server-scenario throughput loss (Sec. VI-B).
     */
    bool paddedBatching = false;
};

/** Cost model for each of the five tasks. */
ModelCost modelCostFor(models::TaskType task);

// ---- Service-time composition, the one copy SimulatedSut and
//      ProfileBatchInference share. They differ only in when they
//      draw: SimulatedSut draws a sample's work at issue (Offline
//      length-sorts on it); ProfileBatchInference draws it at dispatch.

/**
 * One sample's work in MACs: mean x structure discount x, when
 * workCv > 0, a unit-mean lognormal with that cv drawn from @p rng.
 */
double drawSampleMacs(const ModelCost &cost, Rng &rng);

/**
 * A batch's work from its samples' work @p sample_macs(i), taken for
 * i = 0 .. @p count - 1 in order: the sum, or under paddedBatching
 * count x the longest, since every lane pads to it.
 */
template <typename SampleMacs>
double
batchMacs(const ModelCost &cost, int64_t count, SampleMacs &&sample_macs)
{
    double sum = 0.0;
    double longest = 0.0;
    for (int64_t i = 0; i < count; ++i) {
        const double macs = sample_macs(i);
        sum += macs;
        longest = std::max(longest, macs);
    }
    return cost.paddedBatching ? longest * static_cast<double>(count)
                               : sum;
}

/**
 * Service time of a @p batch -sample batch of @p macs total work that
 * starts at @p now: (batchSeconds + @p preprocess_ns_per_sample per
 * sample) x dvfsFactorAt(now) x, when jitterFraction > 0, one
 * lognormal jitter draw from @p rng.
 */
sim::Tick batchServiceNs(const HardwareProfile &profile, double macs,
                         int64_t batch, sim::Tick now, Rng &rng,
                         sim::Tick preprocess_ns_per_sample = 0);

/**
 * Samples/s @p profile sustains on @p cost at batch size @p batch,
 * ignoring jitter and DVFS: the analytical roofline that seeds the
 * harness's searches.
 */
double steadyStateThroughput(const HardwareProfile &profile,
                             const ModelCost &cost, int64_t batch);

} // namespace sut
} // namespace mlperf

#endif // MLPERF_SUT_MODEL_COST_H
