/**
 * @file
 * Analytical hardware model for simulated inference systems.
 *
 * The paper's evaluation draws on 600+ submissions spanning embedded
 * devices to data-center systems (Sec. VI). We reproduce that
 * population with parametric hardware profiles: compute throughput
 * with batch-dependent efficiency, fixed per-query overhead, DVFS
 * warm-up (the phenomenon behind the 60-second minimum run time,
 * Sec. III-D), and multiplicative latency jitter. DESIGN.md records
 * this substitution.
 */

#ifndef MLPERF_SUT_HARDWARE_PROFILE_H
#define MLPERF_SUT_HARDWARE_PROFILE_H

#include <cstdint>
#include <string>

#include "sim/executor.h"

namespace mlperf {
namespace sut {

/** Processor families from Figure 7. */
enum class ProcessorType { CPU, GPU, DSP, FPGA, ASIC };

std::string processorName(ProcessorType type);

/** Submission categories (Sec. V-A). */
enum class Category { Available, Preview, RDO };

std::string categoryName(Category category);

struct HardwareProfile
{
    std::string systemName = "generic";
    ProcessorType processor = ProcessorType::CPU;
    std::string framework = "TensorFlow";
    Category category = Category::Available;

    /** Peak sustained compute in MAC/s (x2 for FLOP/s). */
    double peakMacsPerSec = 1e11;
    /** Fraction of peak reached at batch 1. */
    double batchOneEfficiency = 0.3;
    /** Batch size at which the efficiency curve is clamped to 1.0. */
    int64_t saturationBatch = 32;
    /** Parallel inference engines (accelerator count). */
    int64_t acceleratorCount = 1;
    /** Fixed software/driver overhead per dispatched batch. */
    double overheadNs = 50e3;
    /** Log-scale latency noise (0 = deterministic). */
    double jitterFraction = 0.03;
    /** DVFS: seconds until clocks reach steady state... */
    double dvfsWarmupSeconds = 0.0;
    /** ...and the latency multiplier when completely cold. */
    double dvfsColdFactor = 1.0;
    /** Largest batch the runtime will form (dynamic batching cap). */
    int64_t maxBatch = 1;

    // ---- Energy model (the paper's population spans "three orders
    //      of magnitude in power consumption").
    /** Idle/static power draw in watts. */
    double idleWatts = 1.0;
    /** Dynamic energy per MAC in picojoules. */
    double picojoulesPerMac = 2.0;

    /**
     * Batch efficiency: saturating curve B / (B + c), with c chosen
     * so that efficiency at batch 1 equals batchOneEfficiency, and
     * clamped to 1.0 from saturationBatch upward. This matches the
     * fill-the-array behaviour of wide MAC engines: efficiency rises
     * steeply for small batches and flattens near peak.
     */
    double efficiencyAt(int64_t batch) const;

    /**
     * Time to execute a batch whose total work is @p macs, excluding
     * warm-up and jitter (sut::batchServiceNs applies those).
     */
    double batchSeconds(double macs, int64_t batch) const;

    /** DVFS latency multiplier at time @p now since run start. */
    double dvfsFactorAt(sim::Tick now) const;
};

} // namespace sut
} // namespace mlperf

#endif // MLPERF_SUT_HARDWARE_PROFILE_H
