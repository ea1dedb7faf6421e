/**
 * @file
 * Adapters plugging this repository's two SUT families into the
 * serving runtime (src/serving):
 *
 *  - ProfileBatchInference: a simulated hardware profile + model
 *    cost, for event workers under virtual time. The same cost
 *    composition as SimulatedSut (sut/model_cost.h: batch
 *    efficiency, DVFS warm-up, jitter), but with
 *    queueing/batching/scheduling handled by ServingSut instead of
 *    inline.
 *  - ClassifierBatchInference: the real NN image classifier, for
 *    thread workers under wall-clock time — the concurrent
 *    counterpart of the inline ClassifierSut.
 *  - SyntheticBatchInference: a calibrated busy-wait, for scheduler
 *    benchmarks that need service time decoupled from model compute
 *    (e.g. the shard-scaling sweep in bench_serving_batching).
 */

#ifndef MLPERF_SUT_SERVING_ADAPTERS_H
#define MLPERF_SUT_SERVING_ADAPTERS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serving/batch_inference.h"
#include "serving/tenancy/model_registry.h"
#include "sut/hardware_profile.h"
#include "sut/model_cost.h"
#include "sut/nn_sut.h"

namespace mlperf {
namespace sut {

/** Analytical service-time model over a HardwareProfile. */
class ProfileBatchInference : public serving::BatchInference
{
  public:
    ProfileBatchInference(HardwareProfile profile, ModelCost cost,
                          uint64_t seed = 0xDEC0DE);

    std::string name() const override { return profile_.systemName; }

    /** No real compute: responses carry empty payloads. */
    std::vector<loadgen::QuerySampleResponse> runBatch(
        const std::vector<loadgen::QuerySample> &samples) override;

    sim::Tick serviceTimeNs(
        const std::vector<loadgen::QuerySample> &samples,
        sim::Tick now) override;

  private:
    HardwareProfile profile_;
    ModelCost cost_;
    Rng rng_;
};

/** Real classifier inference; thread-safe (models are stateless). */
class ClassifierBatchInference : public serving::BatchInference
{
  public:
    ClassifierBatchInference(const models::ImageClassifier &model,
                             const ClassificationQsl &qsl)
        : model_(model), qsl_(qsl)
    {
    }

    std::string name() const override { return model_.name(); }

    std::vector<loadgen::QuerySampleResponse> runBatch(
        const std::vector<loadgen::QuerySample> &samples) override;

  private:
    const models::ImageClassifier &model_;
    const ClassificationQsl &qsl_;
};

/**
 * Fixed per-sample service time burned as a busy-wait: the pure
 * scheduler load for worker-pool/shard benchmarks, with zero model
 * variance and no shared state between concurrent calls. Thread-safe.
 * Under an event executor, serviceTimeNs models the same cost so one
 * configuration works in both modes.
 */
class SyntheticBatchInference : public serving::BatchInference
{
  public:
    explicit SyntheticBatchInference(sim::Tick per_sample_ns)
        : perSampleNs_(per_sample_ns)
    {
    }

    std::string name() const override { return "synthetic"; }

    std::vector<loadgen::QuerySampleResponse> runBatch(
        const std::vector<loadgen::QuerySample> &samples) override;

    sim::Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &samples,
                  sim::Tick /*now*/) override
    {
        return perSampleNs_ * static_cast<sim::Tick>(samples.size());
    }

    uint64_t
    batchesRun() const
    {
        return batchesRun_.load(std::memory_order_relaxed);
    }

  private:
    const sim::Tick perSampleNs_;
    std::atomic<uint64_t> batchesRun_{0};
};

// ------------------------------------------- registry publish helpers

/**
 * Publish an analytical profile model into @p registry under
 * @p name: a ProfileBatchInference engine for event workers under
 * virtual time, no tensor entry point. Returns the entry's registry
 * generation.
 */
uint64_t publishProfileModel(serving::ModelRegistry &registry,
                             const std::string &name,
                             std::string version,
                             const HardwareProfile &profile,
                             const ModelCost &cost,
                             uint64_t seed = 0xDEC0DE);

/**
 * Publish the real classifier into @p registry under @p name: a
 * ClassifierBatchInference engine for thread workers, a tensor-level
 * forward through the compiled plan (for DAG stages), and
 * prepacked-constant accounting keyed by the CompiledModel's address
 * so aliases of one model are counted once. @p model and @p qsl must
 * outlive the registry entry (and any in-flight handles to it).
 */
uint64_t publishClassifierModel(serving::ModelRegistry &registry,
                                const std::string &name,
                                std::string version,
                                const models::ImageClassifier &model,
                                const ClassificationQsl &qsl);

} // namespace sut
} // namespace mlperf

#endif // MLPERF_SUT_SERVING_ADAPTERS_H
