#include "sut/serving_adapters.h"

#include <chrono>

namespace mlperf {
namespace sut {

ProfileBatchInference::ProfileBatchInference(HardwareProfile profile,
                                             ModelCost cost,
                                             uint64_t seed)
    : profile_(std::move(profile)), cost_(cost), rng_(seed)
{
}

std::vector<loadgen::QuerySampleResponse>
ProfileBatchInference::runBatch(
    const std::vector<loadgen::QuerySample> &samples)
{
    std::vector<loadgen::QuerySampleResponse> responses;
    responses.reserve(samples.size());
    for (const auto &sample : samples)
        responses.push_back({sample.id, ""});
    return responses;
}

sim::Tick
ProfileBatchInference::serviceTimeNs(
    const std::vector<loadgen::QuerySample> &samples, sim::Tick now)
{
    const int64_t batch = static_cast<int64_t>(samples.size());
    const double macs = batchMacs(
        cost_, batch, [this](int64_t) { return drawSampleMacs(cost_, rng_); });
    return batchServiceNs(profile_, macs, batch, now, rng_);
}

std::vector<loadgen::QuerySampleResponse>
ClassifierBatchInference::runBatch(
    const std::vector<loadgen::QuerySample> &samples)
{
    std::vector<loadgen::QuerySampleResponse> responses;
    responses.reserve(samples.size());
    // One compiled-plan execution per dynamic batch: the batcher's
    // whole point is that the worker runs these samples together.
    std::vector<const tensor::Tensor *> images;
    images.reserve(samples.size());
    for (const auto &sample : samples)
        images.push_back(&qsl_.sample(sample.index));
    const std::vector<int64_t> predicted = model_.classifyBatch(images);
    for (size_t i = 0; i < samples.size(); ++i) {
        responses.push_back(
            {samples[i].id, encodeClassification(predicted[i])});
    }
    return responses;
}

std::vector<loadgen::QuerySampleResponse>
SyntheticBatchInference::runBatch(
    const std::vector<loadgen::QuerySample> &samples)
{
    // Busy-wait, not sleep: the point is to occupy a worker the way
    // real compute would, so scheduler overheads stay visible.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(
                           perSampleNs_ *
                           static_cast<sim::Tick>(samples.size()));
    while (std::chrono::steady_clock::now() < until) {
    }
    batchesRun_.fetch_add(1, std::memory_order_relaxed);
    std::vector<loadgen::QuerySampleResponse> responses;
    responses.reserve(samples.size());
    for (const auto &sample : samples)
        responses.push_back({sample.id, ""});
    return responses;
}

uint64_t
publishProfileModel(serving::ModelRegistry &registry,
                    const std::string &name, std::string version,
                    const HardwareProfile &profile,
                    const ModelCost &cost, uint64_t seed)
{
    auto servable = std::make_shared<serving::ServableModel>();
    servable->version = std::move(version);
    servable->engine =
        std::make_unique<ProfileBatchInference>(profile, cost, seed);
    // Analytical models have no tensor form and no packed constants.
    return registry.publish(name, std::move(servable));
}

uint64_t
publishClassifierModel(serving::ModelRegistry &registry,
                       const std::string &name, std::string version,
                       const models::ImageClassifier &model,
                       const ClassificationQsl &qsl)
{
    auto servable = std::make_shared<serving::ServableModel>();
    servable->version = std::move(version);
    servable->engine =
        std::make_unique<ClassifierBatchInference>(model, qsl);
    servable->forward =
        [&model](const tensor::Tensor &input) -> tensor::Tensor {
        return nn::ExecutionInstance::thread().forward(model.compiled(),
                                                       input);
    };
    servable->constantBytes = model.compiled().constantBytes();
    servable->constantsId = &model.compiled();
    return registry.publish(name, std::move(servable));
}

} // namespace sut
} // namespace mlperf
