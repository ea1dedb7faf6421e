/**
 * @file
 * Differential parity suite for the compiled execution path: every
 * proxy model under src/models must produce the same outputs through
 * its fused, memory-planned CompiledModel as through the eager
 * Layer::forward reference — FP32 within 1e-4 relative (fusion and
 * the NCHWc direct kernels reorder float math; large logits make an
 * absolute bound sub-ulp), INT8 bit-exact — at batch 1 and batch 8.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "models/classifier.h"
#include "models/detector.h"
#include "models/translator.h"
#include "nn/plan.h"

namespace mlperf {
namespace models {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor
stackImages(const data::ClassificationDataset &dataset, int64_t batch)
{
    const auto &cfg = dataset.config();
    Tensor out(Shape{batch, cfg.channels, cfg.height, cfg.width});
    for (int64_t i = 0; i < batch; ++i) {
        const Tensor img = dataset.image(i);
        for (int64_t j = 0; j < img.numel(); ++j)
            out[i * img.numel() + j] = img[j];
    }
    return out;
}

void
expectNear(const Tensor &a, const Tensor &b, float tol)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i) {
        const float bound =
            tol * std::max(1.0f, std::fabs(b[i]));
        ASSERT_NEAR(a[i], b[i], bound) << "index " << i;
    }
}

void
expectBitExact(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_EQ(a[i], b[i]) << "index " << i;
}

void
checkClassifierParity(ImageClassifier &model,
                      const data::ClassificationDataset &dataset)
{
    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor input = stackImages(dataset, batch);
        const Tensor eager = model.network().forward(input);
        const Tensor planned = nn::ExecutionInstance::thread().forward(
            model.compiled(), input);
        expectNear(planned, eager, 1e-4f);
    }
}

void
checkClassifierInt8Parity(ImageClassifier &model,
                          const data::ClassificationDataset &dataset)
{
    ASSERT_GT(model.quantize(dataset), 0);
    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor input = stackImages(dataset, batch);
        // network_ now holds the quantized layers; the compiled graph
        // was re-lowered from them, so outputs must agree exactly.
        const Tensor eager = model.network().forward(input);
        const Tensor planned = nn::ExecutionInstance::thread().forward(
            model.compiled(), input);
        expectBitExact(planned, eager);
    }
}

TEST(CompiledParity, ResnetProxyFp32)
{
    data::ClassificationDataset dataset;
    ImageClassifier model = ImageClassifier::resnet50Proxy(dataset);
    checkClassifierParity(model, dataset);
}

TEST(CompiledParity, ResnetProxyInt8)
{
    data::ClassificationDataset dataset;
    ImageClassifier model = ImageClassifier::resnet50Proxy(dataset);
    checkClassifierInt8Parity(model, dataset);
}

TEST(CompiledParity, MobilenetProxyFp32)
{
    data::ClassificationDataset dataset;
    ImageClassifier model = ImageClassifier::mobilenetProxy(dataset);
    checkClassifierParity(model, dataset);
}

TEST(CompiledParity, MobilenetProxyInt8)
{
    data::ClassificationDataset dataset;
    ImageClassifier model = ImageClassifier::mobilenetProxy(dataset);
    checkClassifierInt8Parity(model, dataset);
}

TEST(CompiledParity, ResnetPlannerBeatsNaiveFootprint)
{
    // The acceptance bar: liveness planning must beat the no-reuse
    // arena for ResNet-class graphs (skip edges and all).
    data::ClassificationDataset dataset;
    ImageClassifier model = ImageClassifier::resnet50Proxy(dataset);
    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const nn::Plan &plan = model.compiled().planFor(batch);
        EXPECT_LT(plan.arenaFloats, plan.naiveFloats)
            << "batch " << batch;
    }
}

TEST(CompiledParity, ClassifyBatchPointerOverloadMatchesSingles)
{
    data::ClassificationDataset dataset;
    ImageClassifier model = ImageClassifier::mobilenetProxy(dataset);
    std::vector<Tensor> images;
    for (int64_t i = 0; i < 6; ++i)
        images.push_back(dataset.image(i));
    std::vector<const Tensor *> ptrs;
    for (const Tensor &img : images)
        ptrs.push_back(&img);
    const std::vector<int64_t> batched = model.classifyBatch(ptrs);
    ASSERT_EQ(batched.size(), images.size());
    for (size_t i = 0; i < images.size(); ++i)
        EXPECT_EQ(batched[i], model.classify(images[i]))
            << "image " << i;
}

Tensor
stackScenes(const data::DetectionDataset &dataset, int64_t batch)
{
    const auto &cfg = dataset.config();
    Tensor out(Shape{batch, cfg.channels, cfg.height, cfg.width});
    for (int64_t i = 0; i < batch; ++i) {
        const Tensor img = dataset.image(i);
        for (int64_t j = 0; j < img.numel(); ++j)
            out[i * img.numel() + j] = img[j];
    }
    return out;
}

TEST(CompiledParity, DetectorFp32AndInt8)
{
    data::DetectionDataset dataset;
    ObjectDetector model = ObjectDetector::ssdMobilenetProxy(dataset);
    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor input = stackScenes(dataset, batch);
        expectNear(nn::ExecutionInstance::thread().forward(
                       model.compiled(), input),
                   model.network().forward(input), 1e-4f);
    }

    ASSERT_GT(model.quantize(dataset), 0);
    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor input = stackScenes(dataset, batch);
        expectBitExact(nn::ExecutionInstance::thread().forward(
                           model.compiled(), input),
                       model.network().forward(input));
    }
}

TEST(CompiledParity, TranslatorProjectionFp32AndInt8)
{
    data::TranslationDataset dataset;
    Translator model = Translator::gnmtProxy(dataset);
    const int64_t dim = model.compiledProjection()
                            .sampleShape()
                            .dim(0);
    const auto makeContexts = [&](int64_t batch, float scale) {
        Tensor ctx(Shape{batch, dim});
        for (int64_t i = 0; i < ctx.numel(); ++i)
            ctx[i] = scale * static_cast<float>((i % 13) - 6);
        return ctx;
    };
    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor ctx = makeContexts(batch, 0.05f);
        expectNear(nn::ExecutionInstance::thread().forward(
                       model.compiledProjection(), ctx),
                   model.outputProjection().forward(ctx), 1e-4f);
    }

    ASSERT_GT(model.quantize(dataset), 0);
    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor ctx = makeContexts(batch, 0.05f);
        expectBitExact(nn::ExecutionInstance::thread().forward(
                           model.compiledProjection(), ctx),
                       model.outputProjection().forward(ctx));
    }
}

TEST(CompiledParity, TranslatorProjectionPlanShape)
{
    data::TranslationDataset dataset;
    const Translator model = Translator::gnmtProxy(dataset);
    const nn::Plan &plan = model.compiledProjection().planFor(1);
    EXPECT_EQ(plan.outputNumel, dataset.config().vocabSize);
    // Per-step decode through the plan must be stable.
    const auto first = model.translate(dataset.source(0));
    const auto again = model.translate(dataset.source(0));
    EXPECT_EQ(first, again);
}

} // namespace
} // namespace models
} // namespace mlperf
