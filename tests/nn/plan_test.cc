/**
 * @file
 * Tests for the compile-then-execute runtime: differential parity of
 * compiled plans against the eager Sequential reference (FP32 to
 * 1e-4, INT8 bit-exact), memory-planner wins on residual graphs,
 * zero-heap-allocation steady state, and concurrent ExecutionInstances
 * sharing one CompiledModel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "nn/sequential.h"
#include "quant/quantize_model.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MLPERF_UNDER_SANITIZER 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MLPERF_UNDER_SANITIZER 1
#endif
#endif

// Binary-wide allocation counter: the zero-alloc steady-state test
// needs to observe every operator-new on the query path.
static std::atomic<long> g_heap_allocs{0};

// noinline, here and below: inlined into a caller's `new T` or
// `delete p`, the malloc/free inside reads to GCC as a mismatched
// pair (-Wmismatched-new-delete).
__attribute__((noinline)) void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void *
operator new[](std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mlperf {
namespace nn {
namespace {

using tensor::Conv2dParams;
using tensor::Shape;
using tensor::Tensor;

std::unique_ptr<Conv2dLayer>
makeConv(int64_t in_c, int64_t out_c, int64_t k, int64_t stride,
         bool relu, uint64_t seed)
{
    Rng rng(seed);
    Conv2dParams p{k, k, stride, stride, k / 2, k / 2};
    return std::make_unique<Conv2dLayer>(
        heNormal(Shape{out_c, in_c, k, k}, in_c * k * k, rng),
        zeroBias(out_c), p, relu);
}

/** A small ResNet-class model: stem, projection block, identity
 *  block, pooled dense head. Deterministic for a given call. */
Sequential
makeResnetish()
{
    Sequential model("resnetish");
    model.add(makeConv(2, 4, 3, 1, true, 100));
    model.add(std::make_unique<ResidualBlock>(
        makeConv(4, 8, 3, 2, true, 101),
        makeConv(8, 8, 3, 1, false, 102),
        makeConv(4, 8, 1, 2, false, 103)));
    model.add(std::make_unique<ResidualBlock>(
        makeConv(8, 8, 3, 1, true, 104),
        makeConv(8, 8, 3, 1, false, 105), nullptr));
    model.add(std::make_unique<GlobalAvgPoolLayer>());
    model.add(std::make_unique<FlattenLayer>());
    Rng rng(106);
    model.add(std::make_unique<DenseLayer>(
        heNormal(Shape{5, 8}, 8, rng), zeroBias(5)));
    return model;
}

constexpr int64_t kSampleC = 2, kSampleH = 8, kSampleW = 8;

/**
 * A model whose conv and dense GEMMs all clear the packed-kernel
 * threshold, so compiled queries actually stream weights from the
 * prepacked constant section instead of the small-shape fallback.
 * (makeResnetish is deliberately tiny; its GEMMs take the unpacked
 * small path.) The final dense stays below the threshold on purpose,
 * covering the prepared kernels' shape dispatch in one model.
 */
Sequential
makePrepackHeavy()
{
    Sequential model("prepack_heavy");
    model.add(makeConv(4, 24, 3, 1, true, 200));
    model.add(makeConv(24, 24, 3, 1, true, 201));
    model.add(std::make_unique<FlattenLayer>());
    Rng rng(202);
    model.add(std::make_unique<DenseLayer>(
        heNormal(Shape{32, 24 * 16 * 16}, 24 * 16 * 16, rng),
        zeroBias(32), /*fuse_relu=*/true));
    Rng rng2(203);
    model.add(std::make_unique<DenseLayer>(
        heNormal(Shape{10, 32}, 32, rng2), zeroBias(10)));
    return model;
}

constexpr int64_t kHeavyC = 4, kHeavyH = 16, kHeavyW = 16;

Tensor
randomHeavyInput(int64_t batch, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(Shape{batch, kHeavyC, kHeavyH, kHeavyW});
    for (int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.nextGaussian());
    return t;
}

Tensor
randomInput(int64_t batch, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(Shape{batch, kSampleC, kSampleH, kSampleW});
    for (int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.nextGaussian());
    return t;
}

std::vector<Tensor>
calibrationInputs()
{
    std::vector<Tensor> inputs;
    for (uint64_t s = 0; s < 4; ++s)
        inputs.push_back(randomInput(1, 500 + s));
    return inputs;
}

void
expectNear(const Tensor &a, const Tensor &b, float tol)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_NEAR(a[i], b[i], tol) << "index " << i;
}

TEST(CompiledModel, Fp32MatchesEagerAtBatchOneAndEight)
{
    const Sequential model = makeResnetish();
    const CompiledModel compiled(model,
                                 Shape{kSampleC, kSampleH, kSampleW});
    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor input = randomInput(batch, 600 + batch);
        const Tensor eager = model.forward(input);
        const Tensor planned =
            ExecutionInstance::thread().forward(compiled, input);
        expectNear(planned, eager, 1e-4f);
    }
}

TEST(CompiledModel, PlansAreCachedPerBatchSize)
{
    const Sequential model = makeResnetish();
    const CompiledModel compiled(model,
                                 Shape{kSampleC, kSampleH, kSampleW});
    const Plan &p1 = compiled.planFor(1);
    const Plan &p1_again = compiled.planFor(1);
    const Plan &p8 = compiled.planFor(8);
    EXPECT_EQ(&p1, &p1_again);
    EXPECT_NE(&p1, &p8);
    EXPECT_EQ(p1.batch, 1);
    EXPECT_EQ(p8.batch, 8);
    EXPECT_EQ(p8.inputNumel, 8 * kSampleC * kSampleH * kSampleW);
}

TEST(CompiledModel, PlannerBeatsNaiveFootprintOnResidualGraph)
{
    const Sequential model = makeResnetish();
    const CompiledModel compiled(model,
                                 Shape{kSampleC, kSampleH, kSampleW});
    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Plan &plan = compiled.planFor(batch);
        EXPECT_LT(plan.arenaFloats, plan.naiveFloats)
            << "no reuse at batch " << batch;
        EXPECT_GT(plan.arenaFloats, 0);
    }
}

TEST(CompiledModel, StageInputStacksSamplesZeroCopy)
{
    const Sequential model = makeResnetish();
    const CompiledModel compiled(model,
                                 Shape{kSampleC, kSampleH, kSampleW});
    const int64_t batch = 3;
    std::vector<Tensor> samples;
    for (int64_t i = 0; i < batch; ++i)
        samples.push_back(randomInput(1, 700 + static_cast<uint64_t>(i)));

    ExecutionInstance &instance = ExecutionInstance::thread();
    float *staged = instance.stageInput(compiled, batch);
    const int64_t sample_numel = kSampleC * kSampleH * kSampleW;
    for (int64_t i = 0; i < batch; ++i) {
        for (int64_t j = 0; j < sample_numel; ++j)
            staged[i * sample_numel + j] = samples[static_cast<size_t>(i)][j];
    }
    const float *out = instance.run(compiled, batch);

    Tensor stacked(Shape{batch, kSampleC, kSampleH, kSampleW});
    for (int64_t i = 0; i < batch; ++i) {
        for (int64_t j = 0; j < sample_numel; ++j)
            stacked[i * sample_numel + j] =
                samples[static_cast<size_t>(i)][j];
    }
    const Tensor eager = model.forward(stacked);
    for (int64_t i = 0; i < eager.numel(); ++i)
        ASSERT_NEAR(out[i], eager[i], 1e-4f) << "index " << i;
}

TEST(CompiledModel, Int8GraphQuantizationMatchesEagerBitExact)
{
    // Quantize one copy eagerly (Sequential path) and an identical
    // copy on the graph (compiled path); both must agree bit-for-bit.
    Sequential eager_model = makeResnetish();
    const Sequential graph_model = makeResnetish();
    const std::vector<Tensor> calib = calibrationInputs();

    const int eager_swaps =
        quant::quantizeSequential(eager_model, calib);
    EXPECT_GT(eager_swaps, 0);

    CompiledModel compiled(graph_model,
                           Shape{kSampleC, kSampleH, kSampleW});
    const int node_swaps = quant::quantizeGraph(
        compiled.graph(), Shape{kSampleC, kSampleH, kSampleW}, calib);
    EXPECT_GT(node_swaps, 0);
    compiled.invalidatePlans();

    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor input = randomInput(batch, 800 + batch);
        const Tensor eager = eager_model.forward(input);
        const Tensor planned =
            ExecutionInstance::thread().forward(compiled, input);
        ASSERT_EQ(planned.shape(), eager.shape());
        for (int64_t i = 0; i < planned.numel(); ++i)
            ASSERT_EQ(planned[i], eager[i]) << "index " << i;
    }
}

TEST(CompiledModel, SteadyStateQueryMakesNoHeapAllocations)
{
#ifdef MLPERF_UNDER_SANITIZER
    GTEST_SKIP() << "allocation counting is not meaningful under "
                    "sanitizers";
#endif
    const int restore_threads = ThreadPool::global()->threadCount();
    ThreadPool::setGlobalThreads(1);

    const Sequential model = makeResnetish();
    const CompiledModel compiled(model,
                                 Shape{kSampleC, kSampleH, kSampleW});
    const Tensor input = randomInput(4, 900);
    ExecutionInstance &instance = ExecutionInstance::thread();

    // Warm up: builds the plan, grows the arena and kernel scratch.
    for (int round = 0; round < 2; ++round) {
        float *staged = instance.stageInput(compiled, 4);
        for (int64_t i = 0; i < input.numel(); ++i)
            staged[i] = input[i];
        instance.run(compiled, 4);
    }

    const long before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int round = 0; round < 8; ++round) {
        float *staged = instance.stageInput(compiled, 4);
        for (int64_t i = 0; i < input.numel(); ++i)
            staged[i] = input[i];
        instance.run(compiled, 4);
    }
    const long after = g_heap_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << (after - before) << " allocations across 8 steady-state "
        << "queries";

    ThreadPool::setGlobalThreads(restore_threads);
}

TEST(CompiledModel, ConcurrentInstancesShareOneModel)
{
    const Sequential model = makeResnetish();
    const CompiledModel compiled(model,
                                 Shape{kSampleC, kSampleH, kSampleW});
    const Tensor input1 = randomInput(1, 1000);
    const Tensor input8 = randomInput(8, 1001);
    const Tensor ref1 = model.forward(input1);
    const Tensor ref8 = model.forward(input8);

    constexpr int kThreads = 4;
    std::vector<float> worst(kThreads, 0.0f);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            float max_diff = 0.0f;
            for (int iter = 0; iter < 8; ++iter) {
                const Tensor out1 = ExecutionInstance::thread().forward(
                    compiled, input1);
                const Tensor out8 = ExecutionInstance::thread().forward(
                    compiled, input8);
                for (int64_t i = 0; i < out1.numel(); ++i)
                    max_diff = std::max(
                        max_diff, std::fabs(out1[i] - ref1[i]));
                for (int64_t i = 0; i < out8.numel(); ++i)
                    max_diff = std::max(
                        max_diff, std::fabs(out8[i] - ref8[i]));
            }
            worst[static_cast<size_t>(t)] = max_diff;
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_LT(worst[static_cast<size_t>(t)], 1e-4f)
            << "thread " << t;
}

TEST(CompiledModel, PrepackedConstantsMatchUnpackedBitExact)
{
    // The prepacked fast path must be a pure layout/fusion change:
    // same float operations in the same order as the unpacked compiled
    // path, so the two agree bit for bit (and both match eager).
    // Layout propagation is pinned off here — the NCHWc direct kernels
    // deliberately reorder the conv accumulation and have their own
    // differential suite.
    const Sequential model = makePrepackHeavy();
    const Shape sample{kHeavyC, kHeavyH, kHeavyW};
    CompileOptions im2col_only;
    im2col_only.propagateLayout = false;
    const CompiledModel prepacked(model, sample, im2col_only);
    CompileOptions no_prepack;
    no_prepack.prepackConstants = false;
    const CompiledModel unpacked(model, sample, no_prepack);

    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor input = randomHeavyInput(batch, 1200 + batch);
        const Tensor fast =
            ExecutionInstance::thread().forward(prepacked, input);
        const Tensor slow =
            ExecutionInstance::thread().forward(unpacked, input);
        ASSERT_EQ(fast.shape(), slow.shape());
        for (int64_t i = 0; i < fast.numel(); ++i)
            ASSERT_EQ(fast[i], slow[i]) << "index " << i;
        expectNear(fast, model.forward(input), 1e-4f);
    }

    // The constant section exists exactly when prepacking is on, and
    // each plan reports the bytes its steps reference.
    EXPECT_GT(prepacked.constantBytes(), 0);
    EXPECT_GT(prepacked.planFor(1).constantBytes, 0);
    EXPECT_EQ(unpacked.constantBytes(), 0);
    EXPECT_EQ(unpacked.planFor(1).constantBytes, 0);
}

TEST(CompiledModel, QuantizeAfterCompileRebuildsPrepackedConstants)
{
    // Regression for the constant-invalidation contract: plans AND
    // prepacked weights built before a graph mutation must not
    // survive it. Serve fp32 first (populating the constant section),
    // quantize the graph, invalidate, and verify the served results
    // are bit-exact against an eagerly quantized twin.
    Sequential eager_model = makeResnetish();
    const Sequential graph_model = makeResnetish();
    const std::vector<Tensor> calib = calibrationInputs();

    CompiledModel compiled(graph_model,
                           Shape{kSampleC, kSampleH, kSampleW});
    // Populate plans and fp32 prepacked constants before mutating.
    const Tensor warm = randomInput(2, 1300);
    expectNear(ExecutionInstance::thread().forward(compiled, warm),
               graph_model.forward(warm), 1e-4f);
    const int64_t fp32_bytes = compiled.constantBytes();
    EXPECT_GT(fp32_bytes, 0);

    ASSERT_GT(quant::quantizeSequential(eager_model, calib), 0);
    ASSERT_GT(quant::quantizeGraph(compiled.graph(),
                                   Shape{kSampleC, kSampleH, kSampleW},
                                   calib),
              0);
    compiled.invalidatePlans();
    // Stale fp32 packed weights must be gone, not reused.
    EXPECT_EQ(compiled.constantBytes(), 0);

    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Tensor input = randomInput(batch, 1400 + batch);
        const Tensor eager = eager_model.forward(input);
        const Tensor planned =
            ExecutionInstance::thread().forward(compiled, input);
        ASSERT_EQ(planned.shape(), eager.shape());
        for (int64_t i = 0; i < planned.numel(); ++i)
            ASSERT_EQ(planned[i], eager[i]) << "index " << i;
    }
    // The section was rebuilt from the quantized layers.
    EXPECT_GT(compiled.constantBytes(), 0);
    EXPECT_NE(compiled.constantBytes(), fp32_bytes);
}

TEST(CompiledModel, ConcurrentReadersSharePrepackedConstants)
{
    // Many threads stream the same read-only packed weights; results
    // must stay bit-identical to a single-threaded run. (This is the
    // TSan target for the shared constant section.)
    const Sequential model = makePrepackHeavy();
    const CompiledModel compiled(model,
                                 Shape{kHeavyC, kHeavyH, kHeavyW});
    const Tensor input1 = randomHeavyInput(1, 1500);
    const Tensor input4 = randomHeavyInput(4, 1501);
    const Tensor ref1 =
        ExecutionInstance::thread().forward(compiled, input1);
    const Tensor ref4 =
        ExecutionInstance::thread().forward(compiled, input4);

    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            int bad = 0;
            for (int iter = 0; iter < 6; ++iter) {
                const Tensor out1 = ExecutionInstance::thread().forward(
                    compiled, input1);
                const Tensor out4 = ExecutionInstance::thread().forward(
                    compiled, input4);
                for (int64_t i = 0; i < out1.numel(); ++i)
                    bad += out1[i] != ref1[i];
                for (int64_t i = 0; i < out4.numel(); ++i)
                    bad += out4[i] != ref4[i];
            }
            mismatches[static_cast<size_t>(t)] = bad;
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0)
            << "thread " << t;
}

TEST(CompiledModel, SteadyStatePrepackedQueryMakesNoHeapAllocations)
{
#ifdef MLPERF_UNDER_SANITIZER
    GTEST_SKIP() << "allocation counting is not meaningful under "
                    "sanitizers";
#endif
    // Same zero-alloc contract as the small model, but on a model
    // whose queries actually run the prepacked kernels: packing
    // happened once at plan build, so steady state touches only the
    // arena and the read-only constant section.
    const int restore_threads = ThreadPool::global()->threadCount();
    ThreadPool::setGlobalThreads(1);

    const Sequential model = makePrepackHeavy();
    const CompiledModel compiled(model,
                                 Shape{kHeavyC, kHeavyH, kHeavyW});
    const Tensor input = randomHeavyInput(4, 1600);
    ExecutionInstance &instance = ExecutionInstance::thread();

    for (int round = 0; round < 2; ++round) {
        float *staged = instance.stageInput(compiled, 4);
        for (int64_t i = 0; i < input.numel(); ++i)
            staged[i] = input[i];
        instance.run(compiled, 4);
    }

    const long before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int round = 0; round < 8; ++round) {
        float *staged = instance.stageInput(compiled, 4);
        for (int64_t i = 0; i < input.numel(); ++i)
            staged[i] = input[i];
        instance.run(compiled, 4);
    }
    const long after = g_heap_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << (after - before) << " allocations across 8 steady-state "
        << "prepacked queries";

    ThreadPool::setGlobalThreads(restore_threads);
}

int
countNchwcSteps(const Plan &plan)
{
    int n = 0;
    for (const PlanStep &step : plan.steps)
        n += step.outLayout == Layout::NCHWc ? 1 : 0;
    return n;
}

TEST(LayoutPropagation, CompiledMatchesIm2colReferenceWithinTolerance)
{
    // The tiled path is an accuracy-neutral layout change: against
    // the im2col reference plan the only differences are accumulation
    // order, so outputs agree to 1e-4 relative.
    const Sequential model = makePrepackHeavy();
    const Shape sample{kHeavyC, kHeavyH, kHeavyW};
    const CompiledModel tiled(model, sample);
    CompileOptions im2col_only;
    im2col_only.propagateLayout = false;
    const CompiledModel reference(model, sample, im2col_only);

    for (int64_t batch : {int64_t{1}, int64_t{4}}) {
        EXPECT_GT(countNchwcSteps(tiled.planFor(batch)), 0)
            << "layout propagation did not tile any step";
        EXPECT_EQ(countNchwcSteps(reference.planFor(batch)), 0);
        const Tensor input = randomHeavyInput(batch, 2000 + batch);
        const Tensor fast =
            ExecutionInstance::thread().forward(tiled, input);
        const Tensor slow =
            ExecutionInstance::thread().forward(reference, input);
        ASSERT_EQ(fast.shape(), slow.shape());
        for (int64_t i = 0; i < fast.numel(); ++i) {
            const float bound =
                1e-4f * std::max(1.0f, std::fabs(slow[i]));
            ASSERT_NEAR(fast[i], slow[i], bound) << "index " << i;
        }
    }
}

TEST(LayoutPropagation, DirectConvPlanShrinksArena)
{
    // The headline memory win: direct conv needs no im2col patch
    // matrix, so the liveness-planned arena (which includes kernel
    // scratch) shrinks versus the im2col plan even though NCHWc pads
    // channel tails.
    const Sequential model = makePrepackHeavy();
    const Shape sample{kHeavyC, kHeavyH, kHeavyW};
    const CompiledModel tiled(model, sample);
    CompileOptions im2col_only;
    im2col_only.propagateLayout = false;
    const CompiledModel reference(model, sample, im2col_only);

    for (int64_t batch : {int64_t{1}, int64_t{8}}) {
        const Plan &fast = tiled.planFor(batch);
        const Plan &slow = reference.planFor(batch);
        EXPECT_LT(fast.arenaFloats, slow.arenaFloats)
            << "batch " << batch;
        // Direct conv steps report zero scratch in the debug dump;
        // the im2col reference must show its patch matrices.
        for (const PlanStep &step : fast.steps) {
            if (step.kind == OpKind::Conv2d &&
                step.outLayout == Layout::NCHWc) {
                EXPECT_EQ(step.scratchFloats, 0) << step.label;
            }
        }
        int64_t ref_scratch = 0;
        for (const PlanStep &step : slow.steps) {
            if (step.kind == OpKind::Conv2d)
                ref_scratch += step.scratchFloats;
        }
        EXPECT_GT(ref_scratch, 0);
        EXPECT_NE(planDebugDump(fast).find("scratch_kb=0"),
                  std::string::npos);
    }
}

TEST(LayoutPropagation, ForceIm2colEnvPinsReferencePath)
{
    // MLPERF_FORCE_IM2COL is the README-documented escape hatch: with
    // it set, compilation never tiles, and the resulting plans run
    // the exact same prepacked im2col kernels as propagateLayout =
    // false — bit for bit.
    ASSERT_EQ(setenv("MLPERF_FORCE_IM2COL", "1", 1), 0);
    const Sequential model = makePrepackHeavy();
    const Shape sample{kHeavyC, kHeavyH, kHeavyW};
    const CompiledModel forced(model, sample);
    unsetenv("MLPERF_FORCE_IM2COL");
    const CompiledModel tiled(model, sample);
    CompileOptions im2col_only;
    im2col_only.propagateLayout = false;
    const CompiledModel reference(model, sample, im2col_only);

    EXPECT_EQ(countNchwcSteps(forced.planFor(2)), 0);
    EXPECT_GT(countNchwcSteps(tiled.planFor(2)), 0);

    const Tensor input = randomHeavyInput(2, 2100);
    const Tensor a =
        ExecutionInstance::thread().forward(forced, input);
    const Tensor b =
        ExecutionInstance::thread().forward(reference, input);
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_EQ(a[i], b[i]) << "index " << i;
}

TEST(LayoutPropagation, QuantizedGraphTilesQuantConvsOnly)
{
    // Mixed-precision policy: in a graph with int8 nodes, QConv2d
    // steps tile (their direct kernel is bit-exact), while kept-fp32
    // convs stay on the bit-identical NCHW im2col path so quantize
    // boundaries never see a reordered-float ulp.
    const Sequential graph_model = makeResnetish();
    const std::vector<Tensor> calib = calibrationInputs();

    CompiledModel compiled(graph_model,
                           Shape{kSampleC, kSampleH, kSampleW});
    quant::QuantizeOptions options;
    options.keepFirstLayerFp32 = true;  // leaves a fp32 conv behind
    const int swaps = quant::quantizeGraph(
        compiled.graph(), Shape{kSampleC, kSampleH, kSampleW}, calib,
        options);
    ASSERT_GT(swaps, 0);
    compiled.invalidatePlans();

    const Plan &plan = compiled.planFor(2);
    int qconv_tiled = 0, conv_nchw = 0;
    for (const PlanStep &step : plan.steps) {
        if (step.kind == OpKind::QConv2d) {
            EXPECT_EQ(step.outLayout, Layout::NCHWc) << step.label;
            ++qconv_tiled;
        }
        if (step.kind == OpKind::Conv2d) {
            EXPECT_EQ(step.outLayout, Layout::NCHW) << step.label;
            ++conv_nchw;
        }
    }
    EXPECT_GT(qconv_tiled, 0);
    EXPECT_GT(conv_nchw, 0);
}

TEST(CompiledModel, ForwardRejectsNothingButComputesEveryBatch)
{
    // Plans for several batch sizes coexist; each stays correct.
    const Sequential model = makeResnetish();
    const CompiledModel compiled(model,
                                 Shape{kSampleC, kSampleH, kSampleW});
    for (int64_t batch : {int64_t{2}, int64_t{5}, int64_t{3}}) {
        const Tensor input = randomInput(batch, 1100 + batch);
        expectNear(ExecutionInstance::thread().forward(compiled, input),
                   model.forward(input), 1e-4f);
    }
}

} // namespace
} // namespace nn
} // namespace mlperf
