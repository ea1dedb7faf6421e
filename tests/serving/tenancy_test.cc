/**
 * @file
 * Tests for the multi-tenant platform: ModelRegistry lifetime rules
 * (hot-swap/evict while handles are in flight, concurrent lookup
 * stress), DAG pipeline construction/execution/deadlines, and
 * ServingPlatform routing, per-tenant admission budgets, and
 * teardown — plus multi-tenant LoadGen runs of analytical profile
 * models in virtual time, directly and through the harness.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../loadgen/test_doubles.h"
#include "harness/experiment.h"
#include "loadgen/loadgen.h"
#include "report/serving_report.h"
#include "serving/tenancy/dag.h"
#include "serving/tenancy/model_registry.h"
#include "serving/tenancy/platform.h"
#include "sim/virtual_executor.h"
#include "sut/serving_adapters.h"
#include "sut/system_zoo.h"
#include "tensor/tensor.h"

namespace mlperf {
namespace serving {
namespace {

// ------------------------------------------------------ test doubles

/**
 * Inference double whose responses carry the engine's tag, so routing
 * tests can assert which model served a sample. Optionally reports
 * destruction (for swap/evict lifetime tests).
 */
class TaggedInference : public BatchInference
{
  public:
    explicit TaggedInference(std::string tag, sim::Tick service_ns = 0,
                             std::atomic<int> *destroyed = nullptr)
        : tag_(std::move(tag)), serviceNs_(service_ns),
          destroyed_(destroyed)
    {
    }

    ~TaggedInference() override
    {
        if (destroyed_ != nullptr)
            ++*destroyed_;
    }

    std::string name() const override { return tag_; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        samplesServed_ += samples.size();
        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        for (const auto &sample : samples)
            responses.push_back({sample.id, tag_});
        return responses;
    }

    sim::Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &,
                  sim::Tick) override
    {
        return serviceNs_;
    }

    std::atomic<uint64_t> samplesServed_{0};

  private:
    std::string tag_;
    sim::Tick serviceNs_;
    std::atomic<int> *destroyed_;
};

std::shared_ptr<ServableModel>
taggedModel(const std::string &tag, sim::Tick service_ns = 0,
            std::atomic<int> *destroyed = nullptr)
{
    auto model = std::make_shared<ServableModel>();
    model->version = tag;
    model->engine = std::make_unique<TaggedInference>(tag, service_ns,
                                                      destroyed);
    return model;
}

/** Thread-safe delegate counting completions per status. */
class CountingDelegate : public loadgen::ResponseDelegate
{
  public:
    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &response : responses) {
            responses_.push_back(response);
            switch (response.status) {
            case loadgen::ResponseStatus::Ok: ++ok_; break;
            case loadgen::ResponseStatus::Shed: ++shed_; break;
            case loadgen::ResponseStatus::Timeout: ++timeout_; break;
            default: ++other_; break;
            }
        }
    }

    std::vector<loadgen::QuerySampleResponse>
    responses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return responses_;
    }

    uint64_t ok() const { std::lock_guard<std::mutex> l(mutex_); return ok_; }
    uint64_t shed() const { std::lock_guard<std::mutex> l(mutex_); return shed_; }
    uint64_t timeout() const { std::lock_guard<std::mutex> l(mutex_); return timeout_; }

  private:
    mutable std::mutex mutex_;
    std::vector<loadgen::QuerySampleResponse> responses_;
    uint64_t ok_ = 0;
    uint64_t shed_ = 0;
    uint64_t timeout_ = 0;
    uint64_t other_ = 0;
};

std::vector<loadgen::QuerySample>
makeSamples(uint64_t count, uint64_t first_id = 0)
{
    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < count; ++i)
        samples.push_back({first_id + i, i});
    return samples;
}

tensor::Tensor
scalar(float value)
{
    return tensor::Tensor(tensor::Shape{1}, {value});
}

// ------------------------------------------------------ ModelRegistry

TEST(ModelRegistry, PublishAcquireEvict)
{
    ModelRegistry registry;
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_EQ(registry.acquire("resnet"), nullptr);

    registry.publish("resnet", taggedModel("v1"));
    registry.publish("gnmt", taggedModel("v1"));
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.hotModels(),
              (std::vector<std::string>{"gnmt", "resnet"}));

    ModelHandle handle = registry.acquire("resnet");
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(handle->name, "resnet");
    EXPECT_EQ(handle->version, "v1");

    EXPECT_NE(registry.evict("resnet"), nullptr);
    EXPECT_EQ(registry.acquire("resnet"), nullptr);
    EXPECT_EQ(registry.evict("resnet"), nullptr);
    EXPECT_EQ(registry.size(), 1u);

    RegistrySnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.publishes, 2u);
    EXPECT_EQ(snapshot.evictions, 1u);
    EXPECT_EQ(snapshot.hotModels, 1);
    EXPECT_EQ(snapshot.misses, 2u);  // initial miss + post-evict miss
}

TEST(ModelRegistry, SwapKeepsInFlightHandleAlive)
{
    ModelRegistry registry;
    std::atomic<int> v1_destroyed{0};
    std::atomic<int> v2_destroyed{0};

    uint64_t gen1 = registry.publish("resnet", taggedModel("v1", 0, &v1_destroyed));
    ModelHandle in_flight = registry.acquire("resnet");
    ASSERT_NE(in_flight, nullptr);

    // Hot-swap while the old instance is referenced by a batch.
    uint64_t gen2 = registry.publish("resnet", taggedModel("v2", 0, &v2_destroyed));
    EXPECT_GT(gen2, gen1);
    EXPECT_EQ(registry.generation("resnet"), gen2);
    EXPECT_EQ(registry.snapshot().swaps, 1u);

    // The in-flight handle still serves the outgoing instance.
    EXPECT_EQ(in_flight->version, "v1");
    EXPECT_EQ(v1_destroyed.load(), 0);
    auto responses = in_flight->engine->runBatch(makeSamples(3));
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].data, "v1");

    // New acquires see the new instance.
    ModelHandle fresh = registry.acquire("resnet");
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(fresh->version, "v2");

    // The old instance dies exactly when its last handle drops.
    in_flight.reset();
    EXPECT_EQ(v1_destroyed.load(), 1);
    EXPECT_EQ(v2_destroyed.load(), 0);

    // Evicting an entry with a live handle defers destruction too.
    ModelHandle evicted = registry.evict("resnet");
    ASSERT_NE(evicted, nullptr);
    fresh.reset();
    EXPECT_EQ(v2_destroyed.load(), 0);
    evicted.reset();
    EXPECT_EQ(v2_destroyed.load(), 1);
}

TEST(ModelRegistry, ConstantBytesDedupedByIdentity)
{
    ModelRegistry registry;
    int shared_constants = 0;  // stands in for one CompiledModel

    auto alias = [&](const char *version) {
        auto model = taggedModel(version);
        model->constantBytes = 1000;
        model->constantsId = &shared_constants;
        return model;
    };
    registry.publish("resnet", alias("fp32"));
    registry.publish("resnet-alias", alias("fp32"));
    EXPECT_EQ(registry.constantBytes(), 1000);  // shared: counted once

    auto distinct = taggedModel("int8");
    distinct->constantBytes = 400;
    distinct->constantsId = distinct.get();
    registry.publish("resnet-int8", std::move(distinct));
    EXPECT_EQ(registry.constantBytes(), 1400);
    EXPECT_EQ(registry.snapshot().constantBytes, 1400);
}

/**
 * The TSan target: concurrent lookups against publish/swap/evict.
 * Readers hold handles across simulated work while a writer swaps
 * and evicts the same names; every acquired handle must stay fully
 * usable regardless of registry churn. The writer churns until the
 * readers have served a minimum count as well as for its 200 rounds,
 * so the lookups always overlap swaps however the threads schedule.
 */
TEST(ModelRegistry, ConcurrentLookupSwapEvictStress)
{
    constexpr uint64_t kMinServed = 256;
    ModelRegistry registry;
    const std::vector<std::string> names = {"a", "b", "c"};
    for (const auto &name : names)
        registry.publish(name, taggedModel(name + "-v0"));

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> served{0};

    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                ModelHandle handle =
                    registry.acquire(names[(t + i++) % names.size()]);
                if (handle == nullptr)
                    continue;  // lost the race against evict: expected
                auto responses = handle->engine->runBatch(makeSamples(2));
                ASSERT_EQ(responses.size(), 2u);
                served += responses.size();
            }
        });
    }

    std::thread writer([&] {
        for (int round = 0;
             round < 200 || served.load() < kMinServed; ++round) {
            const std::string &name = names[round % names.size()];
            if (round % 5 == 4) {
                registry.evict(name);
                registry.publish(name, taggedModel(name + "-back"));
            } else {
                registry.publish(
                    name, taggedModel(name + "-v" + std::to_string(round)));
            }
            std::this_thread::yield();
        }
        stop.store(true, std::memory_order_relaxed);
    });

    writer.join();
    for (auto &reader : readers)
        reader.join();

    EXPECT_GT(served.load(), 0u);
    EXPECT_GE(served.load(), kMinServed);
    EXPECT_EQ(registry.size(), names.size());
    RegistrySnapshot snapshot = registry.snapshot();
    EXPECT_GE(snapshot.swaps, 1u);
    EXPECT_GE(snapshot.evictions, 1u);
}

// -------------------------------------------------------- DagPipeline

TEST(DagPipeline, ChainMatchesManualExecution)
{
    DagBuilder builder("chain");
    int input = builder.input();
    int pre = builder.stage(
        "pre",
        [](const std::vector<const tensor::Tensor *> &in,
           const DagContext &) {
            tensor::Tensor out = *in[0];
            for (int64_t i = 0; i < out.numel(); ++i)
                out.data()[i] = out.data()[i] * 2.0f + 1.0f;
            return out;
        },
        {input});
    builder.stage(
        "post",
        [](const std::vector<const tensor::Tensor *> &in,
           const DagContext &) {
            tensor::Tensor out = *in[0];
            for (int64_t i = 0; i < out.numel(); ++i)
                out.data()[i] = out.data()[i] - 0.5f;
            return out;
        },
        {pre});
    DagPipeline pipeline = builder.build();
    EXPECT_EQ(pipeline.stageCount(), 3u);

    tensor::Tensor out = pipeline.run(scalar(3.0f));
    ASSERT_EQ(out.numel(), 1);
    EXPECT_FLOAT_EQ(out.data()[0], 3.0f * 2.0f + 1.0f - 0.5f);

    // Stats cover the two real stages; the input node runs no code.
    auto stats = pipeline.stageStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].name, "pre");
    EXPECT_EQ(stats[0].runs, 1u);
    EXPECT_EQ(stats[0].deadlineAborts, 0u);
}

TEST(DagPipeline, FanOutJoinUsesBothBranches)
{
    DagBuilder builder("fan");
    int input = builder.input();
    int left = builder.stage(
        "left",
        [](const std::vector<const tensor::Tensor *> &in,
           const DagContext &) {
            tensor::Tensor out = *in[0];
            out.data()[0] *= 10.0f;
            return out;
        },
        {input});
    int right = builder.stage(
        "right",
        [](const std::vector<const tensor::Tensor *> &in,
           const DagContext &) {
            tensor::Tensor out = *in[0];
            out.data()[0] += 4.0f;
            return out;
        },
        {input});
    builder.stage(
        "join",
        [](const std::vector<const tensor::Tensor *> &in,
           const DagContext &) {
            // Dependencies arrive in declaration order: left, right.
            return scalar(in[0]->data()[0] - in[1]->data()[0]);
        },
        {left, right});
    DagPipeline pipeline = builder.build();

    tensor::Tensor out = pipeline.run(scalar(2.0f));
    EXPECT_FLOAT_EQ(out.data()[0], 2.0f * 10.0f - (2.0f + 4.0f));
}

TEST(DagPipeline, BuildRejectsMalformedGraphs)
{
    // Empty pipeline.
    EXPECT_THROW(DagBuilder("empty").build(), std::invalid_argument);

    // Unknown dependency id (forward references are inexpressible).
    {
        DagBuilder builder("bad-dep");
        EXPECT_THROW(builder.stage(
                         "s",
                         [](const std::vector<const tensor::Tensor *> &,
                            const DagContext &) { return scalar(0.0f); },
                         {7}),
                     std::invalid_argument);
    }

    // Second input node.
    {
        DagBuilder builder("two-inputs");
        builder.input();
        EXPECT_THROW(builder.input(), std::invalid_argument);
    }

    // Null stage functor and non-positive cost weight.
    {
        DagBuilder builder("bad-stage");
        EXPECT_THROW(builder.stage("null-fn", nullptr, {}),
                     std::invalid_argument);
        EXPECT_THROW(builder.stage(
                         "bad-weight",
                         [](const std::vector<const tensor::Tensor *> &,
                            const DagContext &) { return scalar(0.0f); },
                         {}, 0.0),
                     std::invalid_argument);
    }

    // Unreachable stage: work that would be silently skipped.
    {
        DagBuilder builder("unreachable");
        int a = builder.stage(
            "a",
            [](const std::vector<const tensor::Tensor *> &,
               const DagContext &) { return scalar(1.0f); },
            {});
        builder.stage(
            "orphan",
            [](const std::vector<const tensor::Tensor *> &,
               const DagContext &) { return scalar(2.0f); },
            {});
        EXPECT_THROW(builder.build(a), std::invalid_argument);
    }
}

TEST(DagPipeline, DeadlineAbortsCountPerStage)
{
    sim::VirtualExecutor ex;
    DagBuilder builder("deadline");
    int first = builder.stage(
        "first",
        [&ex](const std::vector<const tensor::Tensor *> &,
              const DagContext &) {
            // Burn virtual time so the next stage starts too late.
            ex.schedule(ex.now() + 10 * sim::kNsPerMs, [] {});
            ex.run();
            return scalar(1.0f);
        },
        {}, 1.0);
    builder.stage(
        "second",
        [](const std::vector<const tensor::Tensor *> &in,
           const DagContext &) { return *in[0]; },
        {first}, 1.0);
    DagPipeline pipeline = builder.build();

    DagContext ctx;
    ctx.executor = &ex;
    ctx.deadline = ex.now() + 2 * sim::kNsPerMs;  // < first stage's 10ms
    EXPECT_THROW(pipeline.run(tensor::Tensor(), ctx),
                 DagDeadlineExceeded);

    auto stats = pipeline.stageStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].runs, 1u);
    EXPECT_EQ(stats[1].runs, 0u);
    EXPECT_EQ(stats[1].deadlineAborts, 1u);

    // Without a deadline the same pipeline completes.
    DagContext free_ctx;
    free_ctx.executor = &ex;
    EXPECT_NO_THROW(pipeline.run(tensor::Tensor(), free_ctx));
}

TEST(DagPipeline, RegistryModelStageFailsLoudlyOnMiss)
{
    ModelRegistry registry;
    DagStageFn stage = registryModelStage(registry, "absent");
    EXPECT_THROW(stage({}, DagContext{}), InferenceFault);

    // A model without a tensor entry point is just as loud.
    registry.publish("engine-only", taggedModel("v1"));
    DagStageFn no_forward = registryModelStage(registry, "engine-only");
    EXPECT_THROW(no_forward({}, DagContext{}), InferenceFault);

    // With a forward functor the stage sees hot-swaps per run.
    auto model = taggedModel("v1");
    model->forward = [](const tensor::Tensor &t) {
        tensor::Tensor out = t;
        out.data()[0] += 1.0f;
        return out;
    };
    registry.publish("adder", std::move(model));
    DagStageFn adder = registryModelStage(registry, "adder");
    tensor::Tensor in = scalar(41.0f);
    tensor::Tensor out = adder({&in}, DagContext{});
    EXPECT_FLOAT_EQ(out.data()[0], 42.0f);
}

// ---------------------------------------------------- ServingPlatform

TEST(ServingPlatform, SloDefaultsFillOnlyUnsetFields)
{
    PlatformOptions options;
    options.maxBatch = 8;

    TenantPolicy interactive;
    interactive.slo = SloClass::Interactive;
    TenantPolicy resolved =
        ServingPlatform::applySloDefaults(interactive, options);
    EXPECT_EQ(resolved.queryDeadlineNs, 50 * sim::kNsPerMs);
    EXPECT_EQ(resolved.admission.maxInFlightSamples, 4 * 8);
    EXPECT_EQ(resolved.admission.maxQueuedSamples, 8 * 8);
    EXPECT_EQ(resolved.maxBatch, options.maxBatch);

    // Explicit fields always win over the class defaults.
    TenantPolicy pinned;
    pinned.slo = SloClass::Interactive;
    pinned.queryDeadlineNs = 7 * sim::kNsPerMs;
    pinned.admission = {3, 5};
    pinned.maxBatch = 2;
    resolved = ServingPlatform::applySloDefaults(pinned, options);
    EXPECT_EQ(resolved.queryDeadlineNs, 7 * sim::kNsPerMs);
    EXPECT_EQ(resolved.admission.maxInFlightSamples, 3);
    EXPECT_EQ(resolved.admission.maxQueuedSamples, 5);
    EXPECT_EQ(resolved.maxBatch, 2);

    // Batch class: no deadline, deep budgets.
    TenantPolicy batch;
    batch.slo = SloClass::Batch;
    resolved = ServingPlatform::applySloDefaults(batch, options);
    EXPECT_EQ(resolved.queryDeadlineNs, 0);
    EXPECT_EQ(resolved.admission.maxQueuedSamples, 0u);  // unbounded

    // sloDefaults=false: zeros mean "off" (shared-budget ablation).
    TenantPolicy literal;
    literal.sloDefaults = false;
    literal.queryDeadlineNs = -1;
    resolved = ServingPlatform::applySloDefaults(literal, options);
    EXPECT_EQ(resolved.queryDeadlineNs, 0);
    EXPECT_FALSE(resolved.admission.enabled());
}

TEST(ServingPlatform, TenantsRouteToTheirOwnModels)
{
    sim::VirtualExecutor ex;
    ModelRegistry registry;
    registry.publish("model-a", taggedModel("model-a", 5000));
    registry.publish("model-b", taggedModel("model-b", 5000));

    ServingPlatform platform(ex, registry);
    uint32_t route_a = platform.addModelRoute("model-a");
    uint32_t route_b = platform.addModelRoute("model-b");

    TenantPolicy policy;
    policy.name = "tenant-a";
    TenantSut &tenant_a = platform.addTenant(policy, route_a);
    policy.name = "tenant-b";
    TenantSut &tenant_b = platform.addTenant(policy, route_b);
    ASSERT_EQ(platform.tenantCount(), 2u);

    CountingDelegate delegate_a;
    CountingDelegate delegate_b;
    tenant_a.issueQuery(makeSamples(4, 100), delegate_a);
    tenant_b.issueQuery(makeSamples(4, 200), delegate_b);
    tenant_a.flushQueries();
    tenant_b.flushQueries();
    ex.run();

    ASSERT_EQ(delegate_a.responses().size(), 4u);
    ASSERT_EQ(delegate_b.responses().size(), 4u);
    for (const auto &response : delegate_a.responses())
        EXPECT_EQ(response.data, "model-a");
    for (const auto &response : delegate_b.responses())
        EXPECT_EQ(response.data, "model-b");

    // Per-tenant frontends account their own traffic.
    StatsSnapshot stats_a = tenant_a.stats();
    EXPECT_EQ(stats_a.samplesIssued, 4u);
    EXPECT_EQ(stats_a.completedOk, 4u);
    EXPECT_EQ(stats_a.samplesShed, 0u);
    EXPECT_EQ(tenant_a.outstanding(), 0u);

    // The shared pool served both tenants' batches; their samples'
    // terminal statuses are in the tenants' ledgers, not the pool's.
    StatsSnapshot pool = platform.stats();
    EXPECT_EQ(pool.batchesFormed, 2u);
    EXPECT_EQ(pool.batchesCompleted, 2u);
    EXPECT_DOUBLE_EQ(pool.averageBatchSize(), 4.0);
    EXPECT_EQ(pool.terminalSamples(), 0u);
    EXPECT_EQ(stats_a.completedOk + tenant_b.stats().completedOk, 8u);

    platform.shutdown();
}

TEST(ServingPlatform, ModelMissFailsBatchLoudly)
{
    sim::VirtualExecutor ex;
    ModelRegistry registry;
    registry.publish("ephemeral", taggedModel("v1", 1000));

    ServingPlatform platform(ex, registry);
    uint32_t route = platform.addModelRoute("ephemeral");
    TenantPolicy policy;
    policy.sloDefaults = false;  // no admission, no deadline
    TenantSut &tenant = platform.addTenant(policy, route);

    registry.evict("ephemeral");

    CountingDelegate delegate;
    tenant.issueQuery(makeSamples(2), delegate);
    tenant.flushQueries();
    ex.run();

    // Samples complete with an error status instead of hanging.
    ASSERT_EQ(delegate.responses().size(), 2u);
    for (const auto &response : delegate.responses())
        EXPECT_TRUE(loadgen::responseIsError(response.status));
    EXPECT_EQ(tenant.outstanding(), 0u);
    platform.shutdown();
}

TEST(TenantSut, AdmissionBudgetBoundsInFlightSamples)
{
    sim::VirtualExecutor ex;
    ModelRegistry registry;
    registry.publish("slow", taggedModel("slow", sim::kNsPerMs));

    ServingPlatform platform(ex, registry);
    uint32_t route = platform.addModelRoute("slow");

    TenantPolicy policy;
    policy.name = "budgeted";
    policy.sloDefaults = false;
    policy.admission = {4, 0};  // at most 4 samples in flight
    policy.maxBatch = 4;
    TenantSut &tenant = platform.addTenant(policy, route);

    // All ten arrive before the virtual clock moves: the budget admits
    // the first four and sheds the rest at the door.
    CountingDelegate delegate;
    for (uint64_t i = 0; i < 10; ++i)
        tenant.issueQuery(makeSamples(1, i), delegate);
    ex.run();

    EXPECT_EQ(delegate.ok(), 4u);
    EXPECT_EQ(delegate.shed(), 6u);

    StatsSnapshot stats = tenant.stats();
    EXPECT_EQ(stats.samplesIssued, 10u);
    EXPECT_EQ(stats.admissionShedSamples, 6u);
    EXPECT_EQ(stats.completedOk, 4u);
    // Admission sheds never reach the tracker; the door records them.
    EXPECT_EQ(stats.completedShed, 6u);
    EXPECT_EQ(stats.terminalSamples(), stats.samplesIssued);

    // Completions release the budget: a second wave is admitted.
    tenant.issueQuery(makeSamples(2, 50), delegate);
    ex.run();
    EXPECT_EQ(delegate.ok(), 6u);
    platform.shutdown();
}

TEST(ServingPlatform, DagRouteMatchesManualStageExecution)
{
    sim::VirtualExecutor ex;
    ModelRegistry registry;
    auto model = taggedModel("dag-model");
    model->forward = [](const tensor::Tensor &t) {
        tensor::Tensor out = t;
        for (int64_t i = 0; i < out.numel(); ++i)
            out.data()[i] *= 3.0f;
        return out;
    };
    registry.publish("tripler", std::move(model));

    // Source stage derives its input from the sample index, the model
    // stage resolves through the registry per run.
    DagBuilder builder("indexed");
    int source = builder.stage(
        "source",
        [](const std::vector<const tensor::Tensor *> &,
           const DagContext &ctx) {
            return tensor::Tensor(
                tensor::Shape{1},
                {static_cast<float>(ctx.sampleIndex) + 1.0f});
        },
        {});
    builder.stage("model", registryModelStage(registry, "tripler"),
                  {source});

    ServingPlatform platform(ex, registry);
    uint32_t route = platform.addDagRoute(builder.build());
    TenantPolicy policy;
    policy.sloDefaults = false;
    TenantSut &tenant = platform.addTenant(policy, route);

    CountingDelegate delegate;
    std::vector<loadgen::QuerySample> samples = {{1, 5}, {2, 9}};
    tenant.issueQuery(samples, delegate);
    tenant.flushQueries();
    ex.run();

    auto responses = delegate.responses();
    ASSERT_EQ(responses.size(), 2u);
    for (const auto &response : responses) {
        // Default encoding: the output tensor's raw float bytes.
        ASSERT_EQ(response.data.size(), sizeof(float));
        float value = 0.0f;
        std::memcpy(&value, response.data.data(), sizeof(float));
        float expected =
            response.id == 1 ? (5.0f + 1.0f) * 3.0f : (9.0f + 1.0f) * 3.0f;
        EXPECT_FLOAT_EQ(value, expected);
    }
    platform.shutdown();
}

TEST(ServingPlatform, ShutdownFlushesHeldBatches)
{
    sim::VirtualExecutor ex;
    ModelRegistry registry;
    registry.publish("model", taggedModel("model", 1000));

    ServingPlatform platform(ex, registry);
    uint32_t route = platform.addModelRoute("model");
    TenantPolicy policy;
    policy.sloDefaults = false;
    policy.maxBatch = 64;  // never fills: only flush can emit
    TenantSut &tenant = platform.addTenant(policy, route);

    CountingDelegate delegate;
    tenant.issueQuery(makeSamples(3), delegate);
    // No flushQueries(): shutdown itself must emit the held batch.
    platform.shutdown();
    ex.run();

    EXPECT_EQ(delegate.responses().size(), 3u);
    EXPECT_EQ(tenant.outstanding(), 0u);
    platform.shutdown();  // idempotent
}

// ------------------------------------------ multi-tenant LoadGen runs

/**
 * A platform of analytical profile models on a VirtualExecutor: the
 * tenants share its workers, the LoadGen drives them all at once.
 */
class ProfilePlatform
{
  public:
    ProfilePlatform(sut::HardwareProfile profile, int64_t workers)
        : profile_(std::move(profile)),
          platform_(ex_, registry_, platformOptions(profile_, workers))
    {
    }

    /** Publish @p task's cost model and a tenant routed to it. */
    TenantSut &
    addTenant(TenantPolicy policy, models::TaskType task)
    {
        const std::string model = models::taskModelName(task);
        sut::publishProfileModel(registry_, model, "fp32", profile_,
                                 sut::modelCostFor(task));
        return platform_.addTenant(std::move(policy),
                                   platform_.addModelRoute(model));
    }

    std::vector<loadgen::TestResult>
    run(const std::vector<loadgen::LoadGen::Tenant> &tenants)
    {
        loadgen::LoadGen lg(ex_);
        auto results = lg.startMultiTenantTest(tenants);
        platform_.shutdown();
        return results;
    }

  private:
    static PlatformOptions
    platformOptions(const sut::HardwareProfile &profile, int64_t workers)
    {
        PlatformOptions options;
        options.workers = workers;
        options.maxBatch = profile.maxBatch;
        options.mode = WorkerMode::Events;
        return options;
    }

    sim::VirtualExecutor ex_;
    sut::HardwareProfile profile_;
    ModelRegistry registry_;
    ServingPlatform platform_;
};

sut::HardwareProfile
noiselessProfile(double peak_macs_per_sec, int64_t max_batch)
{
    sut::HardwareProfile profile;
    profile.systemName = "mt-system";
    profile.peakMacsPerSec = peak_macs_per_sec;
    profile.maxBatch = max_batch;
    profile.jitterFraction = 0.0;
    return profile;
}

loadgen::TestSettings
serverSettings(double qps, uint64_t target_ms, uint64_t queries)
{
    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(loadgen::Scenario::Server);
    settings.serverTargetQps = qps;
    settings.targetLatencyNs = target_ms * sim::kNsPerMs;
    settings.maxQueryCount = queries;
    return settings;
}

TEST(MultiTenant, TwoTenantsShareOneSystem)
{
    ProfilePlatform shared(noiselessProfile(2e13, 8), 2);
    TenantSut &resnet = shared.addTenant(
        {}, models::TaskType::ImageClassificationHeavy);
    TenantSut &mobilenet = shared.addTenant(
        {}, models::TaskType::ImageClassificationLight);

    loadgen::testing::FakeQsl qsl_a(1000, 256), qsl_b(1000, 256);
    const auto results =
        shared.run({{&resnet, &qsl_a, serverSettings(500.0, 15, 5000)},
                    {&mobilenet, &qsl_b, serverSettings(800.0, 10, 5000)}});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].queryCount, 5000u);
    EXPECT_EQ(results[1].queryCount, 5000u);
    EXPECT_TRUE(results[0].valid);
    EXPECT_TRUE(results[1].valid);
    EXPECT_EQ(results[0].droppedQueries, 0u);
    EXPECT_EQ(resnet.stats().completedOk, 5000u);
    EXPECT_EQ(mobilenet.stats().completedOk, 5000u);
}

TEST(MultiTenant, BackgroundTenantDegradesForeground)
{
    // Tenant A alone vs tenant A next to a heavy co-tenant: the
    // shared worker makes A's tail latency strictly worse.
    auto run_a = [](bool with_background) {
        ProfilePlatform shared(noiselessProfile(1e13, 4), 1);
        TenantSut &resnet = shared.addTenant(
            {}, models::TaskType::ImageClassificationHeavy);
        loadgen::testing::FakeQsl qsl_a(1000, 256), qsl_b(1000, 256);
        std::vector<loadgen::LoadGen::Tenant> tenants = {
            {&resnet, &qsl_a, serverSettings(300.0, 15, 3000)}};
        if (with_background) {
            // SSD-R34: a huge per-query cost at a low rate.
            TenantSut &ssd = shared.addTenant(
                {}, models::TaskType::ObjectDetectionHeavy);
            tenants.push_back(
                {&ssd, &qsl_b, serverSettings(10.0, 500, 1000)});
        }
        return shared.run(tenants)[0];
    };
    const loadgen::TestResult alone = run_a(false);
    const loadgen::TestResult contended = run_a(true);
    EXPECT_GT(contended.latency.p99, alone.latency.p99);
}

TEST(MultiTenant, AdmissionBudgetShieldsInteractiveTenantFromOverload)
{
    // A Batch-class tenant offers ~3x the pool's capacity. Its
    // in-flight budget (16 samples) caps what it can queue ahead of
    // anyone else, so an Interactive tenant's run stays valid with
    // every sample answered Ok, and the overload is shed at the heavy
    // tenant's own admission. Stripping the budget shows it is the
    // guard: the shared queue then fills and the Interactive tenant
    // loses samples.
    struct Outcome
    {
        loadgen::TestResult result;
        StatsSnapshot interactive;
        StatsSnapshot heavy;
    };
    auto run = [](bool budgeted) {
        ProfilePlatform shared(noiselessProfile(1e13, 4), 2);
        TenantPolicy light;
        light.name = "interactive";
        light.slo = SloClass::Interactive;
        TenantSut &interactive = shared.addTenant(
            light, models::TaskType::ImageClassificationLight);
        TenantPolicy bulk;
        bulk.name = "bulk";
        bulk.slo = SloClass::Batch;
        if (budgeted) {
            bulk.admission = {16, 0};
        } else {
            bulk.sloDefaults = false;
        }
        TenantSut &heavy = shared.addTenant(
            bulk, models::TaskType::ImageClassificationHeavy);

        loadgen::testing::FakeQsl qsl_a(1000, 256), qsl_b(1000, 256);
        const auto results = shared.run(
            {{&interactive, &qsl_a, serverSettings(200.0, 50, 2000)},
             {&heavy, &qsl_b, serverSettings(10000.0, 500, 100000)}});
        return Outcome{results[0], interactive.stats(), heavy.stats()};
    };

    const Outcome guarded = run(true);
    EXPECT_TRUE(guarded.result.valid);
    EXPECT_EQ(guarded.interactive.samplesIssued, 2000u);
    EXPECT_EQ(guarded.interactive.completedOk, 2000u);
    EXPECT_EQ(guarded.interactive.admissionShedSamples, 0u);
    EXPECT_EQ(guarded.interactive.completedTimeout, 0u);
    EXPECT_GT(guarded.heavy.admissionShedSamples,
              guarded.heavy.samplesIssued / 2);

    const Outcome unguarded = run(false);
    EXPECT_LT(unguarded.interactive.completedOk,
              unguarded.interactive.samplesIssued);
}

TEST(MultiTenant, QueuedBudgetCountsOnlyTheTenantsOwnSamples)
{
    // A tenant's maxQueuedSamples bounds its own backlog. Here a
    // Batch-class co-tenant may hold 64 samples in flight, most of
    // them queued in the shared pool: more than the Interactive
    // tenant's default queued budget (8 batches of 4 = 32). Were that
    // backlog charged to the Interactive tenant, it would shed nearly
    // every sample at its own door, though its own queue is short.
    ProfilePlatform shared(noiselessProfile(1e13, 4), 2);
    TenantPolicy light;
    light.name = "interactive";
    light.slo = SloClass::Interactive;
    TenantSut &interactive = shared.addTenant(
        light, models::TaskType::ImageClassificationLight);
    TenantPolicy bulk;
    bulk.name = "bulk";
    bulk.slo = SloClass::Batch;
    bulk.admission = {64, 0};
    TenantSut &heavy = shared.addTenant(
        bulk, models::TaskType::ImageClassificationHeavy);

    loadgen::testing::FakeQsl qsl_a(1000, 256), qsl_b(1000, 256);
    const auto results = shared.run(
        {{&interactive, &qsl_a, serverSettings(200.0, 50, 2000)},
         {&heavy, &qsl_b, serverSettings(10000.0, 500, 100000)}});
    const StatsSnapshot mine = interactive.stats();
    EXPECT_EQ(mine.samplesIssued, 2000u);
    EXPECT_EQ(mine.admissionShedSamples, 0u);
    EXPECT_EQ(report::ledgerMismatch(mine, results[0]), "");
    EXPECT_TRUE(results[0].valid);
    // The co-tenant did keep a backlog beyond that budget, or this
    // test would not tell the two counts apart.
    EXPECT_GT(heavy.stats().admissionShedSamples, 0u);
}

// --------------------------------------------- harness-level LoadGen

TEST(MultiTenantServing, HarnessRunServesAllTenants)
{
    const sut::HardwareProfile *profile = nullptr;
    for (const auto &candidate : sut::systemZoo())
        if (candidate.systemName == "dc-asic-a")
            profile = &candidate;
    ASSERT_NE(profile, nullptr);

    harness::ExperimentOptions options;
    options.scale = 0.005;

    harness::TenantSpec vision;
    vision.policy.name = "vision";
    vision.policy.slo = SloClass::Standard;
    vision.task = models::TaskType::ImageClassificationHeavy;
    vision.qps = 2000.0;

    harness::TenantSpec text;
    text.policy.name = "text";
    text.policy.slo = SloClass::Interactive;
    text.task = models::TaskType::MachineTranslation;
    text.qps = 1000.0;

    harness::MultiTenantOutcome outcome = harness::runMultiTenantServing(
        *profile, {vision, text}, options);

    ASSERT_EQ(outcome.tenants.size(), 2u);
    EXPECT_EQ(outcome.registry.hotModels, 2);
    EXPECT_GT(outcome.elapsedNs, 0u);
    for (const auto &tenant : outcome.tenants) {
        EXPECT_GT(tenant.stats.samplesIssued, 0u);
        EXPECT_GT(tenant.stats.completedOk, 0u);
        EXPECT_GT(tenant.outcome.result.queryCount, 0u);
    }
    EXPECT_EQ(outcome.tenants[0].name, "vision");
    EXPECT_EQ(outcome.tenants[1].slo, SloClass::Interactive);
    EXPECT_GT(outcome.platform.batchesFormed, 0u);
}

} // namespace
} // namespace serving
} // namespace mlperf
