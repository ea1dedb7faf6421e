/**
 * @file
 * ServingPlatform: the multi-tenant serving subsystem. One shared
 * worker pool serves many models (from a ModelRegistry) and DAG
 * pipelines behind per-tenant SUT frontends, each with its own
 * admission budget, SLO class, deadline, and batcher.
 *
 * Why a platform and not N ServingSuts: tenants must *share*
 * capacity (one pool, one queue — the hardware) while *not* sharing
 * fate (one tenant's burst must shed its own traffic, not starve the
 * others). The isolation mechanism is per-tenant admission budgets:
 * a tenant can hold at most its in-flight budget of samples in the
 * shared queue, so the queueing delay it can impose on everyone else
 * is bounded, and everything beyond the budget is shed at *its* front
 * door with Shed status. bench_multitenant quantifies this: with
 * budgets, a 4x burst from one tenant moves a well-behaved tenant's
 * p99 by <25%; with a shared free-for-all budget the victim's tail
 * degrades without bound.
 *
 * Data path per tenant:
 *
 *   TenantSut::issueQuery -> per-tenant AdmissionController
 *     -> per-tenant CompletionTracker (deadline reaper; records each
 *        sample's terminal status in the tenant's own ledger)
 *     -> per-tenant DynamicBatcher  (batches are single-tenant, hence
 *        single-route — the batcher IS the router's granularity)
 *     -> shared WorkerPool (batch.route stamped)
 *     -> RoutingInference: registry lookup (model route) or DAG run
 *
 * Teardown: shutdown() flushes every tenant's batcher, drains the
 * shared pool, then drains every tracker — same ordering discipline
 * as ServingSut, extended across tenants.
 */

#ifndef MLPERF_SERVING_TENANCY_PLATFORM_H
#define MLPERF_SERVING_TENANCY_PLATFORM_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "loadgen/sut.h"
#include "serving/batcher.h"
#include "serving/completion_tracker.h"
#include "serving/resilience.h"
#include "serving/serving_stats.h"
#include "serving/tenancy/dag.h"
#include "serving/tenancy/model_registry.h"
#include "serving/worker_pool.h"
#include "sim/executor.h"

namespace mlperf {
namespace serving {

/**
 * Service classes a tenant contracts for. Classes only provide
 * *defaults* (deadline + admission budgets scaled to the platform's
 * batch size); explicit TenantPolicy fields always win.
 */
enum class SloClass : uint8_t
{
    /** Tight deadline, small budgets: sheds early, never queues deep. */
    Interactive,
    /** Moderate deadline and budgets. */
    Standard,
    /** No deadline, deep budgets: throughput over latency. */
    Batch,
};

std::string sloClassName(SloClass slo);

struct TenantPolicy
{
    std::string name = "tenant";
    SloClass slo = SloClass::Standard;
    /**
     * Fill unset fields (deadline < 0, zero admission budgets) from
     * the SLO class defaults. Set false to treat zeros literally
     * (e.g. "no admission control" for the shared-budget ablation).
     */
    bool sloDefaults = true;
    /**
     * Per-tenant admission budgets (the isolation mechanism). Zeros +
     * sloDefaults=false = no admission control for this tenant.
     */
    AdmissionOptions admission;
    /** Per-query deadline in ns; <0 = SLO class default, 0 = none. */
    int64_t queryDeadlineNs = -1;
    /** Largest batch for this tenant; 0 = platform default. */
    int64_t maxBatch = 0;
    /** Batching window in ns; <0 = platform default. */
    int64_t batchTimeoutNs = -1;
};

struct PlatformOptions
{
    /** Shared worker pool size. */
    int64_t workers = 4;
    /** Shared worker-queue capacity in batches; 0 = unbounded. */
    size_t queueCapacityBatches = 64;
    /** Default per-tenant batch cap / batching window. */
    int64_t maxBatch = 8;
    sim::Tick batchTimeoutNs = 2 * sim::kNsPerMs;
    WorkerMode mode = WorkerMode::Auto;

    // ---- Sharding of the shared pool (Threads mode only).
    /**
     * Shards for the shared worker pool (see serving/shard.h).
     * Tenant routing composes with shard routing: each tenant's
     * batcher forms single-tenant batches, and the sharded pool then
     * hashes (route, first sample id) so every tenant's batch stream
     * spreads across all shards — shards partition *capacity*, routes
     * partition *models*; the two are orthogonal axes.
     */
    int64_t shards = 1;
    /** Let idle workers pull from other shards' queues. */
    bool stealWhenIdle = true;
};

class ServingPlatform;

/**
 * One tenant's SystemUnderTest frontend. Created and owned by the
 * platform; hand it to the LoadGen (startMultiTenantTest) like any
 * SUT. Thread-safe like ServingSut.
 */
class TenantSut : public loadgen::SystemUnderTest
{
  public:
    std::string name() const override;
    void issueQuery(const std::vector<loadgen::QuerySample> &samples,
                    loadgen::ResponseDelegate &delegate) override;
    void flushQueries() override;

    const TenantPolicy &policy() const { return policy_; }
    uint32_t route() const { return route_; }

    /**
     * This tenant's own counters: issued, admission sheds, queue
     * sheds, and its sample ledger (completedOk/Shed/Timeout/…),
     * recorded by its tracker and, for admission sheds, at its door.
     */
    StatsSnapshot stats() const { return stats_.snapshot(); }

    /** Samples tracked but not yet completed. */
    uint64_t outstanding() const { return tracker_->outstanding(); }

  private:
    friend class ServingPlatform;

    TenantSut(ServingPlatform &platform, TenantPolicy policy,
              uint32_t route);

    ServingPlatform &platform_;
    const TenantPolicy policy_;
    const uint32_t route_;
    ServingStats stats_;
    std::unique_ptr<AdmissionController> admission_;
    std::shared_ptr<CompletionTracker> tracker_;
    std::unique_ptr<DynamicBatcher> batcher_;
    /** This tenant's samples in the shared pool's queue (the pool
     *  counts them through Batch::tenantQueued). */
    std::atomic<uint64_t> queuedSamples_{0};
    /** Queue-full sheds seen, for rate-limiting the warning log. */
    uint64_t queueShedEvents_ = 0;
};

class ServingPlatform
{
  public:
    /** Encodes a DAG output tensor into QuerySampleResponse::data. */
    using DagEncodeFn = std::function<std::string(const tensor::Tensor &)>;

    /**
     * @param registry model store (not owned; must outlive the
     *        platform). Models may be published, swapped, and evicted
     *        while the platform is serving.
     */
    ServingPlatform(sim::Executor &executor, ModelRegistry &registry,
                    PlatformOptions options = {});
    ~ServingPlatform();

    ServingPlatform(const ServingPlatform &) = delete;
    ServingPlatform &operator=(const ServingPlatform &) = delete;

    /**
     * Register a route serving registry model @p model_name. The name
     * is resolved per batch (hot-swap-aware); a miss fails the batch
     * loudly with Failed status rather than serving stale answers.
     */
    uint32_t addModelRoute(const std::string &model_name);

    /**
     * Register a DAG route. Each sample runs the pipeline (source
     * stages fetch by ctx.sampleIndex); the output tensor is encoded
     * by @p encode — default: the tensor's raw float bytes, which is
     * what the bit-exactness checks compare.
     */
    uint32_t addDagRoute(DagPipeline pipeline, DagEncodeFn encode = {});

    /**
     * Create a tenant frontend bound to @p route. Must happen before
     * traffic starts on that tenant. The reference stays valid for
     * the platform's lifetime.
     */
    TenantSut &addTenant(TenantPolicy policy, uint32_t route);

    /** Flush every tenant, drain the pool, time out stragglers. */
    void shutdown();

    /** Shared-pool counters (batches, service time, utilization). */
    StatsSnapshot stats() const { return stats_.snapshot(); }

    const ModelRegistry &registry() const { return registry_; }
    WorkerMode resolvedMode() const { return mode_; }
    const PlatformOptions &options() const { return options_; }
    size_t tenantCount() const { return tenants_.size(); }
    TenantSut &tenant(size_t i) { return *tenants_[i]; }

    /** Applied SLO-class defaults for inspection/doc tests. */
    static TenantPolicy applySloDefaults(TenantPolicy policy,
                                         const PlatformOptions &options);

  private:
    friend class TenantSut;

    class RoutingInference;

    void onBatchFormed(TenantSut &tenant, Batch &&batch);

    sim::Executor &executor_;
    ModelRegistry &registry_;
    PlatformOptions options_;
    WorkerMode mode_;
    ServingStats stats_;
    std::unique_ptr<RoutingInference> routing_;
    std::unique_ptr<WorkerPool> pool_;
    std::vector<std::unique_ptr<TenantSut>> tenants_;
    bool shutdownDone_ = false;
};

} // namespace serving
} // namespace mlperf

#endif // MLPERF_SERVING_TENANCY_PLATFORM_H
