#include "serving/tenancy/platform.h"

#include <algorithm>
#include <cstring>
#include <shared_mutex>
#include <utility>

#include "common/logging.h"

namespace mlperf {
namespace serving {

std::string
sloClassName(SloClass slo)
{
    switch (slo) {
      case SloClass::Interactive: return "Interactive";
      case SloClass::Standard:    return "Standard";
      case SloClass::Batch:       return "Batch";
    }
    return "?";
}

// ------------------------------------------------- RoutingInference

/**
 * The shared pool's single BatchInference: resolves each batch's
 * route to a registry model (acquired per batch, so swap/evict are
 * safe against in-flight work) or a DAG pipeline (run per sample with
 * the batch deadline propagated into per-stage budgets).
 */
class ServingPlatform::RoutingInference : public BatchInference
{
  public:
    RoutingInference(sim::Executor &executor, ModelRegistry &registry)
        : executor_(executor), registry_(registry)
    {
    }

    uint32_t
    addModelRoute(const std::string &model_name)
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        routes_.push_back(Route{false, model_name, nullptr, {}});
        return static_cast<uint32_t>(routes_.size());
    }

    uint32_t
    addDagRoute(DagPipeline pipeline, DagEncodeFn encode)
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        routes_.push_back(
            Route{true, pipeline.name(),
                  std::make_unique<DagPipeline>(std::move(pipeline)),
                  std::move(encode)});
        return static_cast<uint32_t>(routes_.size());
    }

    std::string name() const override { return "platform-router"; }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        (void)samples;
        // Batches only reach the pool through TenantSut frontends,
        // which always stamp a route.
        throw InferenceFault(FaultKind::Permanent,
                             "platform-router: unrouted batch");
    }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples,
             const BatchMeta &meta) override
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const Route &route = routeAt(meta.route);
        if (!route.isDag) {
            const ModelHandle handle = registry_.acquire(route.model);
            lock.unlock();
            if (!handle || !handle->engine) {
                throw InferenceFault(
                    FaultKind::Permanent,
                    "platform-router: model '" + route.model +
                        "' is not hot in the registry");
            }
            // The handle pins the model for the whole batch; a
            // concurrent swap/evict retires the instance only after
            // this returns.
            return handle->engine->runBatch(samples);
        }

        std::vector<loadgen::QuerySampleResponse> responses;
        responses.reserve(samples.size());
        const tensor::Tensor no_input;
        for (const auto &sample : samples) {
            DagContext ctx;
            ctx.sampleIndex = sample.index;
            ctx.executor = &executor_;
            ctx.deadline = meta.deadline;
            try {
                const tensor::Tensor out =
                    route.dag->run(no_input, ctx);
                responses.push_back(
                    {sample.id,
                     route.encode ? route.encode(out) : rawBytes(out),
                     loadgen::ResponseStatus::Ok});
            } catch (const DagDeadlineExceeded &) {
                // Only this sample ran out of budget; the rest of the
                // batch still gets real answers.
                responses.push_back(
                    {sample.id, "", loadgen::ResponseStatus::Timeout});
            }
        }
        return responses;
    }

    sim::Tick
    serviceTimeNs(const std::vector<loadgen::QuerySample> &samples,
                  sim::Tick now, const BatchMeta &meta) override
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const Route &route = routeAt(meta.route);
        if (route.isDag)
            return 0;  // DAG stages execute real compute in runBatch.
        const ModelHandle handle = registry_.acquire(route.model);
        lock.unlock();
        if (!handle || !handle->engine)
            return 0;  // runBatch will fail the batch loudly.
        return handle->engine->serviceTimeNs(samples, now);
    }

  private:
    struct Route
    {
        bool isDag = false;
        std::string model;  //!< model name, or DAG name for logging
        std::unique_ptr<DagPipeline> dag;
        DagEncodeFn encode;
    };

    /** Caller holds at least the shared lock. */
    const Route &
    routeAt(uint32_t id) const
    {
        if (id == 0 || id > routes_.size()) {
            throw InferenceFault(FaultKind::Permanent,
                                 "platform-router: unknown route " +
                                     std::to_string(id));
        }
        return routes_[id - 1];
    }

    static std::string
    rawBytes(const tensor::Tensor &t)
    {
        return std::string(
            reinterpret_cast<const char *>(t.data()),
            static_cast<size_t>(t.numel()) * sizeof(float));
    }

    sim::Executor &executor_;
    ModelRegistry &registry_;
    mutable std::shared_mutex mutex_;
    std::vector<Route> routes_;
};

// --------------------------------------------------------- TenantSut

TenantSut::TenantSut(ServingPlatform &platform, TenantPolicy policy,
                     uint32_t route)
    : platform_(platform), policy_(std::move(policy)), route_(route)
{
    if (policy_.admission.enabled()) {
        admission_ =
            std::make_unique<AdmissionController>(policy_.admission);
    }
    // Every tenant gets a tracker: it releases the admission budget,
    // reaps deadline stragglers, and records the tenant's ledger —
    // who actually got served.
    tracker_ = std::make_shared<CompletionTracker>(
        platform_.executor_, stats_, admission_.get());
    batcher_ = std::make_unique<DynamicBatcher>(
        platform_.executor_, policy_.maxBatch, policy_.batchTimeoutNs,
        [this](Batch &&batch) {
            platform_.onBatchFormed(*this, std::move(batch));
        });
}

std::string
TenantSut::name() const
{
    return policy_.name + "+platform";
}

void
TenantSut::issueQuery(const std::vector<loadgen::QuerySample> &samples,
                      loadgen::ResponseDelegate &delegate)
{
    // This tenant's own backlog: its batcher and its batches in the
    // shared pool's queue, not its co-tenants'.
    const uint64_t depth = batcher_->pending() +
                           queuedSamples_.load(std::memory_order_relaxed) +
                           samples.size();
    stats_.recordIssued(samples.size(), depth);

    if (admission_ &&
        !admission_->tryAdmit(samples.size(), depth - samples.size())) {
        shedAtAdmission(stats_, samples, delegate);
        return;
    }

    sim::Tick deadline = 0;
    if (policy_.queryDeadlineNs > 0) {
        deadline = platform_.executor_.now() +
                   static_cast<sim::Tick>(policy_.queryDeadlineNs);
    }
    tracker_->track(samples, delegate, deadline);
    batcher_->enqueue(samples, *tracker_, deadline);
}

void
TenantSut::flushQueries()
{
    batcher_->flush();
}

// --------------------------------------------------- ServingPlatform

ServingPlatform::ServingPlatform(sim::Executor &executor,
                                 ModelRegistry &registry,
                                 PlatformOptions options)
    : executor_(executor), registry_(registry), options_(options)
{
    routing_ = std::make_unique<RoutingInference>(executor_, registry_);
    // No demand pull (tenant batchers keep their windows), and every
    // tenant has a tracker, which records the ledger.
    PoolPlan plan;
    plan.mode = options_.mode;
    plan.workers = options_.workers;
    plan.queueCapacityBatches = options_.queueCapacityBatches;
    plan.shards = options_.shards;
    plan.stealWhenIdle = options_.stealWhenIdle;
    plan.trackerActive = true;
    plan = resolvePlan(plan, executor_);
    mode_ = plan.mode;
    pool_ = makeWorkerPool(executor_, *routing_, stats_, plan);
}

ServingPlatform::~ServingPlatform()
{
    shutdown();
}

uint32_t
ServingPlatform::addModelRoute(const std::string &model_name)
{
    return routing_->addModelRoute(model_name);
}

uint32_t
ServingPlatform::addDagRoute(DagPipeline pipeline, DagEncodeFn encode)
{
    return routing_->addDagRoute(std::move(pipeline), std::move(encode));
}

TenantPolicy
ServingPlatform::applySloDefaults(TenantPolicy policy,
                                  const PlatformOptions &options)
{
    if (policy.maxBatch <= 0)
        policy.maxBatch = options.maxBatch;
    if (policy.batchTimeoutNs < 0)
        policy.batchTimeoutNs = options.batchTimeoutNs;
    if (!policy.sloDefaults) {
        if (policy.queryDeadlineNs < 0)
            policy.queryDeadlineNs = 0;
        return policy;
    }

    const uint64_t batch =
        static_cast<uint64_t>(std::max<int64_t>(1, policy.maxBatch));
    int64_t deadline = 0;
    uint64_t in_flight = 0;
    uint64_t queued = 0;
    switch (policy.slo) {
      case SloClass::Interactive:
        deadline = 50 * sim::kNsPerMs;
        in_flight = 4 * batch;
        queued = 8 * batch;
        break;
      case SloClass::Standard:
        deadline = 250 * sim::kNsPerMs;
        in_flight = 8 * batch;
        queued = 16 * batch;
        break;
      case SloClass::Batch:
        deadline = 0;          // throughput class: never reap
        in_flight = 64 * batch;
        queued = 0;            // bounded by in-flight budget alone
        break;
    }
    if (policy.queryDeadlineNs < 0)
        policy.queryDeadlineNs = deadline;
    if (policy.admission.maxInFlightSamples == 0)
        policy.admission.maxInFlightSamples = in_flight;
    if (policy.admission.maxQueuedSamples == 0)
        policy.admission.maxQueuedSamples = queued;
    return policy;
}

TenantSut &
ServingPlatform::addTenant(TenantPolicy policy, uint32_t route)
{
    TenantPolicy resolved =
        applySloDefaults(std::move(policy), options_);
    tenants_.push_back(std::unique_ptr<TenantSut>(
        new TenantSut(*this, std::move(resolved), route)));
    return *tenants_.back();
}

void
ServingPlatform::onBatchFormed(TenantSut &tenant, Batch &&batch)
{
    batch.route = tenant.route_;
    batch.tenantQueued = &tenant.queuedSamples_;
    stats_.recordBatchFormed(batch);
    if (pool_->submit(batch))
        return;
    // Shared-queue backpressure: the shed is charged to the tenant
    // whose batch it was — its items complete Shed through its own
    // tracker, which records them and releases its admission budget.
    tenant.stats_.recordShed(batch.items.size());
    stats_.recordShed(batch.items.size());
    // Under sustained overload every batch sheds; log the first per
    // tenant and then sample, the counters carry the full story.
    if (tenant.queueShedEvents_++ % 1000 == 0)
        MLPERF_LOG(Warn) << tenant.name()
                         << ": shared worker queue full, shedding "
                         << batch.items.size() << " sample(s) ("
                         << tenant.queueShedEvents_
                         << " shed events so far)";
    completeBatch(batch,
                  errorResponses(batch, loadgen::ResponseStatus::Shed),
                  nullptr);
}

void
ServingPlatform::shutdown()
{
    if (shutdownDone_)
        return;
    shutdownDone_ = true;
    // Same flush-then-drain discipline as ServingSut, across tenants:
    // emit held batches, drain the shared pool, then time out
    // whatever any tracker still holds.
    for (auto &tenant : tenants_)
        tenant->batcher_->flush();
    pool_->shutdown();
    for (auto &tenant : tenants_)
        tenant->tracker_->drain();
}

} // namespace serving
} // namespace mlperf
