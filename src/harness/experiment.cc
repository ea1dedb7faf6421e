#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <sstream>

#include "sim/virtual_executor.h"
#include "stats/sample_size.h"
#include "sut/serving_adapters.h"

namespace mlperf {
namespace harness {

namespace {

/**
 * Placeholder QSL for simulated systems: the SUT models compute cost
 * analytically and never touches pixels, so only the counts matter.
 */
class SyntheticQsl : public loadgen::QuerySampleLibrary
{
  public:
    std::string name() const override { return "synthetic-qsl"; }
    uint64_t totalSampleCount() const override { return 4096; }
    uint64_t performanceSampleCount() const override { return 1024; }
    void
    loadSamplesToRam(
        const std::vector<loadgen::QuerySampleIndex> &) override
    {
    }
    void
    unloadSamplesFromRam(
        const std::vector<loadgen::QuerySampleIndex> &) override
    {
    }
};

uint64_t
scaled(uint64_t value, double scale)
{
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(value) * scale));
}

} // namespace

loadgen::TestSettings
settingsForTask(models::TaskType task, loadgen::Scenario scenario,
                const ExperimentOptions &options)
{
    const models::ModelInfo &info = models::modelInfo(task);
    loadgen::TestSettings settings =
        loadgen::TestSettings::forScenario(scenario);

    if (scenario == loadgen::Scenario::Server ||
        scenario == loadgen::Scenario::MultiStream) {
        // Vision: 99th percentile / 270K queries; translation: 97th /
        // 90K (Table V).
        settings.tailPercentile = info.tailPercentile;
        settings.minQueryCount =
            stats::queryRequirement(info.tailPercentile)
                .roundedQueries;
        settings.maxOverLatencyFraction =
            task == models::TaskType::MachineTranslation ? 0.03 : 0.01;
    }
    settings.targetLatencyNs = static_cast<uint64_t>(
        info.serverQosMs * static_cast<double>(sim::kNsPerMs));
    if (scenario == loadgen::Scenario::Server)
        settings.serverQueryDeadlineNs = options.serverQueryDeadlineNs;
    settings.multiStreamArrivalNs = static_cast<uint64_t>(
        info.multistreamArrivalMs * static_cast<double>(sim::kNsPerMs));

    // Scaling for fast population sweeps.
    settings.minQueryCount =
        scaled(settings.minQueryCount, options.scale);
    settings.minDurationNs =
        scaled(settings.minDurationNs, options.scale);
    // The offline sample floor is never scaled down: one query of
    // 24,576 samples is already cheap to simulate, and shrinking it
    // would starve multi-engine systems of work (the measured
    // throughput would be ramp-dominated).
    return settings;
}

ScenarioOutcome
runSingleStream(const sut::HardwareProfile &profile,
                models::TaskType task, const ExperimentOptions &options)
{
    sim::VirtualExecutor executor;
    sut::SimulatedSut system(executor, profile, sut::modelCostFor(task),
                             {}, options.sutSeed);
    SyntheticQsl qsl;
    loadgen::TestSettings settings = settingsForTask(
        task, loadgen::Scenario::SingleStream, options);
    loadgen::LoadGen lg(executor);
    ScenarioOutcome outcome;
    outcome.task = task;
    outcome.scenario = loadgen::Scenario::SingleStream;
    outcome.systemName = profile.systemName;
    outcome.result = lg.startTest(system, qsl, settings);
    outcome.metric = outcome.result.scenarioMetric();
    outcome.valid = outcome.result.valid;
    return outcome;
}

ScenarioOutcome
runOffline(const sut::HardwareProfile &profile, models::TaskType task,
           const ExperimentOptions &options)
{
    sim::VirtualExecutor executor;
    // Offline runs at the SUT's best batch: samples arrive in one
    // query, so the batcher needs no window.
    sut::SimulatedSut system(executor, profile, sut::modelCostFor(task),
                             {}, options.sutSeed);
    SyntheticQsl qsl;
    loadgen::TestSettings settings =
        settingsForTask(task, loadgen::Scenario::Offline, options);
    loadgen::LoadGen lg(executor);
    ScenarioOutcome outcome;
    outcome.task = task;
    outcome.scenario = loadgen::Scenario::Offline;
    outcome.systemName = profile.systemName;
    outcome.result = lg.startTest(system, qsl, settings);
    outcome.metric = outcome.result.scenarioMetric();
    outcome.valid = outcome.result.valid;
    return outcome;
}

ScenarioOutcome
runServer(const sut::HardwareProfile &profile, models::TaskType task,
          const ExperimentOptions &options)
{
    const loadgen::TestSettings base =
        settingsForTask(task, loadgen::Scenario::Server, options);

    const QpsProbe probe = [&](double qps, uint64_t seed) {
        sim::VirtualExecutor executor;
        sut::SchedulerOptions sched;
        sched.batchWindowNs = options.serverBatchWindowNs;
        sut::SimulatedSut system(executor, profile,
                                 sut::modelCostFor(task), sched,
                                 options.sutSeed);
        SyntheticQsl qsl;
        loadgen::TestSettings settings = base;
        settings.serverTargetQps = qps;
        settings.scheduleSeed = seed;
        loadgen::LoadGen lg(executor);
        return lg.startTest(system, qsl, settings);
    };

    // Analytical roofline as the initial upper bound.
    const double hi = std::max(
        1.0, sut::steadyStateThroughput(
                 profile, sut::modelCostFor(task),
                 std::max<int64_t>(1, profile.maxBatch)));

    const QpsSearchResult search =
        findMaxQps(probe, hi, options.search);
    ScenarioOutcome outcome;
    outcome.task = task;
    outcome.scenario = loadgen::Scenario::Server;
    outcome.systemName = profile.systemName;
    outcome.metric = search.maxQps;
    outcome.valid = search.maxQps > 0.0;
    outcome.result = search.lastValid;
    return outcome;
}

ServingOutcome
runServerServing(const sut::HardwareProfile &profile,
                 models::TaskType task, double qps,
                 const ExperimentOptions &options,
                 serving::ServingOptions serving_options)
{
    if (serving_options.workers <= 0)
        serving_options.workers = profile.acceleratorCount;
    if (serving_options.maxBatch <= 0)
        serving_options.maxBatch =
            std::max<int64_t>(1, profile.maxBatch);
    if (serving_options.shards <= 1)
        serving_options.shards = options.servingShards;
    serving_options.mode = serving::WorkerMode::Events;
    // The LoadGen-side deadline and the SUT-side one are the same
    // setting; a caller-provided serving option wins.
    if (serving_options.queryDeadlineNs == 0)
        serving_options.queryDeadlineNs = options.serverQueryDeadlineNs;

    sim::VirtualExecutor executor;
    sut::ProfileBatchInference inference(
        profile, sut::modelCostFor(task), options.sutSeed);
    serving::ServingSut system(executor, inference, serving_options);
    SyntheticQsl qsl;
    loadgen::TestSettings settings = settingsForTask(
        task, loadgen::Scenario::Server, options);
    settings.serverTargetQps = qps;
    loadgen::LoadGen lg(executor);

    ServingOutcome out;
    out.outcome.task = task;
    out.outcome.scenario = loadgen::Scenario::Server;
    out.outcome.systemName = system.name();
    out.outcome.result = lg.startTest(system, qsl, settings);
    out.outcome.metric = out.outcome.result.scenarioMetric();
    out.outcome.valid = out.outcome.result.valid;
    system.shutdown();
    out.serving = system.stats();
    out.elapsedNs = out.outcome.result.durationNs;
    return out;
}

MultiTenantOutcome
runMultiTenantServing(const sut::HardwareProfile &profile,
                      const std::vector<TenantSpec> &tenants,
                      const ExperimentOptions &options,
                      serving::PlatformOptions platform_options)
{
    if (platform_options.workers <= 0)
        platform_options.workers = profile.acceleratorCount;
    if (platform_options.maxBatch <= 0)
        platform_options.maxBatch =
            std::max<int64_t>(1, profile.maxBatch);
    platform_options.mode = serving::WorkerMode::Events;

    sim::VirtualExecutor executor;
    serving::ModelRegistry registry;
    serving::ServingPlatform platform(executor, registry,
                                      platform_options);

    // One registry entry per distinct (task, costScale) variant —
    // tenants sharing a model share the hot entry.
    std::map<std::string, uint32_t> routes;
    std::vector<std::string> tenantModels;
    uint64_t seed_salt = 0;
    for (const TenantSpec &spec : tenants) {
        std::string model_name = models::taskModelName(spec.task);
        if (spec.costScale != 1.0) {
            std::ostringstream tag;
            tag << model_name << "-x" << spec.costScale;
            model_name = tag.str();
        }
        if (routes.find(model_name) == routes.end()) {
            sut::ModelCost cost = sut::modelCostFor(spec.task);
            cost.macsPerSample *= spec.costScale;
            sut::publishProfileModel(
                registry, model_name,
                spec.costScale == 1.0 ? "fp32" : "variant", profile,
                cost, options.sutSeed + seed_salt++);
            routes[model_name] = platform.addModelRoute(model_name);
        }
        tenantModels.push_back(model_name);
    }

    std::deque<SyntheticQsl> qsls;
    std::vector<loadgen::LoadGen::Tenant> lg_tenants;
    for (size_t i = 0; i < tenants.size(); ++i) {
        const TenantSpec &spec = tenants[i];
        serving::TenantSut &sut =
            platform.addTenant(spec.policy, routes[tenantModels[i]]);
        qsls.emplace_back();
        loadgen::TestSettings settings = settingsForTask(
            spec.task, loadgen::Scenario::Server, options);
        settings.serverTargetQps = spec.qps;
        lg_tenants.push_back({&sut, &qsls.back(), settings});
    }

    loadgen::LoadGen lg(executor);
    const std::vector<loadgen::TestResult> results =
        lg.startMultiTenantTest(lg_tenants);
    platform.shutdown();

    MultiTenantOutcome out;
    for (size_t i = 0; i < tenants.size(); ++i) {
        serving::TenantSut &sut = platform.tenant(i);
        TenantOutcome tenant;
        tenant.name = sut.policy().name;
        tenant.model = tenantModels[i];
        tenant.slo = sut.policy().slo;
        tenant.outcome.task = tenants[i].task;
        tenant.outcome.scenario = loadgen::Scenario::Server;
        tenant.outcome.systemName = sut.name();
        tenant.outcome.result = results[i];
        tenant.outcome.metric = results[i].scenarioMetric();
        tenant.outcome.valid = results[i].valid;
        tenant.stats = sut.stats();
        out.tenants.push_back(std::move(tenant));
        out.elapsedNs =
            std::max(out.elapsedNs, results[i].durationNs);
    }
    out.platform = platform.stats();
    out.registry = registry.snapshot();
    return out;
}

ScenarioOutcome
runMultiStream(const sut::HardwareProfile &profile,
               models::TaskType task, const ExperimentOptions &options)
{
    const loadgen::TestSettings base =
        settingsForTask(task, loadgen::Scenario::MultiStream, options);

    const StreamsProbe probe = [&](uint64_t n, uint64_t seed) {
        sim::VirtualExecutor executor;
        sut::SimulatedSut system(executor, profile,
                                 sut::modelCostFor(task), {},
                                 options.sutSeed + seed);
        SyntheticQsl qsl;
        loadgen::TestSettings settings = base;
        settings.multiStreamSamplesPerQuery = n;
        settings.sampleIndexSeed = seed;
        // Bound per-probe work: high-throughput systems reach N in
        // the thousands, and simulating minQueryCount queries of N
        // samples each is wasteful during the search. Cap the query
        // count so each probe simulates a bounded number of samples
        // (still >= 256 queries for a meaningful skip-rate estimate).
        const uint64_t sample_budget = settings.minQueryCount * 16;
        settings.maxQueryCount = std::clamp<uint64_t>(
            sample_budget / std::max<uint64_t>(1, n), 256,
            settings.minQueryCount);
        loadgen::LoadGen lg(executor);
        return lg.startTest(system, qsl, settings);
    };

    const double interval_s =
        static_cast<double>(base.multiStreamArrivalNs) /
        static_cast<double>(sim::kNsPerSec);
    const uint64_t hi = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               sut::steadyStateThroughput(
                   profile, sut::modelCostFor(task),
                   std::max<int64_t>(1, profile.maxBatch)) *
               interval_s * 2.0));

    const StreamsSearchResult search =
        findMaxStreams(probe, hi, options.search);
    ScenarioOutcome outcome;
    outcome.task = task;
    outcome.scenario = loadgen::Scenario::MultiStream;
    outcome.systemName = profile.systemName;
    outcome.metric = static_cast<double>(search.maxStreams);
    outcome.valid = search.maxStreams > 0;
    outcome.result = search.lastValid;
    return outcome;
}

std::vector<report::SubmissionResult>
runSubmission(const sut::HardwareProfile &profile,
              models::TaskType task, const ExperimentOptions &options)
{
    std::vector<report::SubmissionResult> results;
    for (loadgen::Scenario scenario :
         {loadgen::Scenario::SingleStream,
          loadgen::Scenario::MultiStream, loadgen::Scenario::Server,
          loadgen::Scenario::Offline}) {
        const ScenarioOutcome outcome =
            runScenario(profile, task, scenario, options);
        report::SubmissionResult record;
        record.system = {
            profile.systemName,
            "simulated",
            sut::processorName(profile.processor),
            profile.acceleratorCount,
            profile.framework,
            sut::categoryName(profile.category),
        };
        record.division = report::Division::Closed;
        record.benchmark = models::taskModelName(task);
        record.scenario = loadgen::scenarioName(scenario);
        record.metric = outcome.metric;
        record.metricLabel = outcome.result.scenarioMetricLabel();
        record.valid = outcome.valid;
        results.push_back(std::move(record));
    }
    return results;
}

ScenarioOutcome
runScenario(const sut::HardwareProfile &profile, models::TaskType task,
            loadgen::Scenario scenario,
            const ExperimentOptions &options)
{
    switch (scenario) {
      case loadgen::Scenario::SingleStream:
        return runSingleStream(profile, task, options);
      case loadgen::Scenario::MultiStream:
        return runMultiStream(profile, task, options);
      case loadgen::Scenario::Server:
        return runServer(profile, task, options);
      case loadgen::Scenario::Offline:
        return runOffline(profile, task, options);
      case loadgen::Scenario::TokenStream:
        // The hardware-profile harness has no streaming SUT; the
        // token-stream scenario is exercised by bench_decode and the
        // continuous-batching runtime instead.
        break;
    }
    return {};
}

} // namespace harness
} // namespace mlperf
