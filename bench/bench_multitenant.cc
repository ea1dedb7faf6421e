/**
 * @file
 * Multitenancy extension (paper Sec. IV-B: "a multitenancy mode where
 * the SUT must continuously serve multiple models while maintaining
 * QoS constraints"), served for real through the multi-tenant
 * platform: one ModelRegistry holding four hot models, one shared
 * worker pool, per-tenant admission budgets and SLO classes.
 *
 * Four studies:
 *  1. Contention: tenant B (ResNet, Standard SLO) keeps its solo p99
 *     while tenant A (GNMT) bursts to 4x its load — because A's
 *     per-tenant budget sheds A's overflow at A's front door. The
 *     shared-budget ablation (no per-tenant admission) shows the
 *     alternative: A's burst queues freely and B's tail degrades.
 *  2. DAG pipelines: a preprocess -> model -> postprocess chain and a
 *     fan-out/join graph produce bit-identical outputs to running the
 *     stages by hand.
 *  3. Zero-alloc steady state: registry acquire + compiled-plan
 *     execution performs no heap allocation per query once warm.
 *  4. Registry churn: the counters after publish/swap/evict traffic.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "common/ledger_gate.h"
#include "data/classification.h"
#include "harness/experiment.h"
#include "models/classifier.h"
#include "nn/plan.h"
#include "common/string_util.h"
#include "report/serving_report.h"
#include "report/table.h"
#include "serving/tenancy/dag.h"
#include "serving/tenancy/model_registry.h"
#include "sut/serving_adapters.h"
#include "sut/system_zoo.h"

// Binary-wide allocation counter (same idiom as bench_microkernels):
// the zero-alloc study must observe every operator-new on the
// steady-state query path.
static std::atomic<long> g_heap_allocs{0};

void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace mlperf;

namespace {

/**
 * Rates sized against dc-asic-a's ~115k qps pooled capacity (4 event
 * workers, batch 16): steady-state demand is ~32% utilization, and
 * the aggressor's 4x burst alone exceeds pool capacity — without its
 * admission budget it fills the shared queue for everyone.
 */
constexpr double kVictimQps = 3000.0;
constexpr double kAggressorBaseQps = 30000.0;
constexpr double kBackgroundQps = 1000.0;
constexpr double kQuantizedQps = 2000.0;
constexpr double kBurstFactor = 4.0;

harness::TenantSpec
victimSpec()
{
    harness::TenantSpec spec;
    spec.policy.name = "tenantB-resnet";
    spec.policy.slo = serving::SloClass::Standard;
    spec.policy.sloDefaults = false;
    spec.policy.admission = {64, 0};
    spec.policy.queryDeadlineNs = 0;
    spec.task = models::TaskType::ImageClassificationHeavy;
    spec.qps = kVictimQps;
    return spec;
}

harness::TenantSpec
aggressorSpec(double burst)
{
    harness::TenantSpec spec;
    spec.policy.name = "tenantA-gnmt";
    spec.policy.slo = serving::SloClass::Interactive;
    spec.policy.sloDefaults = false;
    // The isolation mechanism: at most 3 batches of GNMT may occupy
    // the shared pool, no matter how hard this tenant bursts.
    spec.policy.admission = {48, 0};
    spec.policy.queryDeadlineNs = 0;
    spec.task = models::TaskType::MachineTranslation;
    spec.qps = kAggressorBaseQps * burst;
    return spec;
}

harness::TenantSpec
backgroundSpec()
{
    harness::TenantSpec spec;
    spec.policy.name = "tenantC-ssd";
    spec.policy.slo = serving::SloClass::Batch;
    spec.policy.sloDefaults = false;
    spec.policy.admission = {32, 0};
    spec.policy.queryDeadlineNs = 0;
    spec.task = models::TaskType::ObjectDetectionLight;
    spec.qps = kBackgroundQps;
    return spec;
}

/** Int8-variant tenant: same task, scaled cost, own registry entry. */
harness::TenantSpec
quantizedSpec()
{
    harness::TenantSpec spec;
    spec.policy.name = "tenantD-resnet-int8";
    spec.policy.slo = serving::SloClass::Interactive;
    spec.policy.sloDefaults = false;
    spec.policy.admission = {32, 0};
    spec.policy.queryDeadlineNs = 0;
    spec.task = models::TaskType::ImageClassificationHeavy;
    spec.qps = kQuantizedQps;
    spec.costScale = 0.4;
    return spec;
}

/** Strip per-tenant budgets: the shared free-for-all ablation. */
std::vector<harness::TenantSpec>
withoutBudgets(std::vector<harness::TenantSpec> specs)
{
    for (auto &spec : specs)
        spec.policy.admission = {};
    return specs;
}

const harness::TenantOutcome &
tenantNamed(const harness::MultiTenantOutcome &out,
            const std::string &name)
{
    for (const auto &tenant : out.tenants) {
        if (tenant.name == name)
            return tenant;
    }
    std::fprintf(stderr, "FATAL: tenant '%s' missing from outcome\n",
                 name.c_str());
    std::exit(1);
}

double
p99Ms(const harness::TenantOutcome &tenant)
{
    return tenant.outcome.result.latency.p99 / 1e6;
}

bool
bitIdentical(const tensor::Tensor &a, const tensor::Tensor &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

} // namespace

int
main()
{
    std::printf("%s",
                report::banner("Multi-tenant platform: 4 hot models, "
                               "per-tenant budgets vs shared (dc-asic-a)")
                    .c_str());

    const sut::HardwareProfile *profile = nullptr;
    for (const auto &p : sut::systemZoo()) {
        if (p.systemName == "dc-asic-a")
            profile = &p;
    }
    if (profile == nullptr) {
        // A renamed zoo entry must fail the bench, not segfault it.
        std::fprintf(stderr,
                     "FATAL: system 'dc-asic-a' is missing from the "
                     "system zoo\n");
        return 1;
    }

    harness::ExperimentOptions options;
    options.scale = 0.02;

    serving::PlatformOptions popts;
    popts.workers = 4;
    popts.maxBatch = 16;
    popts.queueCapacityBatches = 64;

    // ------------------------------------------------ contention study
    const std::vector<harness::TenantSpec> steady = {
        victimSpec(), aggressorSpec(1.0), backgroundSpec(),
        quantizedSpec()};
    const std::vector<harness::TenantSpec> burst = {
        victimSpec(), aggressorSpec(kBurstFactor), backgroundSpec(),
        quantizedSpec()};

    const auto solo = harness::runMultiTenantServing(
        *profile, {victimSpec()}, options, popts);
    const auto budgets_1x =
        harness::runMultiTenantServing(*profile, steady, options, popts);
    const auto budgets_4x =
        harness::runMultiTenantServing(*profile, burst, options, popts);
    const auto shared_4x = harness::runMultiTenantServing(
        *profile, withoutBudgets(burst), options, popts);

    // Every tenant of every run: one terminal status per sample.
    bool ledger_ok = true;
    const struct
    {
        const char *label;
        const harness::MultiTenantOutcome &out;
    } runs[] = {{"solo", solo},
                {"budgets 1x", budgets_1x},
                {"budgets 4x", budgets_4x},
                {"shared 4x", shared_4x}};
    for (const auto &run : runs) {
        for (const auto &tenant : run.out.tenants) {
            ledger_ok = bench::ledgerHolds(
                            strprintf("%s %s", run.label,
                                      tenant.name.c_str()),
                            tenant.stats, tenant.outcome.result) &&
                        ledger_ok;
        }
    }

    const double solo_p99 = p99Ms(tenantNamed(solo, "tenantB-resnet"));
    const double b_1x = p99Ms(tenantNamed(budgets_1x, "tenantB-resnet"));
    const double b_4x = p99Ms(tenantNamed(budgets_4x, "tenantB-resnet"));
    const double s_4x = p99Ms(tenantNamed(shared_4x, "tenantB-resnet"));

    report::Table table({"Run", "Tenant A load", "Budgets",
                         "B p99 (ms)", "vs solo", "A shed rate"});
    auto row = [&](const char *label, const char *load,
                   const char *budgeted,
                   const harness::MultiTenantOutcome &out, double p99) {
        const double a_shed =
            out.tenants.size() > 1
                ? tenantNamed(out, "tenantA-gnmt").stats.shedRate()
                : 0.0;
        table.addRow({label, load, budgeted, report::fmt(p99, 3),
                      report::fmt(100.0 * (p99 / solo_p99 - 1.0), 1) +
                          "%",
                      report::fmt(100.0 * a_shed, 1) + "%"});
    };
    row("B solo", "-", "-", solo, solo_p99);
    row("steady", "1x", "per-tenant", budgets_1x, b_1x);
    row("burst", "4x", "per-tenant", budgets_4x, b_4x);
    row("burst", "4x", "shared", shared_4x, s_4x);
    std::printf("%s", table.str().c_str());

    const bool isolated = b_4x <= solo_p99 * 1.25;
    std::printf(
        "\nIsolation %s: under a %gx burst from tenant A, per-tenant "
        "budgets keep tenant B's\np99 at %.3f ms (solo %.3f ms, "
        "%+.1f%%); the shared free-for-all lets it reach %.3f ms\n"
        "(%+.1f%%) because A's overflow queues in front of everyone.\n",
        isolated ? "holds" : "FAILED", kBurstFactor, b_4x, solo_p99,
        100.0 * (b_4x / solo_p99 - 1.0), s_4x,
        100.0 * (s_4x / solo_p99 - 1.0));

    std::vector<report::TenantReportRow> rows;
    for (const auto &tenant : budgets_4x.tenants) {
        report::TenantReportRow r;
        r.name = tenant.name;
        r.slo = serving::sloClassName(tenant.slo);
        r.model = tenant.model;
        r.stats = tenant.stats;
        r.p99Ms = p99Ms(tenant);
        r.valid = tenant.outcome.valid;
        rows.push_back(r);
    }
    std::printf("\n%s",
                report::renderMultiTenantSummary(
                    rows, budgets_4x.platform, budgets_4x.registry,
                    budgets_4x.elapsedNs)
                    .c_str());

    // ------------------------------------------------- DAG bit-exactness
    data::ClassificationConfig dconfig;
    dconfig.samplesPerClass = 2;
    const data::ClassificationDataset dataset(dconfig);
    models::ImageClassifier classifier =
        models::ImageClassifier::mobilenetProxy(dataset);
    sut::ClassificationQsl qsl(dataset, 8);
    qsl.loadSamplesToRam({0, 1, 2, 3});

    serving::ModelRegistry registry;
    sut::publishClassifierModel(registry, "mobilenet", "fp32",
                                classifier, qsl);

    const auto preprocess =
        [](const std::vector<const tensor::Tensor *> &in,
           const serving::DagContext &) {
            tensor::Tensor out = *in[0];
            for (int64_t i = 0; i < out.numel(); ++i)
                out.data()[i] = out.data()[i] * 0.5f + 0.1f;
            return out;
        };
    const auto postprocess =
        [](const std::vector<const tensor::Tensor *> &in,
           const serving::DagContext &) {
            tensor::Tensor out = *in[0];
            for (int64_t i = 0; i < out.numel(); ++i)
                out.data()[i] = out.data()[i] * 2.0f - 1.0f;
            return out;
        };

    serving::DagBuilder chain("pre-model-post");
    const int c_in = chain.input();
    const int c_pre = chain.stage("preprocess", preprocess, {c_in}, 0.2);
    const int c_model = chain.stage(
        "model", serving::registryModelStage(registry, "mobilenet"),
        {c_pre}, 1.0);
    chain.stage("postprocess", postprocess, {c_model}, 0.1);
    const serving::DagPipeline pipeline = chain.build();

    const tensor::Tensor image = dataset.image(0);
    const tensor::Tensor dag_out = pipeline.run(image);

    const serving::ModelHandle handle = registry.acquire("mobilenet");
    const tensor::Tensor m_pre = preprocess({&image}, {});
    const tensor::Tensor m_model = handle->forward(m_pre);
    const tensor::Tensor m_out = postprocess({&m_model}, {});
    const bool chain_exact = bitIdentical(dag_out, m_out);

    // Fan-out across two stages sharing one upstream, joined by sum.
    serving::DagBuilder fan("fanout-join");
    const int f_in = fan.input();
    const int f_pre = fan.stage("preprocess", preprocess, {f_in}, 0.2);
    const int f_a = fan.stage(
        "model-a", serving::registryModelStage(registry, "mobilenet"),
        {f_pre}, 1.0);
    const int f_b = fan.stage("identity", postprocess, {f_pre}, 0.2);
    fan.stage("join",
              [](const std::vector<const tensor::Tensor *> &in,
                 const serving::DagContext &) {
                  tensor::Tensor out = *in[0];
                  const int64_t n =
                      std::min(out.numel(), in[1]->numel());
                  for (int64_t i = 0; i < n; ++i)
                      out.data()[i] += in[1]->data()[i];
                  return out;
              },
              {f_a, f_b}, 0.1);
    const serving::DagPipeline fan_pipeline = fan.build();
    const tensor::Tensor fan_out = fan_pipeline.run(image);

    tensor::Tensor m_join = handle->forward(m_pre);
    const tensor::Tensor m_ident = postprocess({&m_pre}, {});
    const int64_t join_n = std::min(m_join.numel(), m_ident.numel());
    for (int64_t i = 0; i < join_n; ++i)
        m_join.data()[i] += m_ident.data()[i];
    const bool fan_exact = bitIdentical(fan_out, m_join);

    std::printf("\nDAG pipelines: chain %s, fan-out/join %s "
                "(bit-identical to running the stages by hand)\n",
                chain_exact ? "EXACT" : "MISMATCH",
                fan_exact ? "EXACT" : "MISMATCH");

    // -------------------------------------------- zero-alloc steady state
    const nn::CompiledModel &compiled = classifier.compiled();
    nn::ExecutionInstance &instance = nn::ExecutionInstance::thread();
    const tensor::Tensor &sample = qsl.sample(1);
    auto serve_once = [&]() {
        const serving::ModelHandle h = registry.acquire("mobilenet");
        float *staged = instance.stageInput(compiled, 1);
        for (int64_t i = 0; i < sample.numel(); ++i)
            staged[i] = sample.data()[i];
        instance.run(compiled, 1);
        (void)h;
    };
    for (int i = 0; i < 4; ++i)
        serve_once();  // warm-up: plan cache + arena growth
    const long before = g_heap_allocs.load(std::memory_order_relaxed);
    constexpr int kSteadyQueries = 64;
    for (int i = 0; i < kSteadyQueries; ++i)
        serve_once();
    const long steady_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    std::printf("Steady-state serving (registry acquire + compiled "
                "plan): %ld allocs across %d queries\n",
                steady_allocs, kSteadyQueries);

    const serving::RegistrySnapshot reg = registry.snapshot();

    // ------------------------------------------------------------- JSON
    std::string json = "{\"bench\":\"multitenant\",";
    json += strprintf(
        "\"tenants\":%zu,\"burst_factor\":%.1f,\"hot_models\":%lld,"
        "\"registry_constant_bytes\":%lld,"
        "\"solo_p99_ms\":%.4f,\"budgets_1x_p99_ms\":%.4f,"
        "\"budgets_4x_p99_ms\":%.4f,\"shared_4x_p99_ms\":%.4f,"
        "\"isolation_holds\":%s,"
        "\"aggressor_shed_rate_4x\":%.4f,"
        "\"dag_chain_bitexact\":%s,\"dag_fanout_bitexact\":%s,"
        "\"steady_state_allocs\":%ld,\"steady_state_queries\":%d,",
        steady.size(), kBurstFactor,
        static_cast<long long>(budgets_4x.registry.hotModels),
        static_cast<long long>(reg.constantBytes), solo_p99, b_1x,
        b_4x, s_4x, isolated ? "true" : "false",
        tenantNamed(budgets_4x, "tenantA-gnmt").stats.shedRate(),
        chain_exact ? "true" : "false", fan_exact ? "true" : "false",
        steady_allocs, kSteadyQueries);
    json += "\"tenants_4x\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
        if (i)
            json += ",";
        json += report::tenantSnapshotJson(rows[i],
                                           budgets_4x.elapsedNs);
    }
    json += "]}";
    std::printf("\nJSON: %s\n", json.c_str());

    // MLPERF_BENCH_JSON=<path> writes the machine-readable results
    // for the BENCH_* tracking scripts.
    mlperf::bench::writeBenchJson(json, nullptr);

    return (profile && chain_exact && fan_exact && steady_allocs == 0 &&
            isolated && ledger_ok)
               ? 0
               : 1;
}
