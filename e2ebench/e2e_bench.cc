/**
 * @file
 * End-to-end benchmark: one workload per process, run through
 * LoadGen on the wall-clock executor with the real compiled models.
 *
 *   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads (fixed offered load; see README.md for why each exists):
 *   server_resnet     Server, Poisson 700 qps, ResNet-50 proxy behind
 *                     ServingSut with ServingOptions{}
 *   offline_resnet    Offline queries of 8,192 samples, same SUT with an
 *                     unbounded worker queue
 *   tokenstream_gnmt  TokenStream, Poisson 100 seq/s, streaming GNMT
 *                     decoder behind ContinuousBatcher (8 slots)
 *   offline_gnmt      Offline queries of 1,024 sequences, same batcher
 * Each run repeats fixed-size LoadGen tests for --seconds and reports
 * medians over them.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
 * untraced and then traced, prints the per-layer metrics of the traced
 * pass and the tracing overhead on every end-to-end metric. Spans are
 * recorded only by the decorators in this file, around calls into the
 * layers' public interfaces. The last stdout line is one JSON object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "data/classification.h"
#include "data/translation.h"
#include "loadgen/loadgen.h"
#include "models/classifier.h"
#include "models/stream_decoder.h"
#include "serving/continuous_batcher.h"
#include "serving/serving_sut.h"
#include "sim/real_executor.h"
#include "stats/percentile.h"
#include "sut/decode_adapters.h"
#include "sut/nn_sut.h"
#include "sut/serving_adapters.h"

using namespace mlperf;

namespace {

using loadgen::ResponseId;
using sim::Tick;

// ------------------------------------------------------------ workloads

enum class Model
{
    ResNet,
    Gnmt,
};

/**
 * The offered load is fixed here, never derived from a calibration run
 * of the code under test: a load that scales with the kernel's speed
 * would hide the gain it is meant to show.
 */
struct Workload
{
    const char *name;
    loadgen::Scenario scenario;
    Model model;
    double rate;           //!< Server/TokenStream arrivals per second
    /**
     * Samples in one LoadGen test: Server/TokenStream queries (about
     * two seconds of arrivals), or the Offline query size.
     */
    uint64_t testSamples;
    Tick latencyLimitNs;   //!< Server: p99 bound; TokenStream: TTFT
};

constexpr Workload kWorkloads[] = {
    {"server_resnet", loadgen::Scenario::Server, Model::ResNet, 700.0,
     1400, 15 * sim::kNsPerMs},
    {"offline_resnet", loadgen::Scenario::Offline, Model::ResNet, 0.0,
     8192, 0},
    {"tokenstream_gnmt", loadgen::Scenario::TokenStream, Model::Gnmt,
     100.0, 200, 100 * sim::kNsPerMs},
    {"offline_gnmt", loadgen::Scenario::Offline, Model::Gnmt, 0.0, 1024,
     0},
};

constexpr int kSetupRepeats = 7;       //!< setup_s is their median
constexpr uint64_t kStagedImages = 256;
constexpr int64_t kMaxBatch = 8;       //!< ServingOptions{}.maxBatch
constexpr size_t kSlots = 8;
constexpr size_t kMinTests = 3;
constexpr size_t kMaxReportedMismatches = 16;

double
toMs(double ns)
{
    return ns / 1e6;
}

double
toUs(double ns)
{
    return ns / 1e3;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --------------------------------------------------------------- ledger

/**
 * Per-sample records of one LoadGen test, indexed by ResponseId (which
 * LoadGen assigns sequentially from 0 within a test). Sized before the
 * test starts, so the sample path neither locks nor allocates. Every
 * slot is written by exactly one thread and read only after the test
 * has returned, so plain stores suffice except for the completion
 * count, which must catch a duplicate delivery from another thread.
 */
struct Ledger
{
    explicit Ledger(size_t capacity)
        : index(capacity), sutEnter(capacity), kernelStart(capacity),
          kernelEnd(capacity), firstOut(capacity), done(capacity),
          completions(capacity)
    {
        for (auto &c : completions)
            c.store(0, std::memory_order_relaxed);
    }

    size_t capacity() const { return index.size(); }

    std::vector<loadgen::QuerySampleIndex> index;
    // Stamps, all RealExecutor::now(). kernelStart/kernelEnd are the
    // first model call on the sample (runBatch / prefill) and the end
    // of its last one (runBatch / final decode step).
    std::vector<Tick> sutEnter, kernelStart, kernelEnd, firstOut, done;
    std::vector<std::atomic<uint8_t>> completions;

    std::atomic<uint64_t> issued{0};
    std::atomic<uint64_t> ok{0}, shed{0}, timeout{0}, failed{0};
    std::atomic<uint64_t> tokens{0};
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> overflow{0};  //!< ids beyond capacity
    std::atomic<size_t> reported{0};
    struct Mismatch
    {
        ResponseId id = 0;
        loadgen::QuerySampleIndex index = 0;
        std::string got, expected;
    };
    std::vector<Mismatch> mismatchLog =
        std::vector<Mismatch>(kMaxReportedMismatches);
};

/**
 * ResponseDelegate decorator between the SUT and LoadGen: checks every
 * response against the precomputed reference for its sample, counts
 * statuses, stamps first output and completion, then forwards. It is
 * on in traced and untraced runs alike, because the output check is
 * part of every run.
 */
class CheckingDelegate : public loadgen::ResponseDelegate
{
  public:
    CheckingDelegate(sim::Executor &executor,
                     const std::vector<std::string> &expected)
        : executor_(executor), expected_(expected)
    {
    }

    void
    bind(Ledger *ledger, loadgen::ResponseDelegate *target)
    {
        ledger_ = ledger;
        target_ = target;
    }

    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        const Tick now = executor_.now();
        Ledger &l = *ledger_;
        for (const auto &r : responses) {
            if (r.id >= l.capacity()) {
                l.overflow.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            l.done[r.id] = now;
            l.completions[r.id].fetch_add(1, std::memory_order_relaxed);
            l.tokens.fetch_add(r.tokenCount, std::memory_order_relaxed);
            switch (r.status) {
              case loadgen::ResponseStatus::Ok:
                l.ok.fetch_add(1, std::memory_order_relaxed);
                check(r);
                break;
              case loadgen::ResponseStatus::Shed:
                l.shed.fetch_add(1, std::memory_order_relaxed);
                break;
              case loadgen::ResponseStatus::Timeout:
                l.timeout.fetch_add(1, std::memory_order_relaxed);
                break;
              case loadgen::ResponseStatus::Failed:
              case loadgen::ResponseStatus::Degraded:  // no fallback here
                l.failed.fetch_add(1, std::memory_order_relaxed);
                break;
            }
        }
        target_->querySamplesComplete(responses);
    }

    void
    querySampleFirstToken(ResponseId id) override
    {
        if (id < ledger_->capacity())
            ledger_->firstOut[id] = executor_.now();
        target_->querySampleFirstToken(id);
    }

  private:
    void
    check(const loadgen::QuerySampleResponse &r)
    {
        Ledger &l = *ledger_;
        const std::string &want = expected_[l.index[r.id]];
        if (r.data == want)
            return;
        l.mismatches.fetch_add(1, std::memory_order_relaxed);
        const size_t slot =
            l.reported.fetch_add(1, std::memory_order_relaxed);
        if (slot < l.mismatchLog.size())
            l.mismatchLog[slot] = {r.id, l.index[r.id], r.data, want};
    }

    sim::Executor &executor_;
    const std::vector<std::string> &expected_;
    Ledger *ledger_ = nullptr;
    loadgen::ResponseDelegate *target_ = nullptr;
};

/**
 * SystemUnderTest decorator: records each sample's index (for the
 * output check) and, when tracing, its issueQuery entry; hands the
 * inner SUT the checking delegate instead of LoadGen's.
 */
class CheckedSut : public loadgen::SystemUnderTest
{
  public:
    CheckedSut(loadgen::SystemUnderTest &inner, sim::Executor &executor,
               CheckingDelegate &checker)
        : inner_(inner), executor_(executor), checker_(checker)
    {
    }

    void
    begin(Ledger *ledger, bool trace)
    {
        ledger_ = ledger;
        trace_ = trace;
        bound_ = nullptr;
    }

    std::string name() const override { return inner_.name(); }

    void
    issueQuery(const std::vector<loadgen::QuerySample> &samples,
               loadgen::ResponseDelegate &delegate) override
    {
        const Tick now = trace_ ? executor_.now() : 0;
        if (bound_ != &delegate) {
            checker_.bind(ledger_, &delegate);
            bound_ = &delegate;
        }
        Ledger &l = *ledger_;
        for (const auto &s : samples) {
            if (s.id >= l.capacity())
                continue;  // counted as overflow at completion
            l.index[s.id] = s.index;
            l.sutEnter[s.id] = now;
        }
        l.issued.fetch_add(samples.size(), std::memory_order_relaxed);
        inner_.issueQuery(samples, checker_);
    }

    void flushQueries() override { inner_.flushQueries(); }

  private:
    loadgen::SystemUnderTest &inner_;
    sim::Executor &executor_;
    CheckingDelegate &checker_;
    Ledger *ledger_ = nullptr;
    bool trace_ = false;
    loadgen::ResponseDelegate *bound_ = nullptr;
};

/** One runBatch call as seen from outside the kernel. */
struct BatchSpan
{
    uint64_t size = 0;
    Tick start = 0, end = 0;
};

/**
 * BatchInference decorator (ServingSut's `sut` boundary). Disabled, it
 * only forwards; enabled, it stamps every sample's kernel start/end and
 * appends one span per call to a preallocated array.
 */
class TracedInference : public serving::BatchInference
{
  public:
    TracedInference(serving::BatchInference &inner, sim::Executor &executor)
        : inner_(inner), executor_(executor)
    {
    }

    void
    begin(Ledger *ledger, bool trace)
    {
        ledger_ = ledger;
        spans_.assign(trace ? ledger->capacity() : 0, BatchSpan{});
        count_.store(0, std::memory_order_relaxed);
        trace_.store(trace, std::memory_order_relaxed);
    }

    std::vector<BatchSpan>
    spans() const
    {
        const size_t n = std::min(count_.load(std::memory_order_relaxed),
                                  spans_.size());
        return {spans_.begin(), spans_.begin() + static_cast<long>(n)};
    }

    std::string name() const override { return inner_.name(); }

    std::vector<loadgen::QuerySampleResponse>
    runBatch(const std::vector<loadgen::QuerySample> &samples) override
    {
        if (!trace_.load(std::memory_order_relaxed))
            return inner_.runBatch(samples);
        const Tick start = executor_.now();
        auto responses = inner_.runBatch(samples);
        const Tick end = executor_.now();
        Ledger &l = *ledger_;
        for (const auto &s : samples) {
            if (s.id < l.capacity()) {
                l.kernelStart[s.id] = start;
                l.kernelEnd[s.id] = end;
            }
        }
        const size_t k = count_.fetch_add(1, std::memory_order_relaxed);
        if (k < spans_.size())
            spans_[k] = {samples.size(), start, end};
        return responses;
    }

  private:
    serving::BatchInference &inner_;
    sim::Executor &executor_;
    Ledger *ledger_ = nullptr;
    std::vector<BatchSpan> spans_;
    std::atomic<size_t> count_{0};
    std::atomic<bool> trace_{false};
};

/** Decode-thread totals of the traced SequenceDecoder. */
struct DecodeTotals
{
    uint64_t prefillNs = 0, prefillCalls = 0;
    uint64_t stepNs = 0, stepCalls = 0;
    uint64_t padNs = 0, padCalls = 0;
    uint64_t misattributed = 0;  //!< prefill whose index != ledger's
};

/**
 * SequenceDecoder decorator (ContinuousBatcher's `sut` boundary). All
 * calls come from the single decode thread, so totals are plain
 * counters. The batcher admits from one FIFO ring with one producer
 * (LoadGen's issue thread), so the k-th prefill of a test is
 * ResponseId k; the sample index each prefill names is checked
 * against the ledger to confirm that attribution.
 */
class TracedDecoder : public serving::SequenceDecoder
{
  public:
    TracedDecoder(serving::SequenceDecoder &inner, sim::Executor &executor)
        : inner_(inner), executor_(executor),
          slotId_(inner.slotCount(), 0)
    {
    }

    void
    begin(Ledger *ledger, bool trace)
    {
        ledger_ = ledger;
        totals_ = {};
        nextId_ = 0;
        trace_.store(trace, std::memory_order_relaxed);
    }

    const DecodeTotals &totals() const { return totals_; }

    size_t slotCount() const override { return inner_.slotCount(); }

    void
    prefill(size_t slot, loadgen::QuerySampleIndex index) override
    {
        if (!trace_.load(std::memory_order_relaxed)) {
            inner_.prefill(slot, index);
            return;
        }
        const ResponseId id = nextId_++;
        Ledger &l = *ledger_;
        const bool known = id < l.capacity() && l.index[id] == index;
        if (!known)
            ++totals_.misattributed;
        slotId_[slot] = id;
        const Tick start = executor_.now();
        inner_.prefill(slot, index);
        const Tick end = executor_.now();
        if (known)
            l.kernelStart[id] = start;
        totals_.prefillNs += end - start;
        ++totals_.prefillCalls;
    }

    serving::StepOutcome
    step(size_t slot) override
    {
        if (!trace_.load(std::memory_order_relaxed))
            return inner_.step(slot);
        const Tick start = executor_.now();
        const serving::StepOutcome out = inner_.step(slot);
        const Tick end = executor_.now();
        const ResponseId id = slotId_[slot];
        if (id < ledger_->capacity())
            ledger_->kernelEnd[id] = end;
        totals_.stepNs += end - start;
        ++totals_.stepCalls;
        return out;
    }

    void
    padStep(size_t slot) override
    {
        if (!trace_.load(std::memory_order_relaxed)) {
            inner_.padStep(slot);
            return;
        }
        const Tick start = executor_.now();
        inner_.padStep(slot);
        totals_.padNs += executor_.now() - start;
        ++totals_.padCalls;
    }

    std::string result(size_t slot) const override
    {
        return inner_.result(slot);
    }
    uint64_t tokenCount(size_t slot) const override
    {
        return inner_.tokenCount(slot);
    }
    void release(size_t slot) override { inner_.release(slot); }

  private:
    serving::SequenceDecoder &inner_;
    sim::Executor &executor_;
    Ledger *ledger_ = nullptr;
    DecodeTotals totals_;
    ResponseId nextId_ = 0;
    std::vector<ResponseId> slotId_;
    std::atomic<bool> trace_{false};
};

/**
 * Forwarding QuerySampleLibrary whose load and unload do nothing: set-up
 * stages every performance sample before LoadGen starts. LoadGen fixes
 * a run's start before it calls loadSamplesToRam, so staging there
 * would make the first queries of every run late.
 */
class StagedQsl : public loadgen::QuerySampleLibrary
{
  public:
    explicit StagedQsl(loadgen::QuerySampleLibrary &inner) : inner_(inner)
    {
        std::vector<loadgen::QuerySampleIndex> all(population());
        for (uint64_t i = 0; i < all.size(); ++i)
            all[i] = i;
        inner_.loadSamplesToRam(all);
    }

    uint64_t
    population() const
    {
        return std::min(inner_.performanceSampleCount(),
                        inner_.totalSampleCount());
    }

    std::string name() const override { return inner_.name(); }
    uint64_t totalSampleCount() const override
    {
        return inner_.totalSampleCount();
    }
    uint64_t performanceSampleCount() const override
    {
        return inner_.performanceSampleCount();
    }
    void loadSamplesToRam(
        const std::vector<loadgen::QuerySampleIndex> &) override
    {
    }
    void unloadSamplesFromRam(
        const std::vector<loadgen::QuerySampleIndex> &) override
    {
    }

  private:
    loadgen::QuerySampleLibrary &inner_;
};

/** Completion counter for set-up warm-up traffic. */
class CountingDelegate : public loadgen::ResponseDelegate
{
  public:
    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &r) override
    {
        count_.fetch_add(r.size(), std::memory_order_release);
    }

    void
    waitFor(uint64_t n) const
    {
        while (count_.load(std::memory_order_acquire) < n)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    }

  private:
    std::atomic<uint64_t> count_{0};
};

std::vector<loadgen::QuerySample>
warmSamples(uint64_t count, uint64_t population, ResponseId first)
{
    std::vector<loadgen::QuerySample> samples;
    for (uint64_t i = 0; i < count; ++i)
        samples.push_back({first + i, (first + i) % population});
    return samples;
}

/** Counters of the serving layer, read before and after a pass. */
struct LayerCounters
{
    uint64_t batchesFormed = 0, timeoutFlushes = 0;
    uint64_t decodeRounds = 0, slotStepSum = 0;
    int64_t workers = 1;
};

/**
 * Everything one workload needs, built by the constructor: the timed
 * set-up. Reference outputs and the single-caller kernel base are
 * computed afterwards and are not part of it.
 */
class Stack
{
  public:
    virtual ~Stack() = default;

    virtual loadgen::SystemUnderTest &sut() = 0;
    virtual StagedQsl &qsl() = 0;
    /** Reference response for every staged sample index. */
    virtual std::vector<std::string> referenceOutputs() = 0;
    /** Single-caller kernel time in set-up, for sut.kernel_inflation. */
    virtual void measureKernelBase() = 0;
    virtual void begin(Ledger *ledger, bool trace) = 0;
    virtual LayerCounters counters() const = 0;

    sim::RealExecutor executor;
};

class ResnetStack : public Stack
{
  public:
    explicit ResnetStack(bool offline)
        : model_(models::ImageClassifier::resnet50Proxy(dataset_)),
          images_(dataset_, kStagedImages), staged_(images_),
          inference_(model_, images_), traced_(inference_, executor),
          serving_(executor, traced_, options(offline))
    {
        // Plans for every batch size the batcher can form, then a
        // burst through the workers so each has run a full batch.
        const uint64_t population = staged_.population();
        for (int64_t b = 1; b <= kMaxBatch; ++b)
            inference_.runBatch(warmSamples(b, population, 0));
        CountingDelegate warm;
        uint64_t issued = 0;
        for (int64_t b = 1; b <= kMaxBatch; ++b) {
            serving_.issueQuery(warmSamples(b, population, issued), warm);
            serving_.flushQueries();
            issued += b;
        }
        const uint64_t burst = 4 * kMaxBatch * serving_.options().workers;
        serving_.issueQuery(warmSamples(burst, population, issued), warm);
        serving_.flushQueries();
        warm.waitFor(issued + burst);
    }

    loadgen::SystemUnderTest &sut() override { return serving_; }
    StagedQsl &qsl() override { return staged_; }

    std::vector<std::string>
    referenceOutputs() override
    {
        std::vector<std::string> out;
        for (uint64_t i = 0; i < staged_.population(); ++i) {
            out.push_back(sut::encodeClassification(
                model_.classify(images_.sample(i))));
        }
        return out;
    }

    void
    measureKernelBase() override
    {
        constexpr int kReps = 25;
        baseNs_.assign(kMaxBatch + 1, 0.0);
        for (int64_t b = 1; b <= kMaxBatch; ++b) {
            const auto samples =
                warmSamples(b, staged_.population(), 0);
            std::vector<double> times;
            for (int r = 0; r < kReps; ++r) {
                const Tick start = executor.now();
                inference_.runBatch(samples);
                times.push_back(
                    static_cast<double>(executor.now() - start));
            }
            baseNs_[b] = median(times);
        }
    }

    /** Median single-caller runBatch time for a batch of @p size. */
    double baseNs(uint64_t size) const { return baseNs_.at(size); }

    void
    begin(Ledger *ledger, bool trace) override
    {
        traced_.begin(ledger, trace);
    }

    LayerCounters
    counters() const override
    {
        const serving::StatsSnapshot s = serving_.stats();
        LayerCounters c;
        c.batchesFormed = s.batchesFormed;
        c.timeoutFlushes = s.timeoutFlushes;
        c.workers = serving_.options().workers;
        return c;
    }

    const TracedInference &traced() const { return traced_; }

  private:
    static serving::ServingOptions
    options(bool offline)
    {
        serving::ServingOptions o;  // the shipped defaults
        // Offline issues the whole query at once; the default 64-batch
        // worker queue would shed almost all of it.
        if (offline)
            o.queueCapacityBatches = 0;
        return o;
    }

    data::ClassificationDataset dataset_;
    models::ImageClassifier model_;
    sut::ClassificationQsl images_;
    StagedQsl staged_;
    sut::ClassifierBatchInference inference_;
    TracedInference traced_;
    serving::ServingSut serving_;
    std::vector<double> baseNs_;
};

data::TranslationConfig
gnmtDataset()
{
    data::TranslationConfig config;
    config.sampleCount = 128;
    config.minLength = 2;  // bench_decode's high length-variance axis
    config.maxLength = 64;
    config.vocabSize = 2048;
    return config;
}

models::TranslatorArch
gnmtArch()
{
    models::TranslatorArch arch;
    arch.queryGain = 16.0;  // output length tracks source length
    return arch;
}

class GnmtStack : public Stack
{
  public:
    explicit GnmtStack(size_t ring)
        : dataset_(gnmtDataset()),
          model_(models::makeStreamDecoder(dataset_, gnmtArch())),
          sources_(dataset_), staged_(sources_),
          engine_(model_, sources_, kSlots), traced_(engine_, executor),
          batcher_(traced_, executor, options(ring))
    {
        // Every slot prefills and decodes at least twice.
        CountingDelegate warm;
        const uint64_t count = 2 * kSlots;
        batcher_.issueQuery(warmSamples(count, staged_.population(), 0),
                            warm);
        warm.waitFor(count);
    }

    loadgen::SystemUnderTest &sut() override { return batcher_; }
    StagedQsl &qsl() override { return staged_; }

    std::vector<std::string>
    referenceOutputs() override
    {
        std::vector<std::string> out;
        for (uint64_t i = 0; i < staged_.population(); ++i) {
            out.push_back(sut::encodeTokens(model_.referenceDecode(
                dataset_.source(static_cast<int64_t>(i)))));
        }
        return out;
    }

    void
    measureKernelBase() override
    {
        // One caller, one slot, every staged source decoded to EOS: the
        // same token mix a run steps, without a concurrent batcher.
        sut::DecoderEngine engine(model_, sources_, 1);
        uint64_t steps = 0;
        Tick total = 0;
        // Three passes over the staged sources; the first only warms up.
        for (uint64_t i = 0; i < 3 * staged_.population(); ++i) {
            if (i == staged_.population())
                steps = total = 0;
            engine.prefill(0, i % staged_.population());
            for (bool done = false; !done; ++steps) {
                const Tick start = executor.now();
                done = engine.step(0).finished;
                total += executor.now() - start;
            }
            engine.release(0);
        }
        baseStepNs_ = static_cast<double>(total) /
                      static_cast<double>(std::max<uint64_t>(steps, 1));
    }

    double baseStepNs() const { return baseStepNs_; }

    void
    begin(Ledger *ledger, bool trace) override
    {
        traced_.begin(ledger, trace);
    }

    LayerCounters
    counters() const override
    {
        const serving::BatcherCounters b = batcher_.counters();
        LayerCounters c;
        c.decodeRounds = b.decodeRounds;
        c.slotStepSum = b.slotStepSum;
        return c;
    }

    const TracedDecoder &traced() const { return traced_; }

  private:
    static serving::ContinuousBatcherOptions
    options(size_t ring)
    {
        serving::ContinuousBatcherOptions o;
        o.mode = serving::BatchingMode::Continuous;
        // An Offline query lands in the ring at once; it must fit.
        o.ringCapacity = std::max(o.ringCapacity, ring);
        return o;
    }

    data::TranslationDataset dataset_;
    nn::DecoderModel model_;
    sut::TranslationQsl sources_;
    StagedQsl staged_;
    sut::DecoderEngine engine_;
    TracedDecoder traced_;
    serving::ContinuousBatcher batcher_;
    double baseStepNs_ = 0.0;
};

std::unique_ptr<Stack>
makeStack(const Workload &w)
{
    const bool offline = w.scenario == loadgen::Scenario::Offline;
    if (w.model == Model::ResNet)
        return std::make_unique<ResnetStack>(offline);
    return std::make_unique<GnmtStack>(
        offline ? w.testSamples : size_t{0});
}

// ---------------------------------------------------------------- passes

/** One LoadGen test with its ledger and (traced) layer records. */
struct TestRun
{
    loadgen::TestResult result;
    std::unique_ptr<Ledger> ledger;
    std::vector<BatchSpan> spans;  //!< ResNet
    DecodeTotals decode;           //!< GNMT
};

/** Every test of one pass (untraced or traced) plus layer deltas. */
struct Pass
{
    std::vector<TestRun> tests;
    LayerCounters before, after;
};

Pass
runPass(Stack &stack, const Workload &w, uint64_t seed, double seconds,
        bool trace, const std::vector<std::string> &expected)
{
    Pass pass;
    CheckingDelegate checker(stack.executor, expected);
    CheckedSut checked(stack.sut(), stack.executor, checker);
    auto *resnet = dynamic_cast<ResnetStack *>(&stack);
    auto *gnmt = dynamic_cast<GnmtStack *>(&stack);

    loadgen::TestSettings settings = loadgen::TestSettings::forScenario(
        w.scenario);
    settings.recordTimeline = true;
    // Spread the seed so neighbouring seeds share no test's inputs.
    settings.scheduleSeed = splitmix(seed);
    settings.sampleIndexSeed = splitmix(~seed);
    if (w.scenario == loadgen::Scenario::Offline) {
        settings.offlineSampleCount = w.testSamples;
        settings.maxQueryCount = 1;
    } else {
        settings.serverTargetQps = w.rate;
        settings.minQueryCount = w.testSamples;
        settings.maxQueryCount = w.testSamples;
        if (w.scenario == loadgen::Scenario::Server)
            settings.targetLatencyNs = w.latencyLimitNs;
        else
            settings.ttftTargetNs = w.latencyLimitNs;
    }

    pass.before = stack.counters();
    const auto start = std::chrono::steady_clock::now();
    do {
        TestRun run;
        run.ledger = std::make_unique<Ledger>(w.testSamples);
        checked.begin(run.ledger.get(), trace);
        stack.begin(run.ledger.get(), trace);
        loadgen::LoadGen lg(stack.executor);
        run.result = lg.startTest(checked, stack.qsl(), settings);
        if (resnet)
            run.spans = resnet->traced().spans();
        if (gnmt)
            run.decode = gnmt->traced().totals();
        pass.tests.push_back(std::move(run));
        // Fixed-size tests, each with its own arrivals and sample
        // order, repeat until the run length is used up; metrics are
        // medians over tests, so one disturbed test cannot move them.
        ++settings.scheduleSeed;
        ++settings.sampleIndexSeed;
    } while (secondsSince(start) < seconds ||
             pass.tests.size() < kMinTests);
    pass.after = stack.counters();
    stack.begin(nullptr, false);
    return pass;
}

// --------------------------------------------------------------- checks

struct Tally
{
    uint64_t attempted = 0, completed = 0, ok = 0;
    uint64_t shed = 0, timeout = 0, failed = 0, neverCompleted = 0;
    uint64_t mismatches = 0;
    std::vector<std::string> violations;

    uint64_t
    failedTotal() const
    {
        return shed + timeout + failed + neverCompleted;
    }
};

void
tallyPass(const Pass &pass, Tally &t)
{
    for (const TestRun &run : pass.tests) {
        const Ledger &l = *run.ledger;
        const loadgen::TestResult &r = run.result;
        const uint64_t issued = l.issued.load();
        uint64_t completed = 0, duplicated = 0;
        for (uint64_t id = 0; id < std::min<uint64_t>(issued, l.capacity());
             ++id) {
            const uint8_t c = l.completions[id].load();
            completed += c > 0;
            duplicated += c > 1;
        }
        t.attempted += issued;
        t.completed += completed;
        t.ok += l.ok.load();
        t.shed += l.shed.load();
        t.timeout += l.timeout.load();
        t.failed += l.failed.load();
        t.neverCompleted += issued - completed;
        t.mismatches += l.mismatches.load();
        const size_t logged =
            std::min(l.reported.load(), l.mismatchLog.size());
        for (size_t i = 0; i < logged; ++i) {
            const auto &m = l.mismatchLog[i];
            t.violations.push_back(
                "response " + std::to_string(m.id) + " (sample " +
                std::to_string(m.index) + ") = \"" + m.got +
                "\", reference \"" + m.expected + "\"");
        }
        if (l.mismatches.load() > logged) {
            t.violations.push_back(
                std::to_string(l.mismatches.load() - logged) +
                " further output mismatches");
        }
        if (l.overflow.load() != 0)
            t.violations.push_back("responses beyond the ledger");
        if (duplicated != 0)
            t.violations.push_back(std::to_string(duplicated) +
                                   " samples completed twice");
        if (issued != completed || completed != r.sampleCount) {
            t.violations.push_back(
                "issued " + std::to_string(issued) + ", completed " +
                std::to_string(completed) + ", LoadGen sampleCount " +
                std::to_string(r.sampleCount));
        }
        if (r.droppedQueries != 0)
            t.violations.push_back(std::to_string(r.droppedQueries) +
                                   " dropped queries");
    }
}

// ----------------------------------------------------- end-to-end metrics

struct Percentiles
{
    double p50 = 0, p90 = 0, p99 = 0;  //!< ns
    uint64_t n = 0;
};

Percentiles
fromSummary(const stats::LatencySummary &s)
{
    return {static_cast<double>(s.p50), static_cast<double>(s.p90),
            static_cast<double>(s.p99), s.count};
}

/** Per-test percentiles folded by taking the median of each. */
Percentiles
medianOf(const std::vector<Percentiles> &per)
{
    Percentiles out;
    std::vector<double> p50, p90, p99;
    for (const auto &p : per) {
        p50.push_back(p.p50);
        p90.push_back(p.p90);
        p99.push_back(p.p99);
        out.n += p.n;
    }
    out.p50 = median(p50);
    out.p90 = median(p90);
    out.p99 = median(p99);
    return out;
}

struct EndToEnd
{
    Percentiles latency, ttft, tpot;
    double samplesPerS = 0, tokensPerS = 0;
    uint64_t tests = 0;
};

double
perSecond(uint64_t count, Tick durationNs)
{
    return durationNs == 0 ? 0.0
                           : static_cast<double>(count) * 1e9 /
                                 static_cast<double>(durationNs);
}

/**
 * Server/TokenStream latencies are LoadGen's, from scheduled arrival.
 * An Offline query has one LoadGen latency, so its samples are timed
 * from the query's issue to each sample's completion (first token for
 * TTFT) by the checking delegate. A classifier's answer is its one and
 * only output, so its TTFT is its latency and it emits one token.
 */
EndToEnd
endToEnd(const Workload &w, const Pass &pass)
{
    EndToEnd e;
    e.tests = pass.tests.size();
    const bool decoder = w.model == Model::Gnmt;
    std::vector<Percentiles> lat, ttft, tpot;
    std::vector<double> samples, tokens;
    for (const TestRun &run : pass.tests) {
        const Ledger &l = *run.ledger;
        const loadgen::TestResult &r = run.result;
        const uint64_t out = decoder ? l.tokens.load() : l.ok.load();
        samples.push_back(perSecond(l.ok.load(), r.durationNs));
        tokens.push_back(perSecond(out, r.durationNs));
        if (w.scenario != loadgen::Scenario::Offline) {
            lat.push_back(fromSummary(r.latency));
            ttft.push_back(decoder ? fromSummary(r.ttft)
                                   : fromSummary(r.latency));
            tpot.push_back(fromSummary(r.tpot));
            continue;
        }
        const Tick issued = r.timeline.at(0).issued;
        std::vector<uint64_t> done, first;
        const uint64_t n = std::min<uint64_t>(l.issued.load(), l.capacity());
        for (uint64_t id = 0; id < n; ++id) {
            done.push_back(l.done[id] - issued);
            if (decoder && l.firstOut[id] != 0)
                first.push_back(l.firstOut[id] - issued);
        }
        lat.push_back(fromSummary(stats::LatencySummary::from(done)));
        ttft.push_back(decoder ? fromSummary(
                                     stats::LatencySummary::from(first))
                               : lat.back());
    }
    e.latency = medianOf(lat);
    e.ttft = medianOf(ttft);
    e.tpot = medianOf(tpot);
    e.samplesPerS = median(samples);
    e.tokensPerS = median(tokens);
    return e;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;  //!< sample count, shown in the text report
};

/**
 * The end-to-end metrics of the JSON result, which BENCHMARK.json
 * bounds: the ones that repeat within a few percent on a shared VM.
 */
std::vector<Metric>
endToEndMetrics(const EndToEnd &e, double setup, double rss,
                size_t setups)
{
    const std::string nq = "median of " + std::to_string(e.tests) +
                           " test(s)";
    return {
        {"setup_s", setup, "s",
         "median of " + std::to_string(setups) + " set-up(s)"},
        {"peak_rss_mb", rss, "MB", "getrusage ru_maxrss"},
        {"latency_p50_ms", toMs(e.latency.p50), "ms",
         "n=" + std::to_string(e.latency.n)},
        {"ttft_p50_ms", toMs(e.ttft.p50), "ms",
         "n=" + std::to_string(e.ttft.n)},
        {"samples_per_s", e.samplesPerS, "1/s", nq},
        {"tokens_per_s", e.tokensPerS, "1/s", nq},
    };
}

/**
 * Tails, and TPOT where tokens stream, for the text report only: the
 * hypervisor's CPU steal moves them by 2-3x between runs (README.md).
 */
std::vector<Metric>
tailMetrics(const Workload &w, const EndToEnd &e)
{
    const std::string nl = "n=" + std::to_string(e.latency.n);
    const std::string nt = "n=" + std::to_string(e.ttft.n);
    std::vector<Metric> out = {
        {"latency_p90_ms", toMs(e.latency.p90), "ms", nl},
        {"latency_p99_ms", toMs(e.latency.p99), "ms", nl},
        {"ttft_p90_ms", toMs(e.ttft.p90), "ms", nt},
        {"ttft_p99_ms", toMs(e.ttft.p99), "ms", nt},
    };
    if (w.scenario == loadgen::Scenario::TokenStream) {
        const std::string n = "n=" + std::to_string(e.tpot.n);
        out.push_back({"tpot_p50_us", toUs(e.tpot.p50), "us", n});
        out.push_back({"tpot_p90_us", toUs(e.tpot.p90), "us", n});
    }
    return out;
}

// ------------------------------------------------------ per-layer metrics

int64_t
diff(Tick a, Tick b)
{
    return static_cast<int64_t>(a) - static_cast<int64_t>(b);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

Percentiles
percentilesOf(const std::vector<double> &ns)
{
    std::vector<uint64_t> v;
    for (double x : ns)
        v.push_back(x < 0 ? 0 : static_cast<uint64_t>(x));
    return fromSummary(stats::LatencySummary::from(v));
}

/**
 * Per-sample stages, outside-in, from the traced pass. With every
 * stamp from RealExecutor::now():
 *   issue lag  scheduled arrival -> issueQuery entry: how late the
 *              generator ran, including LoadGen's own issue path
 *              (Offline: the query's creation stands for its arrival)
 *   wait       issueQuery entry -> first model call (runBatch/prefill)
 *   kernel     first model call -> end of the last one
 *   deliver    end of the last model call -> LoadGen's completion
 *              stamp (Offline: querySamplesComplete entry)
 * The four partition the LoadGen latency; the check that they add up
 * catches a missing or out-of-order stamp.
 */
struct Stages
{
    std::vector<double> lag, wait, kernel, deliver, latency, ttft;
    double worstSumError = 0;  //!< max |latency - sum| / latency
    uint64_t negative = 0;     //!< stages whose stamps run backwards
};

Stages
stagesOf(const Workload &w, const Pass &pass)
{
    Stages s;
    const bool offline = w.scenario == loadgen::Scenario::Offline;
    for (const TestRun &run : pass.tests) {
        const Ledger &l = *run.ledger;
        const auto &timeline = run.result.timeline;
        const uint64_t n = std::min<uint64_t>(l.issued.load(), l.capacity());
        for (uint64_t id = 0; id < n; ++id) {
            if (l.completions[id].load() != 1 || l.kernelStart[id] == 0)
                continue;  // never served: counted as failed instead
            const auto &q = timeline.at(offline ? 0 : id);
            const int64_t lag = diff(l.sutEnter[id], q.scheduled);
            const int64_t wait = diff(l.kernelStart[id], l.sutEnter[id]);
            const int64_t kernel = diff(l.kernelEnd[id], l.kernelStart[id]);
            // LoadGen stamps completion per query; an Offline query's
            // samples complete at the checking delegate's stamp.
            const Tick completed = offline ? l.done[id] : q.completed;
            const int64_t deliver = diff(completed, l.kernelEnd[id]);
            const int64_t latency = diff(completed, q.scheduled);
            s.negative += (lag < 0) + (wait < 0) + (kernel < 0) +
                          (deliver < 0);
            s.lag.push_back(static_cast<double>(lag));
            s.wait.push_back(static_cast<double>(wait));
            s.kernel.push_back(static_cast<double>(kernel));
            s.deliver.push_back(static_cast<double>(deliver));
            s.latency.push_back(static_cast<double>(latency));
            if (l.firstOut[id] != 0) {
                s.ttft.push_back(
                    static_cast<double>(diff(l.firstOut[id], q.scheduled)));
            }
            if (latency > 0) {
                const double sum =
                    static_cast<double>(lag + wait + kernel + deliver);
                s.worstSumError = std::max(
                    s.worstSumError,
                    std::abs(static_cast<double>(latency) - sum) /
                        static_cast<double>(latency));
            }
        }
    }
    return s;
}

std::vector<Metric>
layerMetrics(const Pass &pass, const Stack &stack,
             const Tally &tally, const Stages &st,
             std::vector<std::string> &notes)
{
    Tick duration = 0;
    for (const TestRun &run : pass.tests)
        duration += run.result.durationNs;
    const double dur = static_cast<double>(std::max<Tick>(duration, 1));
    const Percentiles lag = percentilesOf(st.lag);
    const Percentiles wait = percentilesOf(st.wait);
    const Percentiles deliver = percentilesOf(st.deliver);

    double batchMean = 0, timeoutShare = 0, busy = 0, occupancy = 0;
    double decodeBusy = 0, admitWait = 0, kernelPerSample = 0;
    double inflation = 0, prefillMean = 0, stepMean = 0;
    uint64_t prefillCalls = 0, stepCalls = 0;
    const LayerCounters &a = pass.before, &b = pass.after;
    if (const auto *resnet = dynamic_cast<const ResnetStack *>(&stack)) {
        double busyNs = 0, baseNs = 0;
        uint64_t samples = 0, calls = 0;
        for (const TestRun &run : pass.tests) {
            for (const BatchSpan &span : run.spans) {
                busyNs += static_cast<double>(span.end - span.start);
                baseNs += resnet->baseNs(span.size);
                samples += span.size;
                ++calls;
            }
        }
        batchMean = calls ? static_cast<double>(samples) /
                                static_cast<double>(calls)
                          : 0.0;
        const uint64_t formed = b.batchesFormed - a.batchesFormed;
        timeoutShare = formed ? static_cast<double>(b.timeoutFlushes -
                                                    a.timeoutFlushes) /
                                    static_cast<double>(formed)
                              : 0.0;
        busy = busyNs / (static_cast<double>(b.workers) * dur);
        admitWait = mean(st.latency) - mean(st.lag) - mean(st.kernel) -
                    mean(st.deliver);
        kernelPerSample =
            samples ? busyNs / static_cast<double>(samples) : 0.0;
        inflation = baseNs > 0 ? busyNs / baseNs : 0.0;
        notes.push_back(
            "single-caller base, us/sample by batch size:" + [&] {
                std::string s;
                for (uint64_t size = 1; size <= kMaxBatch; ++size) {
                    char buf[32];
                    std::snprintf(buf, sizeof buf, " %llu:%.0f",
                                  static_cast<unsigned long long>(size),
                                  toUs(resnet->baseNs(size)) /
                                      static_cast<double>(size));
                    s += buf;
                }
                return s;
            }());
    } else {
        const auto &gnmt = dynamic_cast<const GnmtStack &>(stack);
        DecodeTotals t;
        for (const TestRun &run : pass.tests) {
            t.prefillNs += run.decode.prefillNs;
            t.prefillCalls += run.decode.prefillCalls;
            t.stepNs += run.decode.stepNs;
            t.stepCalls += run.decode.stepCalls;
            t.padNs += run.decode.padNs;
            t.misattributed += run.decode.misattributed;
        }
        const uint64_t rounds = b.decodeRounds - a.decodeRounds;
        occupancy = rounds ? static_cast<double>(b.slotStepSum -
                                                 a.slotStepSum) /
                                 static_cast<double>(rounds)
                           : 0.0;
        batchMean = occupancy;
        decodeBusy =
            static_cast<double>(t.prefillNs + t.stepNs + t.padNs) / dur;
        busy = decodeBusy;  // the decode thread is the one worker
        prefillCalls = t.prefillCalls;
        stepCalls = t.stepCalls;
        prefillMean = prefillCalls ? static_cast<double>(t.prefillNs) /
                                         static_cast<double>(prefillCalls)
                                   : 0.0;
        stepMean = stepCalls ? static_cast<double>(t.stepNs) /
                                   static_cast<double>(stepCalls)
                             : 0.0;
        admitWait = mean(st.ttft) - mean(st.lag) - prefillMean - stepMean;
        kernelPerSample =
            tally.ok ? static_cast<double>(t.prefillNs + t.stepNs) /
                           static_cast<double>(tally.ok)
                     : 0.0;
        inflation =
            gnmt.baseStepNs() > 0 ? stepMean / gnmt.baseStepNs() : 0.0;
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "single-caller base: %.2f us/decode step",
                      toUs(gnmt.baseStepNs()));
        notes.push_back(buf);
        if (t.misattributed != 0) {
            notes.push_back(std::to_string(t.misattributed) +
                            " prefills not in issue order: per-sample "
                            "GNMT stages are unreliable");
        }
    }
    return {
        {"loadgen.issue_lag_p50_us", toUs(lag.p50), "us",
         "n=" + std::to_string(lag.n)},
        {"loadgen.issue_lag_p99_us", toUs(lag.p99), "us",
         "n=" + std::to_string(lag.n)},
        {"loadgen.samples_issued", static_cast<double>(tally.attempted),
         "count", ""},
        {"loadgen.samples_failed", static_cast<double>(tally.failedTotal()),
         "count", ""},
        {"serving.wait_p50_us", toUs(wait.p50), "us",
         "n=" + std::to_string(wait.n)},
        {"serving.wait_p99_us", toUs(wait.p99), "us",
         "n=" + std::to_string(wait.n)},
        {"serving.deliver_p50_us", toUs(deliver.p50), "us",
         "n=" + std::to_string(deliver.n)},
        {"serving.deliver_p99_us", toUs(deliver.p99), "us",
         "n=" + std::to_string(deliver.n)},
        {"serving.batch_size_mean", batchMean, "count", ""},
        {"serving.timeout_flush_share", timeoutShare, "share", ""},
        {"serving.worker_busy_share", busy, "share", ""},
        {"serving.slot_occupancy_mean", occupancy, "count", ""},
        {"serving.decode_busy_share", decodeBusy, "share", ""},
        {"serving.admit_wait_mean_us", toUs(admitWait), "us", ""},
        {"sut.kernel_us_per_sample", toUs(kernelPerSample), "us", ""},
        {"sut.kernel_inflation", inflation, "ratio", ""},
        {"sut.prefill_us_mean", toUs(prefillMean), "us", ""},
        {"sut.prefill_calls", static_cast<double>(prefillCalls), "count",
         ""},
        {"sut.decode_step_us_mean", toUs(stepMean), "us", ""},
        {"sut.decode_step_calls", static_cast<double>(stepCalls), "count",
         ""},
    };
}

// ----------------------------------------------------------------- report

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics) {
        std::printf("  %-28s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
}

std::string
resultJson(bool correct, const Tally &t, const std::vector<Metric> &ms)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(t.attempted);
    out += ", \"failed\": " + std::to_string(t.failedTotal());
    out += ", \"metrics\": {";
    for (size_t i = 0; i < ms.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", ms[i].value);
        out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
               value + ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return out + "}}";
}

struct Args
{
    const Workload *workload = nullptr;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool seed = false, trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            for (const Workload &w : kWorkloads) {
                if (w.name == std::string(value))
                    args.workload = &w;
            }
        } else if (key == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            seed = *value != '\0' && *end == '\0';
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (*end != '\0')
                return false;
        } else if (key == "--trace") {
            args.trace = std::string(value) == "1";
            trace = args.trace || std::string(value) == "0";
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && args.workload && seed && trace &&
           args.seconds > 0 && args.seconds <= 60;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: e2e_bench --workload <name> --seed <n> "
                     "--seconds <1-60> --trace <0|1>\nworkloads:");
        for (const Workload &w : kWorkloads)
            std::fprintf(stderr, " %s", w.name);
        std::fprintf(stderr, "\n");
        return 2;
    }
    const Workload &w = *args.workload;
    Logger::setLevel(LogLevel::Warn);
    const unsigned nproc = std::thread::hardware_concurrency();

    const char *revision = std::getenv("E2E_SOURCE_REVISION");
    std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);
    std::printf("provenance: nproc=%u intraop_threads=%d build=%s "
                "flags=\"%s\" revision=%s\n",
                nproc, ThreadPool::global()->threadCount(), E2E_BUILD_TYPE,
                E2E_CXX_FLAGS, revision ? revision : "unknown");

    // ---- Set-up, timed: dataset, model build/fit/compile, plan and
    // worker warm-up, sample staging. Repeated for a steady median.
    std::vector<double> setups;
    std::unique_ptr<Stack> stack;
    for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
        stack.reset();
        const auto start = std::chrono::steady_clock::now();
        stack = makeStack(w);
        setups.push_back(secondsSince(start));
    }
    const std::vector<std::string> expected = stack->referenceOutputs();
    if (args.trace)
        stack->measureKernelBase();

    const Pass untraced =
        runPass(*stack, w, args.seed, args.seconds, false, expected);
    Pass traced;
    if (args.trace) {
        traced = runPass(*stack, w, args.seed, args.seconds, true,
                         expected);
    }
    const double rss = peakRssMb();

    Tally tally;
    tallyPass(untraced, tally);
    if (args.trace)
        tallyPass(traced, tally);
    std::vector<std::string> notes;
    const EndToEnd base = endToEnd(w, untraced);
    const std::vector<Metric> e2e =
        endToEndMetrics(base, median(setups), rss, setups.size());
    std::vector<Metric> layers;
    if (args.trace) {
        Tally tracedTally;
        tallyPass(traced, tracedTally);
        const Stages st = stagesOf(w, traced);
        layers = layerMetrics(traced, *stack, tracedTally, st, notes);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "stage sum (issue lag + wait + kernel + deliver) vs "
                      "LoadGen latency: worst error %.4f%% over %zu "
                      "samples",
                      100.0 * st.worstSumError, st.latency.size());
        notes.push_back(buf);
        if (st.worstSumError > 0.01 || st.negative != 0) {
            tally.violations.push_back(
                "traced stages do not add up to the LoadGen latency (" +
                std::to_string(st.negative) + " negative stages)");
        }
    }

    // ---- Report.
    std::printf("requests: attempted %llu, ok %llu, failed %llu (shed "
                "%llu, timeout %llu, failed %llu, never completed %llu)\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.ok),
                static_cast<unsigned long long>(tally.failedTotal()),
                static_cast<unsigned long long>(tally.shed),
                static_cast<unsigned long long>(tally.timeout),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.neverCompleted));
    std::printf("output check: %llu mismatches in %llu Ok responses\n",
                static_cast<unsigned long long>(tally.mismatches),
                static_cast<unsigned long long>(tally.ok));
    if (w.scenario != loadgen::Scenario::Offline) {
        double over = 0, drift = 0;
        for (const TestRun &run : untraced.tests) {
            over = std::max(over, run.result.overLatencyFraction);
            drift = std::max(
                drift, static_cast<double>(run.result.maxIssueDriftNs));
        }
        std::printf("limit: worst test has %.2f%% of queries over %.0f ms "
                    "%s (allowed %.0f%%); max issue drift %.3f ms\n",
                    100.0 * over,
                    toMs(static_cast<double>(w.latencyLimitNs)),
                    w.scenario == loadgen::Scenario::Server ? "latency"
                                                            : "TTFT",
                    100.0 * loadgen::TestSettings::forScenario(w.scenario)
                                .maxOverLatencyFraction,
                    toMs(drift));
    }
    std::printf("per test, samples/s:");
    for (const TestRun &run : untraced.tests) {
        std::printf(" %.0f", perSecond(run.ledger->ok.load(),
                                       run.result.durationNs));
    }
    std::printf("\n");
    if (w.scenario != loadgen::Scenario::Offline) {
        std::printf("per test, latency p50/p99 ms:");
        for (const TestRun &run : untraced.tests) {
            std::printf(" %.2f/%.2f",
                        toMs(static_cast<double>(run.result.latency.p50)),
                        toMs(static_cast<double>(run.result.latency.p99)));
        }
        std::printf("\n");
    }
    const std::vector<Metric> tails = tailMetrics(w, base);
    printMetrics("end-to-end (untraced):", e2e);
    printMetrics("tails (untraced, text report only):", tails);
    if (args.trace) {
        printMetrics("per-layer (traced):", layers);
        // Every timed metric, untraced then traced; set-up and memory
        // are shared by both passes.
        const auto timed = [&](const EndToEnd &e) {
            std::vector<Metric> out =
                endToEndMetrics(e, median(setups), rss, setups.size());
            out.erase(out.begin(), out.begin() + 2);
            for (const Metric &m : tailMetrics(w, e))
                out.push_back(m);
            return out;
        };
        const std::vector<Metric> off = timed(base);
        const std::vector<Metric> on = timed(endToEnd(w, traced));
        std::printf("tracing overhead (traced / untraced - 1):\n");
        for (size_t i = 0; i < off.size(); ++i) {
            std::printf("  %-28s %+8.2f%%\n", off[i].name.c_str(),
                        off[i].value > 0
                            ? 100.0 * (on[i].value / off[i].value - 1.0)
                            : 0.0);
        }
    }
    for (const std::string &note : notes)
        std::printf("note: %s\n", note.c_str());
    for (const std::string &v : tally.violations)
        std::printf("VIOLATION: %s\n", v.c_str());

    const bool correct = tally.violations.empty();
    std::printf("%s\n",
                resultJson(correct, tally, args.trace ? layers : e2e)
                    .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
