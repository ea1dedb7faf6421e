/**
 * @file
 * Continuous vs. static batching for the autoregressive streaming
 * decoder.
 *
 * A statically batched decode pays two taxes the paper's fixed-batch
 * throughput numbers hide: finished slots burn equal-FLOPs padding at
 * the speed of the batch's longest member, and arrivals wait for the
 * whole batch to drain. Continuous (in-flight) batching re-forms the
 * batch every round, so sustained tokens/sec tracks the mean output
 * length instead of the batch max. This bench sweeps output-length
 * variance (low: 12-16-word sources; high: 4-48) and drives the same
 * DecoderEngine through both modes, gating on:
 *
 *  - continuous >= 1.5x static sustained tokens/sec at high variance
 *  - continuous TTFT p99 no worse than static
 *  - zero sequences shed, every sequence completed, in both modes
 *  - streamed output bit-identical to the eager reference decode
 *    regardless of batch composition
 *  - zero steady-state heap allocations in the decode path (measured
 *    with a binary-wide operator-new counter around a direct engine
 *    drive; result() string building is the documented per-sequence
 *    exception and is excluded by not calling it)
 *  - zero instrumented-lock acquisitions inside pump() rounds
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.h"
#include "data/translation.h"
#include "models/stream_decoder.h"
#include "report/table.h"
#include "serving/continuous_batcher.h"
#include "sim/real_executor.h"
#include "stats/percentile.h"
#include "sut/decode_adapters.h"
#include "sut/nn_sut.h"

// Binary-wide heap-allocation counter (the bench_microkernels idiom):
// the steady-state decode path's headline claim is zero.
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

constexpr size_t kSlots = 8;
constexpr uint64_t kSequences = 384;
constexpr int kReps = 9;  //!< paired reps: wall-clock noise control
/**
 * Each rep runs the 384-sequence query in both modes, alternating,
 * until each mode has decoded for at least this long. One query
 * takes about 0.1 s, and runs that short swung the per-rep ratio
 * from 1.04 to 2.57; back-to-back 1 s runs per mode still let a
 * slow host phase land on one mode (the gated median read 1.48-1.78
 * over 8 runs). Interleaved, both modes see the same phases.
 */
constexpr sim::Tick kMinTimedNs = sim::kNsPerSec;

/** Records per-sequence TTFT (issue to first token) and responses. */
class StreamProbe : public loadgen::ResponseDelegate
{
  public:
    explicit StreamProbe(sim::Executor &executor) : executor_(executor)
    {
    }

    /** A query of @p count samples issues now; forget the last one. */
    void
    markIssued(uint64_t count)
    {
        issuedAt_.assign(count, executor_.now());
        ttfts_.clear();
        data_.clear();
    }

    void
    querySampleFirstToken(loadgen::ResponseId id) override
    {
        ttfts_.push_back(executor_.now() - issuedAt_[id]);
    }

    void
    querySamplesComplete(
        const std::vector<loadgen::QuerySampleResponse> &responses)
        override
    {
        for (const auto &r : responses)
            data_[r.id] = r.data;
    }

    /** TTFT of every sequence of the last query. */
    const std::vector<uint64_t> &ttftSamples() const { return ttfts_; }

    std::map<loadgen::ResponseId, std::string> data_;  //!< last query

  private:
    sim::Executor &executor_;
    std::vector<sim::Tick> issuedAt_;
    std::vector<uint64_t> ttfts_;
};

struct ModeResult
{
    double tokensPerSec = 0.0;
    uint64_t ttftP99 = 0;   //!< median over the rep's queries
    uint64_t queries = 0;   //!< 384-sequence queries in the rep
                            //!< (merged: the fewest of any rep)
    uint64_t missing = 0;   //!< sequences issued but never completed
    uint64_t shed = 0;
    uint64_t padSteps = 0;  //!< per query
    double slotUtilization = 0.0;
    uint64_t fastPathLocks = 0;
    uint64_t poolGrowths = 0;
    uint64_t mismatches = 0;  //!< responses != eager reference
};

std::vector<loadgen::QuerySample>
makeSamples(uint64_t count, uint64_t dataset_size)
{
    std::vector<loadgen::QuerySample> samples;
    samples.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        samples.push_back({i, i % dataset_size});
    return samples;
}

/** The eager reference decode of every dataset source, encoded. */
std::vector<std::string>
referenceOutputs(const data::TranslationDataset &dataset,
                 const nn::DecoderModel &model)
{
    std::vector<std::string> out;
    for (int64_t i = 0; i < dataset.size(); ++i)
        out.push_back(sut::encodeTokens(
            model.referenceDecode(dataset.source(i))));
    return out;
}

/**
 * One batching mode's stack (QSL, engine, direct-driven batcher,
 * probe), run one 384-sequence query at a time so a rep can
 * interleave the two modes' queries.
 */
class ModeRun
{
  public:
    ModeRun(const data::TranslationDataset &dataset,
            const nn::DecoderModel &model, serving::BatchingMode mode)
        : qsl_(dataset), engine_(model, qsl_, kSlots),
          batcher_(engine_, ex_, options(mode)), probe_(ex_),
          samples_(makeSamples(kSequences,
                               static_cast<uint64_t>(dataset.size())))
    {
        std::vector<loadgen::QuerySampleIndex> all;
        for (int64_t i = 0; i < dataset.size(); ++i)
            all.push_back(static_cast<uint64_t>(i));
        qsl_.loadSamplesToRam(all);
    }

    sim::Tick busy() const { return busy_; }

    /** Issue the query, drain it (timed), then check it (untimed). */
    void
    runQuery(const std::vector<std::string> &expected)
    {
        probe_.markIssued(kSequences);
        const sim::Tick t0 = ex_.now();
        batcher_.issueQuery(samples_, probe_);
        while (!batcher_.idle())
            batcher_.pump();
        busy_ += ex_.now() - t0;
        ++queries_;
        // Each query is one replicate: its TTFT p99 is how long its
        // last sequences waited for a slot, and a host stall in one
        // query must not decide the TTFT gate. Every query's streams
        // must match the eager reference.
        ttftP99s_.push_back(
            stats::LatencySummary::from(probe_.ttftSamples()).p99);
        for (const auto &entry : probe_.data_) {
            if (entry.second != expected[entry.first % expected.size()])
                ++mismatches_;
        }
    }

    ModeResult
    result() const
    {
        const serving::BatcherCounters c = batcher_.counters();
        ModeResult r;
        r.queries = queries_;
        r.missing = queries_ * kSequences - c.completed;
        r.shed = c.shed;
        r.padSteps = c.padSteps / queries_;
        r.fastPathLocks = c.fastPathLockAcquisitions;
        r.poolGrowths = engine_.poolGrowths();
        r.mismatches = mismatches_;
        r.tokensPerSec = static_cast<double>(c.tokens) *
                         static_cast<double>(sim::kNsPerSec) /
                         static_cast<double>(busy_);
        r.slotUtilization =
            c.decodeRounds > 0
                ? static_cast<double>(c.tokens) /
                      (static_cast<double>(c.decodeRounds) * kSlots)
                : 0.0;
        std::vector<uint64_t> p99s = ttftP99s_;
        std::sort(p99s.begin(), p99s.end());
        r.ttftP99 = p99s[p99s.size() / 2];
        return r;
    }

  private:
    static serving::ContinuousBatcherOptions
    options(serving::BatchingMode mode)
    {
        serving::ContinuousBatcherOptions opts;
        opts.mode = mode;
        opts.startThread = false;  // direct drive: compute, not parking
        return opts;
    }

    sut::TranslationQsl qsl_;
    sim::RealExecutor ex_;
    sut::DecoderEngine engine_;
    serving::ContinuousBatcher batcher_;
    StreamProbe probe_;
    const std::vector<loadgen::QuerySample> samples_;
    sim::Tick busy_ = 0;
    uint64_t queries_ = 0;
    uint64_t mismatches_ = 0;
    std::vector<uint64_t> ttftP99s_;  //!< one per query
};

/**
 * Merge one repetition into the reported result: best on the timing
 * metrics (one descheduled rep must not flip the gate), worst on the
 * correctness counters (one bad rep must still fail).
 */
void
mergeRep(ModeResult &acc, const ModeResult &r)
{
    acc.tokensPerSec = std::max(acc.tokensPerSec, r.tokensPerSec);
    acc.ttftP99 = std::min(acc.ttftP99, r.ttftP99);
    acc.queries = std::min(acc.queries, r.queries);
    acc.missing = std::max(acc.missing, r.missing);
    acc.shed = std::max(acc.shed, r.shed);
    acc.padSteps = std::max(acc.padSteps, r.padSteps);
    acc.slotUtilization =
        std::max(acc.slotUtilization, r.slotUtilization);
    acc.fastPathLocks = std::max(acc.fastPathLocks, r.fastPathLocks);
    acc.poolGrowths = std::max(acc.poolGrowths, r.poolGrowths);
    acc.mismatches = std::max(acc.mismatches, r.mismatches);
}

struct AxisRun
{
    ModeResult st, ct;
    double speedup = 0.0;  //!< median of paired per-rep ratios
};

/**
 * Paired repetitions: each rep interleaves static and continuous
 * queries and contributes one speedup ratio, so slow machine phases
 * hit both sides of the ratio; the gate uses the median ratio.
 */
AxisRun
runAxis(const data::TranslationDataset &dataset,
        const nn::DecoderModel &model)
{
    AxisRun out;
    const std::vector<std::string> expected =
        referenceOutputs(dataset, model);
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
        ModeRun static_run(dataset, model, serving::BatchingMode::Static);
        ModeRun continuous_run(dataset, model,
                               serving::BatchingMode::Continuous);
        // Alternate the two modes query by query, so a host phase
        // longer than one query (~0.1 s) slows both sides of the
        // ratio alike.
        while (static_run.busy() < kMinTimedNs ||
               continuous_run.busy() < kMinTimedNs) {
            static_run.runQuery(expected);
            continuous_run.runQuery(expected);
        }
        const ModeResult st = static_run.result();
        const ModeResult ct = continuous_run.result();
        if (st.tokensPerSec > 0)
            ratios.push_back(ct.tokensPerSec / st.tokensPerSec);
        if (rep == 0) {
            out.st = st;
            out.ct = ct;
        } else {
            mergeRep(out.st, st);
            mergeRep(out.ct, ct);
        }
    }
    std::sort(ratios.begin(), ratios.end());
    if (!ratios.empty())
        out.speedup = ratios[ratios.size() / 2];
    return out;
}

/**
 * Steady-state allocation count per churned sequence, driving the
 * engine directly (prefill/step/release; no result() strings). The
 * first pass through every slot warms the pool; the measured window
 * must allocate nothing.
 */
long
steadyStateAllocs(const data::TranslationDataset &dataset,
                  const nn::DecoderModel &model)
{
    sut::TranslationQsl qsl(dataset);
    std::vector<loadgen::QuerySampleIndex> all;
    for (int64_t i = 0; i < dataset.size(); ++i)
        all.push_back(static_cast<uint64_t>(i));
    qsl.loadSamplesToRam(all);

    sut::DecoderEngine engine(model, qsl, kSlots);
    const uint64_t n = static_cast<uint64_t>(dataset.size());
    uint64_t next = 0;

    bool occupied[kSlots] = {};  // outside churn: not a decode cost
    auto churn = [&](uint64_t sequences) {
        for (bool &o : occupied)
            o = false;
        uint64_t started = 0, finished = 0;
        while (finished < sequences) {
            for (size_t s = 0; s < kSlots && started < sequences; ++s) {
                if (!occupied[s]) {
                    engine.prefill(s, next++ % n);
                    occupied[s] = true;
                    ++started;
                }
            }
            for (size_t s = 0; s < kSlots; ++s) {
                if (!occupied[s])
                    continue;
                if (engine.step(s).finished) {
                    engine.release(s);
                    occupied[s] = false;
                    ++finished;
                }
            }
        }
    };

    churn(2 * kSlots);  // warmup: every slot exercised past capacity
    const long before = g_heap_allocs.load(std::memory_order_relaxed);
    churn(64);
    return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

data::TranslationConfig
axisConfig(int64_t min_len, int64_t max_len)
{
    data::TranslationConfig config;
    config.sampleCount = 128;
    config.minLength = min_len;
    config.maxLength = max_len;
    // A wide output projection makes the decode step dominate the
    // (mode-independent) prefill encoder pass, so the measured ratio
    // reflects the batching policy rather than shared overhead.
    config.vocabSize = 2048;
    return config;
}

} // namespace

int
main()
{
    std::printf("%s", report::banner(
        "Continuous vs. static batching, autoregressive streaming "
        "decoder (8 slots)").c_str());

    struct Axis
    {
        const char *name;
        int64_t minLen, maxLen;
    };
    const Axis axes[] = {{"low_variance", 12, 16},
                         {"high_variance", 2, 64}};

    int failures = 0;
    bench::JsonWriter json;
    json.beginObject()
        .field("benchmark", "decode_batching")
        .field("cpus", static_cast<uint64_t>(std::max(
                           1u, std::thread::hardware_concurrency())))
        .field("paired_reps", static_cast<uint64_t>(kReps))
        .field("min_timed_ns", static_cast<uint64_t>(kMinTimedNs))
        .field("slots", static_cast<uint64_t>(kSlots))
        .field("sequences", kSequences);
    json.beginArray("axes");

    report::Table table({"Axis", "Mode", "Tokens/s", "TTFT p99 (us)",
                         "Pad steps", "Slot util"});
    double high_variance_speedup = 0.0;
    for (const Axis &axis : axes) {
        const data::TranslationConfig config =
            axisConfig(axis.minLen, axis.maxLen);
        const data::TranslationDataset dataset(config);
        // Sharpen the positional query so attention stays locked to
        // slot t and EOS fires at the source's EOS slot: output
        // length tracks source length, making the sweep's length
        // variance the real experimental axis (with the default gain,
        // attention spill ends most long sentences early and both
        // modes mostly measure the shared prefill pass).
        models::TranslatorArch arch;
        arch.queryGain = 16.0;
        const nn::DecoderModel model =
            models::makeStreamDecoder(dataset, arch);

        const AxisRun run = runAxis(dataset, model);
        const ModeResult &st = run.st;
        const ModeResult &ct = run.ct;
        const long allocs = steadyStateAllocs(dataset, model);
        const double speedup = run.speedup;
        if (axis.maxLen > 16)
            high_variance_speedup = speedup;

        for (const ModeResult *r : {&st, &ct}) {
            const bool is_static = r == &st;
            table.addRow(
                {axis.name,
                 serving::batchingModeName(
                     is_static ? serving::BatchingMode::Static
                               : serving::BatchingMode::Continuous),
                 report::fmt(r->tokensPerSec, 0),
                 report::fmt(static_cast<double>(r->ttftP99) / 1000.0,
                             0),
                 report::fmt(static_cast<double>(r->padSteps), 0),
                 report::fmt(r->slotUtilization, 2)});
        }

        // ---- Invariants (both modes).
        for (const ModeResult *r : {&st, &ct}) {
            if (r->missing != 0 || r->shed != 0) {
                std::printf("FAIL [%s]: dropped sequences "
                            "(never completed %llu, shed %llu)\n",
                            axis.name,
                            static_cast<unsigned long long>(
                                r->missing),
                            static_cast<unsigned long long>(r->shed));
                ++failures;
            }
            if (r->mismatches != 0) {
                std::printf("FAIL [%s]: %llu responses diverged from "
                            "the eager reference\n",
                            axis.name,
                            static_cast<unsigned long long>(
                                r->mismatches));
                ++failures;
            }
            if (r->fastPathLocks != 0) {
                std::printf("FAIL [%s]: %llu instrumented lock "
                            "acquisitions on the decode fast path\n",
                            axis.name,
                            static_cast<unsigned long long>(
                                r->fastPathLocks));
                ++failures;
            }
            if (r->poolGrowths != 0) {
                std::printf("FAIL [%s]: decode-state pool grew %llu "
                            "times in steady state\n",
                            axis.name,
                            static_cast<unsigned long long>(
                                r->poolGrowths));
                ++failures;
            }
        }
        if (allocs != 0) {
            std::printf("FAIL [%s]: %ld heap allocations in the "
                        "steady-state decode window\n",
                        axis.name, allocs);
            ++failures;
        }
        // "No worse" with a 10% noise allowance: at low variance the
        // modes are legitimately near-equal (little padding to save),
        // so a strict comparison would gate on scheduler jitter.
        if (static_cast<double>(ct.ttftP99) >
            1.10 * static_cast<double>(st.ttftP99)) {
            std::printf("FAIL [%s]: continuous TTFT p99 (%llu ns) "
                        "worse than static (%llu ns)\n",
                        axis.name,
                        static_cast<unsigned long long>(ct.ttftP99),
                        static_cast<unsigned long long>(st.ttftP99));
            ++failures;
        }

        json.beginObject()
            .field("axis", axis.name)
            .field("min_source_len", static_cast<int>(axis.minLen))
            .field("max_source_len", static_cast<int>(axis.maxLen))
            .field("static_tokens_per_sec", st.tokensPerSec, 1)
            .field("continuous_tokens_per_sec", ct.tokensPerSec, 1)
            .field("speedup_vs_static", speedup)
            .field("static_queries_per_run_min", st.queries)
            .field("continuous_queries_per_run_min", ct.queries)
            .field("static_ttft_p99_ns", st.ttftP99)
            .field("continuous_ttft_p99_ns", ct.ttftP99)
            .field("static_pad_steps", st.padSteps)
            .field("continuous_pad_steps", ct.padSteps)
            .field("static_slot_utilization", st.slotUtilization)
            .field("continuous_slot_utilization", ct.slotUtilization)
            .field("dropped", st.shed + ct.shed + st.missing + ct.missing)
            .field("steady_state_allocs",
                   static_cast<uint64_t>(allocs < 0 ? 0 : allocs))
            .field("fast_path_locks",
                   st.fastPathLocks + ct.fastPathLocks)
            .field("bit_identical",
                   st.mismatches == 0 && ct.mismatches == 0)
            .endObject();
    }
    json.endArray();

    std::printf("%s", table.str().c_str());
    std::printf("\nHigh-variance speedup (continuous / static): "
                "%.2fx (gate: >= 1.50x)\n",
                high_variance_speedup);
    if (high_variance_speedup < 1.5) {
        std::printf("FAIL: continuous batching must sustain >= 1.5x "
                    "static tokens/sec at high length variance\n");
        ++failures;
    }
    json.field("high_variance_speedup", high_variance_speedup)
        .field("pass", failures == 0)
        .endObject();
    if (!bench::writeBenchJson(json.str(), "BENCH_decode.json"))
        std::printf("WARN: could not write bench JSON\n");

    std::printf("\nStatic batching pays the batch max: finished "
                "slots pad until the longest member\ndrains, and "
                "joiners wait out the drain. Continuous batching "
                "refills slots the round\nafter EOS, so throughput "
                "tracks the mean output length — the gap is the "
                "length\nvariance, which is why the high-variance "
                "axis is the gated one.\n");
    return failures == 0 ? 0 : 1;
}
