/**
 * @file
 * How late the wall-clock executor fires its events.
 *
 * LoadGen times Server and TokenStream queries from their scheduled
 * arrival, so every microsecond RealExecutor fires an arrival late
 * counts against the system under test. This bench schedules Poisson
 * arrivals on a RealExecutor, the way LoadGen plans a Server run (all
 * of them before run() starts), and records each event's lateness:
 * now() inside the task minus its due tick. Rates: 100/s and 700/s,
 * the e2ebench tokenstream_gnmt and server_resnet arrival rates, and
 * 5,000/s, whose mean gap (200 us) is close to the executor's spin
 * guard.
 *
 * Each rate runs kReps times; every rep reports lateness p50, p99 and
 * max over its kEventsPerRep events, and the runner thread's CPU
 * share (CLOCK_THREAD_CPUTIME_ID over the rep's wall time) beside the
 * spin's bound, guard x rate. Stdout and BENCH_executor.json give the
 * median and quartiles across reps, with the host's CPU count.
 *
 * The only gate is deterministic: exit 1 if any event fires before
 * its tick. Lateness is wall-clock noise and is reported, not gated.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.h"
#include "common/rng.h"
#include "report/table.h"
#include "sim/real_executor.h"

using namespace mlperf;

namespace {

constexpr int kReps = 9;
constexpr uint64_t kEventsPerRep = 1000;  //!< p99 has 10 events beyond
/** First arrival's offset from set-up, so scheduling finishes first. */
constexpr sim::Tick kLeadNs = 2 * sim::kNsPerMs;

struct RepResult
{
    double p50Us = 0.0;
    double p99Us = 0.0;
    double maxUs = 0.0;
    double cpuShare = 0.0;
    uint64_t early = 0;
};

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Nearest-rank percentile of sorted @p v, in microseconds. */
double
rankUs(const std::vector<int64_t> &v, double q)
{
    const size_t rank = static_cast<size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return static_cast<double>(v[rank]) / 1000.0;
}

RepResult
runRep(double rate_per_s, uint64_t seed)
{
    sim::RealExecutor ex;
    Rng rng(seed);
    std::vector<sim::Tick> due(kEventsPerRep);
    std::vector<int64_t> lateness(kEventsPerRep, 0);
    sim::Tick at = ex.now() + kLeadNs;
    for (uint64_t i = 0; i < kEventsPerRep; ++i) {
        at += static_cast<sim::Tick>(rng.nextExponential(rate_per_s) *
                                     static_cast<double>(sim::kNsPerSec));
        due[i] = at;
        ex.schedule(at, [&, i] {
            lateness[i] = static_cast<int64_t>(ex.now()) -
                          static_cast<int64_t>(due[i]);
            if (i + 1 == kEventsPerRep)
                ex.stop();
        });
    }
    const double cpu0 = threadCpuSeconds();
    const sim::Tick wall0 = ex.now();
    ex.run();
    const sim::Tick wall = ex.now() - wall0;
    const double cpu = threadCpuSeconds() - cpu0;

    RepResult r;
    r.early = static_cast<uint64_t>(
        std::count_if(lateness.begin(), lateness.end(),
                      [](int64_t l) { return l < 0; }));
    std::sort(lateness.begin(), lateness.end());
    r.p50Us = rankUs(lateness, 0.50);
    r.p99Us = rankUs(lateness, 0.99);
    r.maxUs = static_cast<double>(lateness.back()) / 1000.0;
    r.cpuShare = cpu * static_cast<double>(sim::kNsPerSec) /
                 static_cast<double>(wall);
    return r;
}

/** Median and quartiles (nearest rank) of one metric across reps. */
struct Spread
{
    double q1, median, q3;
};

Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return {v[(n - 1) / 4], v[(n - 1) / 2], v[3 * (n - 1) / 4]};
}

std::string
cell(const Spread &s, int precision)
{
    return report::fmt(s.median, precision) + " [" +
           report::fmt(s.q1, precision) + "-" +
           report::fmt(s.q3, precision) + "]";
}

void
spreadField(bench::JsonWriter &json, const char *key, const Spread &s,
            uint64_t samples)
{
    json.beginObject(key)
        .field("median", s.median, 2)
        .field("q1", s.q1, 2)
        .field("q3", s.q3, 2)
        .field("samples", samples)
        .endObject();
}

} // namespace

int
main()
{
    std::printf("%s", report::banner(
        "RealExecutor lateness: Poisson arrivals, park then spin")
                          .c_str());
    const double rates[] = {100.0, 700.0, 5000.0};
    const double guard_s = static_cast<double>(
                               sim::RealExecutor::kSpinGuardNs) /
                           static_cast<double>(sim::kNsPerSec);
    const uint64_t cpus = std::max(1u, std::thread::hardware_concurrency());

    bench::JsonWriter json;
    json.beginObject()
        .field("benchmark", "executor_lateness")
        .field("cpus", cpus)
        .field("spin_guard_ns",
               static_cast<uint64_t>(sim::RealExecutor::kSpinGuardNs))
        .field("reps", static_cast<uint64_t>(kReps))
        .field("events_per_rep", kEventsPerRep);
    json.beginArray("rates");

    report::Table table({"Rate (/s)", "Late p50 us", "Late p99 us",
                         "Late max us", "CPU share", "Bound", "Early"});
    uint64_t early_total = 0;
    uint64_t seed = 1;
    for (const double rate : rates) {
        std::vector<double> p50, p99, max, share;
        uint64_t early = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            const RepResult r = runRep(rate, seed++);
            p50.push_back(r.p50Us);
            p99.push_back(r.p99Us);
            max.push_back(r.maxUs);
            share.push_back(r.cpuShare);
            early += r.early;
        }
        early_total += early;
        const double bound = std::min(1.0, guard_s * rate);
        const Spread s50 = spreadOf(p50), s99 = spreadOf(p99),
                     smax = spreadOf(max), sshare = spreadOf(share);
        table.addRow({report::fmt(rate, 0), cell(s50, 1), cell(s99, 1),
                      cell(smax, 1), cell(sshare, 3),
                      report::fmt(bound, 3),
                      std::to_string(early)});
        json.beginObject()
            .field("rate_per_s", rate, 0);
        spreadField(json, "lateness_p50_us", s50, kEventsPerRep);
        spreadField(json, "lateness_p99_us", s99, kEventsPerRep);
        spreadField(json, "lateness_max_us", smax, kEventsPerRep);
        json.beginObject("cpu_share")
            .field("median", sshare.median, 4)
            .field("q1", sshare.q1, 4)
            .field("q3", sshare.q3, 4)
            .endObject()
            .field("cpu_share_bound", bound)
            .field("early_events", early)
            .endObject();
    }
    json.endArray()
        .field("pass", early_total == 0)
        .endObject();

    std::printf("%s", table.str().c_str());
    std::printf("\nLateness = now() inside the task - its due tick, per "
                "rep of %llu events;\nmedian [quartiles] over %d reps. "
                "Bound = spin guard (%llu us) x rate.\n",
                static_cast<unsigned long long>(kEventsPerRep), kReps,
                static_cast<unsigned long long>(
                    sim::RealExecutor::kSpinGuardNs / sim::kNsPerUs));
    if (!bench::writeBenchJson(json.str(), "BENCH_executor.json"))
        std::printf("WARN: could not write bench JSON\n");
    if (early_total != 0) {
        std::printf("FAIL: %llu event(s) fired before their tick\n",
                    static_cast<unsigned long long>(early_total));
        return 1;
    }
    return 0;
}
