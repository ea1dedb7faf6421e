#include "serving/resilience.h"

#include <chrono>
#include <thread>

namespace mlperf {
namespace serving {

ResilientInference::ResilientInference(sim::Executor &executor,
                                       BatchInference &primary,
                                       BatchInference *fallback,
                                       RetryOptions retry,
                                       BreakerOptions breaker,
                                       ServingStats &stats)
    : executor_(executor), primary_(primary), fallback_(fallback),
      retry_(retry), stats_(stats)
{
    if (breaker.enabled)
        breaker_.emplace(breaker, &stats_);
}

std::string
ResilientInference::name() const
{
    return "resilient(" + primary_.name() + ")";
}

sim::Tick
ResilientInference::serviceTimeNs(
    const std::vector<loadgen::QuerySample> &samples, sim::Tick now)
{
    // While degraded (or fast-failing under an open breaker), event
    // workers should charge the fallback's cheaper cost model, not the
    // primary's. Fast-fails are modeled as free.
    if (degraded_.load(std::memory_order_relaxed) ||
        (breaker_ && breaker_->state() == BreakerState::Open)) {
        return fallback_ ? fallback_->serviceTimeNs(samples, now) : 0;
    }
    return primary_.serviceTimeNs(samples, now);
}

std::vector<loadgen::QuerySampleResponse>
ResilientInference::runFallback(
    const std::vector<loadgen::QuerySample> &samples)
{
    auto responses = fallback_->runBatch(samples);
    for (auto &response : responses)
        response.status = loadgen::ResponseStatus::Degraded;
    return responses;
}

void
ResilientInference::backoff(int attempt)
{
    // Event workers run on the executor thread: sleeping there would
    // stall the discrete-event clock, so virtual-time retries are
    // instantaneous (still counted).
    if (executor_.virtualTime())
        return;
    sim::Tick delay = retry_.backoffBaseNs << (attempt - 1);
    if (delay > retry_.backoffMaxNs || delay < retry_.backoffBaseNs)
        delay = retry_.backoffMaxNs;
    std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
}

std::vector<loadgen::QuerySampleResponse>
ResilientInference::runBatch(
    const std::vector<loadgen::QuerySample> &samples)
{
    if (degraded_.load(std::memory_order_relaxed) && fallback_)
        return runFallback(samples);

    if (breaker_ && !breaker_->allow(executor_.now())) {
        stats_.recordBreakerFastFail(samples.size());
        if (fallback_)
            return runFallback(samples);
        throw InferenceFault(FaultKind::Permanent,
                             "circuit breaker open: " + primary_.name());
    }

    const int attempts = retry_.maxAttempts > 0 ? retry_.maxAttempts : 1;
    std::string reason = "inference failed";
    for (int attempt = 1; attempt <= attempts; ++attempt) {
        try {
            auto responses = primary_.runBatch(samples);
            if (breaker_)
                breaker_->onSuccess(executor_.now());
            if (attempt > 1)
                stats_.recordRetrySuccess();
            return responses;
        } catch (const InferenceFault &fault) {
            if (fault.kind() == FaultKind::DropCompletion)
                throw; // The simulated fault is losing the completion.
            reason = fault.what();
            if (fault.kind() == FaultKind::Transient &&
                attempt < attempts) {
                stats_.recordRetry();
                backoff(attempt);
                continue;
            }
            if (attempt == attempts && retry_.enabled() &&
                fault.kind() == FaultKind::Transient) {
                stats_.recordRetriesExhausted();
            }
        } catch (const std::exception &error) {
            // Unknown exceptions are permanent: fall through to fail.
            reason = error.what();
        }
        break;
    }

    if (breaker_)
        breaker_->onFailure(executor_.now());
    if (fallback_)
        return runFallback(samples);
    throw InferenceFault(FaultKind::Permanent, reason);
}

} // namespace serving
} // namespace mlperf
