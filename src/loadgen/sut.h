/**
 * @file
 * SystemUnderTest interface and the completion delegate.
 *
 * The SUT is entirely submitter-owned (paper Sec. IV-A); the LoadGen
 * only issues queries and receives completions. Queries may complete
 * asynchronously from any thread, or synchronously from within
 * issueQuery().
 */

#ifndef MLPERF_LOADGEN_SUT_H
#define MLPERF_LOADGEN_SUT_H

#include <cstddef>
#include <string>
#include <vector>

#include "loadgen/types.h"

namespace mlperf {
namespace loadgen {

/** Sink for completed samples; implemented by the LoadGen. */
class ResponseDelegate
{
  public:
    virtual ~ResponseDelegate() = default;

    /**
     * Report completed samples. Thread-safe; may be called from
     * inside issueQuery() or from SUT worker threads/events.
     */
    virtual void querySamplesComplete(
        const std::vector<QuerySampleResponse> &responses) = 0;

    /**
     * Token-streaming SUTs call this once per sample, the moment its
     * first output token is produced — the TTFT timestamp of the
     * TokenStream scenario. Thread-safe, same as completion. The
     * default ignores it so request/response SUTs need no changes.
     */
    virtual void querySampleFirstToken(ResponseId id) { (void)id; }
};

/**
 * Deliver @p responses in order, one querySamplesComplete call per run
 * of consecutive responses that share a delegate; @p owner_of(i) names
 * the (non-null) delegate of responses[i]. A single-owner vector is
 * passed through without a copy.
 */
template <typename OwnerOf>
void
completeByDelegate(const std::vector<QuerySampleResponse> &responses,
                   OwnerOf owner_of)
{
    std::vector<QuerySampleResponse> group;
    for (size_t begin = 0, end; begin < responses.size(); begin = end) {
        ResponseDelegate *delegate = owner_of(begin);
        for (end = begin + 1;
             end < responses.size() && owner_of(end) == delegate; ++end) {
        }
        if (end - begin == responses.size())
            return delegate->querySamplesComplete(responses);
        group.assign(responses.begin() + static_cast<ptrdiff_t>(begin),
                     responses.begin() + static_cast<ptrdiff_t>(end));
        delegate->querySamplesComplete(group);
    }
}

class SystemUnderTest
{
  public:
    virtual ~SystemUnderTest() = default;

    virtual std::string name() const = 0;

    /**
     * Start inference on a query. Must not block on inference in
     * scenarios with concurrent queries; respond via @p delegate when
     * samples finish.
     */
    virtual void issueQuery(const std::vector<QuerySample> &samples,
                            ResponseDelegate &delegate) = 0;

    /** Hint that no further queries are coming (end of run). */
    virtual void flushQueries() = 0;
};

} // namespace loadgen
} // namespace mlperf

#endif // MLPERF_LOADGEN_SUT_H
