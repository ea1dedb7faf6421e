#include "nn/decoder.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MLPERF_DECODER_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace mlperf {
namespace nn {

using tensor::Shape;
using tensor::Tensor;

namespace {

using ArgmaxFn = int64_t (*)(const float *logits, int64_t n);

/** First index wins ties, like argmaxRows. */
int64_t
argmaxRowScalar(const float *logits, int64_t n)
{
    int64_t best = 0;
    for (int64_t v = 1; v < n; ++v) {
        if (logits[v] > logits[best])
            best = v;
    }
    return best;
}

#if MLPERF_DECODER_X86_DISPATCH
/**
 * Two passes: the maximum (four independent max chains), then the
 * first index comparing equal to it. == treats -0 and +0 as one
 * value, as the scalar loop's > does, so ties resolve alike.
 */
__attribute__((target("avx2"))) int64_t
argmaxRowAvx2(const float *logits, int64_t n)
{
    if (n < 8)
        return argmaxRowScalar(logits, n);
    __m256 m0 = _mm256_loadu_ps(logits);
    __m256 m1 = m0, m2 = m0, m3 = m0;
    int64_t v = 8;
    for (; v + 32 <= n; v += 32) {
        m0 = _mm256_max_ps(m0, _mm256_loadu_ps(logits + v));
        m1 = _mm256_max_ps(m1, _mm256_loadu_ps(logits + v + 8));
        m2 = _mm256_max_ps(m2, _mm256_loadu_ps(logits + v + 16));
        m3 = _mm256_max_ps(m3, _mm256_loadu_ps(logits + v + 24));
    }
    for (; v + 8 <= n; v += 8)
        m0 = _mm256_max_ps(m0, _mm256_loadu_ps(logits + v));
    m0 = _mm256_max_ps(_mm256_max_ps(m0, m1), _mm256_max_ps(m2, m3));
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, m0);
    float best = lanes[0];
    for (int l = 1; l < 8; ++l)
        best = lanes[l] > best ? lanes[l] : best;
    for (; v < n; ++v)
        best = logits[v] > best ? logits[v] : best;

    const __m256 target = _mm256_set1_ps(best);
    for (v = 0; v + 8 <= n; v += 8) {
        const int hits = _mm256_movemask_ps(_mm256_cmp_ps(
            _mm256_loadu_ps(logits + v), target, _CMP_EQ_OQ));
        if (hits != 0)
            return v + __builtin_ctz(static_cast<unsigned>(hits));
    }
    for (; v < n; ++v) {
        if (logits[v] == best)
            return v;
    }
    return 0;  // only NaN input gets here
}
#endif

/** Resolved once from CPUID, like the GEMM micro-kernels. */
ArgmaxFn
resolveArgmax()
{
#if MLPERF_DECODER_X86_DISPATCH
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return argmaxRowAvx2;
#endif
    return argmaxRowScalar;
}

const ArgmaxFn kArgmaxRow = resolveArgmax();

} // namespace

int64_t
argmaxRow(const float *logits, int64_t n)
{
    return kArgmaxRow(logits, n);
}

DecoderModel::DecoderModel(DecoderArch arch, Tensor embed_table,
                           Tensor pos_enc, LSTMCell encoder_cell,
                           LSTMCell decoder_cell, Tensor proj_w,
                           std::vector<float> proj_bias)
    : arch_(arch), embed_(std::move(embed_table)),
      posEnc_(std::move(pos_enc)),
      encoderCell_(std::move(encoder_cell)),
      decoderCell_(std::move(decoder_cell)), projW_(std::move(proj_w)),
      projPacked_(tensor::packMatrixB(projW_.data(), arch_.embedDim,
                                      arch_.vocab, /*b_trans=*/true)),
      projBias_(std::move(proj_bias))
{
    assert(embed_.vocabSize() == arch_.vocab);
    assert(embed_.dim() == arch_.embedDim);
    assert(posEnc_.shape().dim(0) >= arch_.maxSrcSteps);
    assert(posEnc_.shape().dim(1) == arch_.embedDim);
    assert(projW_.shape().dim(0) == arch_.vocab);
    assert(projW_.shape().dim(1) == arch_.embedDim);
    assert(static_cast<int64_t>(projBias_.size()) == arch_.vocab);
}

void
DecoderModel::encode(const std::vector<int64_t> &source,
                     DecodeState &state, DecodeScratch &scratch) const
{
    assert(!source.empty());
    const int64_t dim = arch_.embedDim;
    const int64_t steps = std::min(
        static_cast<int64_t>(source.size()), arch_.maxSrcSteps);

    // Encoder: embedding + position + mixed-in LSTM state, exactly
    // the enc_states rows of the eager reference.
    std::fill(scratch.encH_.begin(), scratch.encH_.end(), 0.0f);
    std::fill(scratch.encC_.begin(), scratch.encC_.end(), 0.0f);
    for (int64_t t = 0; t < steps; ++t) {
        embed_.lookupInto(source[static_cast<size_t>(t)],
                          scratch.embed_.data());
        encoderCell_.stepInto(scratch.embed_.data(), 1,
                              scratch.encH_.data(),
                              scratch.encC_.data(),
                              scratch.gates_.data(),
                              scratch.rec_.data());
        float *row = state.encStates_.data() + t * dim;
        for (int64_t d = 0; d < dim; ++d) {
            row[d] = scratch.embed_[static_cast<size_t>(d)] +
                     posEnc_.at(t, d) +
                     arch_.lstmMix * scratch.encH_[static_cast<size_t>(d)];
        }
    }

    state.srcSteps_ = steps;
    std::fill(state.h_.begin(), state.h_.end(), 0.0f);
    std::fill(state.c_.begin(), state.c_.end(), 0.0f);
    state.prevToken_ = arch_.bosToken;
    state.step_ = 0;
    state.output_.clear();
    state.done_ = false;
}

int64_t
DecoderModel::decodeStep(DecodeState &state,
                         DecodeScratch &scratch) const
{
    assert(!state.done_ && state.srcSteps_ > 0);
    const int64_t dim = arch_.embedDim;
    const int64_t t = state.step_;

    embed_.lookupInto(state.prevToken_, scratch.embed_.data());
    decoderCell_.stepInto(scratch.embed_.data(), 1, state.h_.data(),
                          state.c_.data(), scratch.gates_.data(),
                          scratch.rec_.data());
    for (int64_t d = 0; d < dim; ++d) {
        scratch.query_[static_cast<size_t>(d)] =
            arch_.queryGain * posEnc_.at(t, d) +
            arch_.lstmMix * state.h_[static_cast<size_t>(d)];
    }
    dotAttentionInto(state.encStates_.data(), state.srcSteps_, dim,
                     scratch.query_.data(), scratch.context_.data(),
                     scratch.scores_.data());
    vocabHead(scratch.context_.data(), scratch.logits_.data());
    const int64_t token = argmaxRow(scratch.logits_.data(), arch_.vocab);

    state.output_.push_back(token);
    ++state.step_;
    if (token == arch_.eosToken || state.step_ >= state.srcSteps_)
        state.done_ = true;
    else
        state.prevToken_ = token;
    return token;
}

void
DecoderModel::padStep(const DecodeState &state,
                      DecodeScratch &scratch) const
{
    assert(state.srcSteps_ > 0);
    const int64_t dim = arch_.embedDim;
    // Same FLOPs as decodeStep against a frozen copy of the state;
    // the position is pinned to the last valid row.
    const int64_t t = std::min(state.step_, state.srcSteps_ - 1);

    std::memcpy(scratch.padH_.data(), state.h_.data(),
                static_cast<size_t>(dim) * sizeof(float));
    std::memcpy(scratch.padC_.data(), state.c_.data(),
                static_cast<size_t>(dim) * sizeof(float));
    embed_.lookupInto(arch_.eosToken, scratch.embed_.data());
    decoderCell_.stepInto(scratch.embed_.data(), 1,
                          scratch.padH_.data(), scratch.padC_.data(),
                          scratch.gates_.data(), scratch.rec_.data());
    for (int64_t d = 0; d < dim; ++d) {
        scratch.query_[static_cast<size_t>(d)] =
            arch_.queryGain * posEnc_.at(t, d) +
            arch_.lstmMix * scratch.padH_[static_cast<size_t>(d)];
    }
    dotAttentionInto(state.encStates_.data(), state.srcSteps_, dim,
                     scratch.query_.data(), scratch.context_.data(),
                     scratch.scores_.data());
    vocabHead(scratch.context_.data(), scratch.logits_.data());
    // A padded batch computes the argmax on every lane too and masks
    // the result afterwards; skipping it here would make padding
    // cheaper than the equal-work claim. Result discarded.
    volatile int64_t sink =
        argmaxRow(scratch.logits_.data(), arch_.vocab);
    (void)sink;
}

void
DecoderModel::vocabHead(const float *context, float *logits) const
{
    tensor::GemmEpilogue with_bias;
    with_bias.bias = projBias_.data();
    tensor::gemmPrepacked(context, projPacked_, logits, 1, arch_.vocab,
                          arch_.embedDim, with_bias);
}

std::vector<int64_t>
DecoderModel::referenceDecode(const std::vector<int64_t> &source) const
{
    assert(!source.empty());
    const int64_t dim = arch_.embedDim;
    const int64_t steps = std::min(
        static_cast<int64_t>(source.size()), arch_.maxSrcSteps);

    Tensor enc_states(Shape{steps, dim});
    auto enc_state = encoderCell_.initialState(1);
    for (int64_t t = 0; t < steps; ++t) {
        const Tensor e =
            embed_.forward({source[static_cast<size_t>(t)]});
        encoderCell_.step(e, enc_state);
        for (int64_t d = 0; d < dim; ++d) {
            enc_states.at(t, d) = e[d] + posEnc_.at(t, d) +
                                  arch_.lstmMix * enc_state.h[d];
        }
    }

    std::vector<int64_t> output;
    auto dec_state = decoderCell_.initialState(1);
    int64_t prev = arch_.bosToken;
    for (int64_t t = 0; t < steps; ++t) {
        const Tensor pe = embed_.forward({prev});
        decoderCell_.step(pe, dec_state);
        Tensor query(Shape{1, dim});
        for (int64_t d = 0; d < dim; ++d) {
            query[d] = arch_.queryGain * posEnc_.at(t, d) +
                       arch_.lstmMix * dec_state.h[d];
        }
        const Tensor ctx = dotAttention(enc_states, query);
        Tensor logits(Shape{1, arch_.vocab});
        tensor::denseForward(projW_.data(), projBias_.data(),
                             ctx.data(), logits.data(), 1, dim,
                             arch_.vocab);
        const int64_t token = argmaxRow(logits.data(), arch_.vocab);
        output.push_back(token);
        if (token == arch_.eosToken)
            break;
        prev = token;
    }
    return output;
}

uint64_t
DecoderModel::flopsPerToken(int64_t src_steps) const
{
    const uint64_t dim = static_cast<uint64_t>(arch_.embedDim);
    const uint64_t attention =
        2 * static_cast<uint64_t>(src_steps) * dim * 2;
    const uint64_t projection =
        2 * static_cast<uint64_t>(arch_.vocab) * dim;
    return decoderCell_.flopsPerStep() + attention + projection;
}

} // namespace nn
} // namespace mlperf
