/**
 * @file
 * Autoregressive streaming decoder built from the rnn.h primitives
 * (Embedding + LSTMCell + dotAttention + dense logits head).
 *
 * This is the token-streaming workload ROADMAP item 3 asks for: the
 * model emits one token per decodeStep() against a persistent
 * per-sequence recurrent state — a KV-cache analogue holding the
 * encoder states (the "keys/values") and the decoder LSTM h/c. All
 * per-sequence state lives in a pooled DecodeState and all transient
 * buffers in a per-thread DecodeScratch, so the steady-state decode
 * path performs zero heap allocations; the pool reports any growth it
 * is forced into so benches can assert the invariant.
 *
 * The incremental path is bit-identical to the unrolled eager
 * reference (referenceDecode): every step runs the same
 * stepInto/dotAttentionInto/argmaxRow calls at batch 1 with
 * per-sequence buffers, so a sequence's compute never depends on
 * which other sequences share the batch — the property that makes
 * continuous batching (sequences joining/leaving mid-batch) safe.
 * The one difference is the vocab head: decodeStep/padStep run it on
 * a packed copy through gemmPrepacked, referenceDecode on the
 * unpacked weight through denseForward, and the two agree bit for
 * bit, so the reference doubles as a differential test of the kernel.
 */

#ifndef MLPERF_NN_DECODER_H
#define MLPERF_NN_DECODER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/rnn.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace mlperf {
namespace nn {

/**
 * Index of the largest of @p n >= 1 floats, the first one on ties:
 * for any finite or +-inf input, the answer of the scalar loop
 * `if (x[v] > x[best]) best = v`. An AVX2 body (chosen once from
 * CPUID) finds the maximum, then the first index comparing equal to
 * it; other hosts run the scalar loop.
 */
int64_t argmaxRow(const float *logits, int64_t n);

/** Everything that shapes the decoder besides its weights. */
struct DecoderArch
{
    int64_t vocab = 0;
    int64_t embedDim = 0;
    /** Max encoder positions == rows of the position table. */
    int64_t maxSrcSteps = 0;
    int64_t bosToken = 1;
    int64_t eosToken = 2;
    float lstmMix = 0.2f;   //!< weight of LSTM state in enc/dec paths
    float queryGain = 4.0f; //!< position-query sharpness
};

/**
 * Persistent per-sequence decode state: encoder states ("KV cache"),
 * decoder LSTM h/c, the running output. Sized once for the model's
 * maxima by the pool; reset() keeps every capacity.
 */
class DecodeState
{
  public:
    DecodeState(int64_t max_src_steps, int64_t dim)
        : encStates_(static_cast<size_t>(max_src_steps * dim)),
          h_(static_cast<size_t>(dim)), c_(static_cast<size_t>(dim))
    {
        output_.reserve(static_cast<size_t>(max_src_steps));
    }

    const std::vector<int64_t> &tokens() const { return output_; }
    bool finished() const { return done_; }
    int64_t sourceSteps() const { return srcSteps_; }
    /** Decode positions emitted so far. */
    int64_t stepsDone() const { return step_; }

  private:
    friend class DecoderModel;

    std::vector<float> encStates_;  //!< [maxSrcSteps, dim], row-major
    int64_t srcSteps_ = 0;          //!< valid encoder rows
    std::vector<float> h_, c_;      //!< decoder LSTM state [dim]
    int64_t prevToken_ = 0;
    int64_t step_ = 0;              //!< next decode position
    std::vector<int64_t> output_;
    bool done_ = false;
};

/** Transient per-thread buffers for encode/decodeStep/padStep. */
class DecodeScratch
{
  public:
    DecodeScratch(int64_t max_src_steps, int64_t dim, int64_t vocab)
        : embed_(static_cast<size_t>(dim)),
          gates_(static_cast<size_t>(4 * dim)),
          rec_(static_cast<size_t>(4 * dim)),
          query_(static_cast<size_t>(dim)),
          context_(static_cast<size_t>(dim)),
          logits_(static_cast<size_t>(vocab)),
          scores_(static_cast<size_t>(max_src_steps)),
          encH_(static_cast<size_t>(dim)),
          encC_(static_cast<size_t>(dim)),
          padH_(static_cast<size_t>(dim)),
          padC_(static_cast<size_t>(dim))
    {
    }

  private:
    friend class DecoderModel;

    std::vector<float> embed_, gates_, rec_, query_, context_, logits_;
    std::vector<double> scores_;
    std::vector<float> encH_, encC_;  //!< encoder LSTM state (prefill)
    std::vector<float> padH_, padC_;  //!< frozen-state copy (padStep)
};

/**
 * Fixed-size pool of DecodeStates. acquire() prefers the free list
 * and only allocates when the pool is exhausted — growths() exposes
 * how often, so the zero-alloc steady-state contract is checkable.
 * Single-threaded by design: each decode engine owns its pool.
 */
class DecodeStatePool
{
  public:
    DecodeStatePool(size_t capacity, int64_t max_src_steps, int64_t dim)
        : maxSrcSteps_(max_src_steps), dim_(dim)
    {
        states_.reserve(capacity * 2);
        free_.reserve(capacity * 2);
        for (size_t i = 0; i < capacity; ++i) {
            states_.push_back(std::make_unique<DecodeState>(
                max_src_steps, dim));
            free_.push_back(states_.back().get());
        }
    }

    DecodeState *
    acquire()
    {
        if (free_.empty()) {
            ++growths_;
            states_.push_back(std::make_unique<DecodeState>(
                maxSrcSteps_, dim_));
            return states_.back().get();
        }
        DecodeState *state = free_.back();
        free_.pop_back();
        return state;
    }

    void release(DecodeState *state) { free_.push_back(state); }

    size_t size() const { return states_.size(); }
    size_t available() const { return free_.size(); }
    /** Times acquire() had to allocate past the initial capacity. */
    uint64_t growths() const { return growths_; }

  private:
    int64_t maxSrcSteps_;
    int64_t dim_;
    std::vector<std::unique_ptr<DecodeState>> states_;
    std::vector<DecodeState *> free_;
    uint64_t growths_ = 0;
};

/**
 * The decoder proxy model. Construction-agnostic: weights come in as
 * plain tensors (models/stream_decoder.cc builds the closed-form GNMT
 * proxy whose argmax provably recovers the dataset lexicon and emits
 * EOS at the source's EOS position, so output length tracks source
 * length through genuine compute).
 */
class DecoderModel
{
  public:
    /**
     * @param embed_table [vocab, dim]
     * @param pos_enc [maxSrcSteps, dim]
     * @param proj_w [vocab, dim] logits head; @p proj_bias [vocab]
     */
    DecoderModel(DecoderArch arch, tensor::Tensor embed_table,
                 tensor::Tensor pos_enc, LSTMCell encoder_cell,
                 LSTMCell decoder_cell, tensor::Tensor proj_w,
                 std::vector<float> proj_bias);

    const DecoderArch &arch() const { return arch_; }

    DecodeScratch
    makeScratch() const
    {
        return DecodeScratch(arch_.maxSrcSteps, arch_.embedDim,
                             arch_.vocab);
    }

    /**
     * Prefill: run the encoder over @p source into @p state and reset
     * the decode cursor. Zero-alloc given pooled state and scratch.
     */
    void encode(const std::vector<int64_t> &source, DecodeState &state,
                DecodeScratch &scratch) const;

    /**
     * Emit one token (appended to state.tokens()); marks the state
     * finished on EOS or when the position budget is exhausted.
     * Must not be called on a finished state. Zero-alloc.
     */
    int64_t decodeStep(DecodeState &state, DecodeScratch &scratch) const;

    /**
     * The static-batching tax: one full decode step of compute
     * (embedding, LSTM, attention, logits) against a frozen copy of
     * @p state, discarding the result. A padded batch spends exactly
     * this on every already-finished slot per step.
     */
    void padStep(const DecodeState &state, DecodeScratch &scratch) const;

    /**
     * Unrolled eager reference over the allocating rnn.h primitives —
     * the differential baseline for the incremental path.
     */
    std::vector<int64_t> referenceDecode(
        const std::vector<int64_t> &source) const;

    /** MAC-dominated op count (x2) of one decode step. */
    uint64_t flopsPerToken(int64_t src_steps) const;

  private:
    /** logits = projW_ context + projBias_, on the packed head. */
    void vocabHead(const float *context, float *logits) const;

    DecoderArch arch_;
    Embedding embed_;
    tensor::Tensor posEnc_;
    LSTMCell encoderCell_;
    LSTMCell decoderCell_;
    tensor::Tensor projW_;          //!< [vocab, dim]: referenceDecode
    tensor::PackedMatrix projPacked_;  //!< projW_ packed: decodeStep
    std::vector<float> projBias_;
};

} // namespace nn
} // namespace mlperf

#endif // MLPERF_NN_DECODER_H
