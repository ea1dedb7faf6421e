#include "nn/rnn.h"

#include <cassert>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MLPERF_RNN_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace mlperf {
namespace nn {

using tensor::Shape;
using tensor::Tensor;

// ------------------------------------------------- gate activations
//
// Every body runs the steps below in this order, one rounding per
// operation (rnn.cc is built with -ffp-contract=off and the AVX2
// target leaves out "fma"), so the AVX2 lanes, the portable loop and
// the scalar tail agree bit for bit.

namespace {

// exp(x) = 2^n exp(r), n = floor(x log2(e) + 1/2), r = x - n ln(2)
// with ln(2) split into an exact high part and a correction (Cephes
// expf). The clamp keeps 2^n a normal float or zero.
constexpr float kExpMax = 88.3762626647949f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP[] = {1.9875691500e-4f, 1.3981999507e-3f,
                           8.3334519073e-3f, 4.1665795894e-2f,
                           1.6666665459e-1f, 5.0000001201e-1f};
// tanh(a) = a + a^3 P(a^2) for a < 0.625 (Cephes tanhf), else
// 1 - 2 / (exp(2a) + 1); the sign of x is copied back.
constexpr float kTanhSmall = 0.625f;
constexpr float kTanhP[] = {-5.70498872745e-3f, 2.06390887954e-2f,
                            -5.37397155531e-2f, 1.33314422036e-1f,
                            -3.33332819422e-1f};

/** _mm256_min_ps / _mm256_max_ps: the second operand on ties and
 *  NaN. */
inline float
minPs(float a, float b)
{
    return a < b ? a : b;
}

inline float
maxPs(float a, float b)
{
    return a > b ? a : b;
}

inline float
expScalar(float x)
{
    x = maxPs(minPs(x, kExpMax), -kExpMax);
    const float n = std::floor(x * kLog2e + 0.5f);
    float r = x - n * kLn2Hi;
    r = r - n * kLn2Lo;
    float p = kExpP[0];
    for (int i = 1; i < 6; ++i)
        p = p * r + kExpP[i];
    p = p * (r * r) + r;
    p = p + 1.0f;
    const int32_t bits = (static_cast<int32_t>(n) + 127) << 23;
    float scale;
    std::memcpy(&scale, &bits, sizeof(scale));
    return p * scale;
}

inline float
sigmoidScalar(float x)
{
    return 1.0f / (1.0f + expScalar(-x));
}

inline float
tanhScalar(float x)
{
    const float a = std::fabs(x);
    const float s = a * a;
    float p = kTanhP[0];
    for (int i = 1; i < 5; ++i)
        p = p * s + kTanhP[i];
    const float small = p * s * a + a;
    const float large = 1.0f - 2.0f / (expScalar(a + a) + 1.0f);
    return std::copysign(a < kTanhSmall ? small : large, x);
}

} // namespace

namespace detail {

/** The portable bodies; sigmoidInto/tanhInto use them on hosts
 *  without AVX2. */
void
sigmoidIntoPortable(const float *x, float *y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = sigmoidScalar(x[i]);
}

void
tanhIntoPortable(const float *x, float *y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = tanhScalar(x[i]);
}

} // namespace detail

namespace {

using ActivationFn = void (*)(const float *x, float *y, int64_t n);

#if MLPERF_RNN_X86_DISPATCH
__attribute__((target("avx2"))) inline __m256
expAvx2(__m256 x)
{
    x = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(kExpMax)),
                      _mm256_set1_ps(-kExpMax));
    const __m256 n = _mm256_floor_ps(_mm256_add_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)), _mm256_set1_ps(0.5f)));
    __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
    r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
    __m256 p = _mm256_set1_ps(kExpP[0]);
    for (int i = 1; i < 6; ++i)
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP[i]));
    p = _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r);
    p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
    const __m256i bits = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127)),
        23);
    return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

__attribute__((target("avx2"))) void
sigmoidIntoAvx2(const float *x, float *y, int64_t n)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 sign = _mm256_set1_ps(-0.0f);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 e =
            expAvx2(_mm256_xor_ps(_mm256_loadu_ps(x + i), sign));
        _mm256_storeu_ps(y + i, _mm256_div_ps(one, _mm256_add_ps(one, e)));
    }
    for (; i < n; ++i)
        y[i] = sigmoidScalar(x[i]);
}

__attribute__((target("avx2"))) void
tanhIntoAvx2(const float *x, float *y, int64_t n)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 two = _mm256_set1_ps(2.0f);
    const __m256 sign = _mm256_set1_ps(-0.0f);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(x + i);
        const __m256 a = _mm256_andnot_ps(sign, v);
        const __m256 s = _mm256_mul_ps(a, a);
        __m256 p = _mm256_set1_ps(kTanhP[0]);
        for (int j = 1; j < 5; ++j)
            p = _mm256_add_ps(_mm256_mul_ps(p, s),
                              _mm256_set1_ps(kTanhP[j]));
        const __m256 small =
            _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, s), a), a);
        const __m256 e = expAvx2(_mm256_add_ps(a, a));
        const __m256 large =
            _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one)));
        const __m256 t = _mm256_blendv_ps(
            large, small,
            _mm256_cmp_ps(a, _mm256_set1_ps(kTanhSmall), _CMP_LT_OQ));
        // t >= +0, so OR-ing in x's sign bit is copysign.
        _mm256_storeu_ps(y + i, _mm256_or_ps(t, _mm256_and_ps(sign, v)));
    }
    for (; i < n; ++i)
        y[i] = tanhScalar(x[i]);
}
#endif

struct GateActivations
{
    ActivationFn sigmoid;
    ActivationFn tanh;
};

/** Resolved once from CPUID, like the GEMM micro-kernels. */
GateActivations
resolveGateActivations()
{
#if MLPERF_RNN_X86_DISPATCH
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return {sigmoidIntoAvx2, tanhIntoAvx2};
#endif
    return {detail::sigmoidIntoPortable, detail::tanhIntoPortable};
}

const GateActivations kGateActivations = resolveGateActivations();

} // namespace

void
sigmoidInto(const float *x, float *y, int64_t n)
{
    kGateActivations.sigmoid(x, y, n);
}

void
tanhInto(const float *x, float *y, int64_t n)
{
    kGateActivations.tanh(x, y, n);
}

// ---------------------------------------------------- cell, attention

Embedding::Embedding(Tensor table) : table_(std::move(table))
{
    assert(table_.shape().rank() == 2);
}

Tensor
Embedding::forward(const std::vector<int64_t> &tokens) const
{
    const int64_t dim = this->dim();
    Tensor out(Shape{static_cast<int64_t>(tokens.size()), dim});
    for (size_t i = 0; i < tokens.size(); ++i) {
        lookupInto(tokens[i],
                   out.data() + static_cast<int64_t>(i) * dim);
    }
    return out;
}

void
Embedding::lookupInto(int64_t token, float *out) const
{
    assert(token >= 0 && token < vocabSize());
    std::memcpy(out, table_.data() + token * dim(),
                static_cast<size_t>(dim()) * sizeof(float));
}

LSTMCell::LSTMCell(Tensor w_x, Tensor w_h, std::vector<float> bias)
    : bias_(std::move(bias))
{
    assert(w_x.shape().rank() == 2 && w_h.shape().rank() == 2);
    assert(w_x.shape().dim(0) == w_h.shape().dim(0));
    assert(w_x.shape().dim(0) == 4 * w_h.shape().dim(1));
    assert(static_cast<int64_t>(bias_.size()) == w_x.shape().dim(0));
    // [4*hidden, in] row-major is B transposed: the pack absorbs it.
    wX_ = tensor::packMatrixB(w_x.data(), w_x.shape().dim(1),
                              w_x.shape().dim(0), /*b_trans=*/true);
    wH_ = tensor::packMatrixB(w_h.data(), w_h.shape().dim(1),
                              w_h.shape().dim(0), /*b_trans=*/true);
}

LSTMCell::State
LSTMCell::initialState(int64_t batch) const
{
    return State{Tensor(Shape{batch, hiddenSize()}),
                 Tensor(Shape{batch, hiddenSize()})};
}

void
LSTMCell::step(const Tensor &x, State &state) const
{
    const int64_t batch = x.shape().dim(0);
    assert(x.shape().dim(1) == inputSize());
    assert(state.h.shape().dim(0) == batch);

    Tensor gates(Shape{batch, 4 * hiddenSize()});
    Tensor rec(Shape{batch, 4 * hiddenSize()});
    stepInto(x.data(), batch, state.h.data(), state.c.data(),
             gates.data(), rec.data());
}

void
LSTMCell::stepInto(const float *x, int64_t batch, float *h, float *c,
                   float *gates, float *rec) const
{
    const int64_t hidden = hiddenSize();
    const int64_t width = 4 * hidden;

    // gates = W_x x + W_h h + b : [batch, 4*hidden]; each product is
    // denseForward's, bit for bit.
    tensor::GemmEpilogue with_bias;
    with_bias.bias = bias_.data();
    tensor::gemmPrepacked(x, wX_, gates, batch, width, inputSize(),
                          with_bias);
    tensor::gemmPrepacked(h, wH_, rec, batch, width, hidden);
    for (int64_t i = 0; i < batch * width; ++i)
        gates[i] += rec[i];

    for (int64_t b = 0; b < batch; ++b) {
        float *g = gates + b * width;
        float *hb = h + b * hidden;
        float *cb = c + b * hidden;
        // In place: [i; f] and o through the sigmoid, g through tanh.
        sigmoidInto(g, g, 2 * hidden);
        tanhInto(g + 2 * hidden, g + 2 * hidden, hidden);
        sigmoidInto(g + 3 * hidden, g + 3 * hidden, hidden);
        for (int64_t j = 0; j < hidden; ++j)
            cb[j] = g[hidden + j] * cb[j] + g[j] * g[2 * hidden + j];
        float *tanh_c = rec + b * width;  // rec is spent: reuse it
        tanhInto(cb, tanh_c, hidden);
        for (int64_t j = 0; j < hidden; ++j)
            hb[j] = g[3 * hidden + j] * tanh_c[j];
    }
}

uint64_t
LSTMCell::paramCount() const
{
    return static_cast<uint64_t>((inputSize() + hiddenSize()) *
                                 wX_.cols()) +
           bias_.size();
}

uint64_t
LSTMCell::flopsPerStep() const
{
    return 2 * static_cast<uint64_t>((inputSize() + hiddenSize()) *
                                     wX_.cols());
}

Tensor
dotAttention(const Tensor &encoder_states, const Tensor &query)
{
    assert(encoder_states.shape().rank() == 2);
    assert(query.shape().rank() == 2 && query.shape().dim(0) == 1);
    const int64_t steps = encoder_states.shape().dim(0);
    const int64_t hidden = encoder_states.shape().dim(1);
    assert(query.shape().dim(1) == hidden);

    std::vector<double> scores(static_cast<size_t>(steps));
    Tensor context(Shape{1, hidden});
    dotAttentionInto(encoder_states.data(), steps, hidden,
                     query.data(), context.data(), scores.data());
    return context;
}

void
dotAttentionInto(const float *encoder_states, int64_t steps,
                 int64_t hidden, const float *query, float *context,
                 double *scores_scratch)
{
    // Scores, max-stabilized softmax, and weighted sum.
    double max_score = -1e300;
    for (int64_t t = 0; t < steps; ++t) {
        double s = 0.0;
        const float *enc = encoder_states + t * hidden;
        for (int64_t j = 0; j < hidden; ++j)
            s += static_cast<double>(enc[j]) * query[j];
        scores_scratch[t] = s;
        max_score = std::max(max_score, s);
    }
    double denom = 0.0;
    for (int64_t t = 0; t < steps; ++t) {
        scores_scratch[t] = std::exp(scores_scratch[t] - max_score);
        denom += scores_scratch[t];
    }
    for (int64_t j = 0; j < hidden; ++j)
        context[j] = 0.0f;
    for (int64_t t = 0; t < steps; ++t) {
        const float w = static_cast<float>(scores_scratch[t] / denom);
        const float *enc = encoder_states + t * hidden;
        for (int64_t j = 0; j < hidden; ++j)
            context[j] += w * enc[j];
    }
}

} // namespace nn
} // namespace mlperf
