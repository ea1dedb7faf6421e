/**
 * @file
 * The decoder's vector kernels: the LSTM gate activations (both
 * bodies bit-identical, the stated error bound against libm) and the
 * vectorized argmax (the scalar first-index-wins answer on ties,
 * signed zeros and infinities).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "nn/decoder.h"
#include "nn/init.h"
#include "nn/rnn.h"
#include "tensor/gemm.h"

namespace mlperf {
namespace nn {

namespace detail {
// Test-only: the portable bodies, which CPUID does not pick on an
// AVX2 host.
void sigmoidIntoPortable(const float *x, float *y, int64_t n);
void tanhIntoPortable(const float *x, float *y, int64_t n);
} // namespace detail

namespace {

using tensor::Shape;
using tensor::Tensor;

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/** Distance in units in the last place (signs folded onto one line). */
int64_t
ulpDistance(float a, float b)
{
    int32_t ia, ib;
    std::memcpy(&ia, &a, sizeof(ia));
    std::memcpy(&ib, &b, sizeof(ib));
    const int64_t la = ia < 0 ? int64_t{INT32_MIN} - ia : ia;
    const int64_t lb = ib < 0 ? int64_t{INT32_MIN} - ib : ib;
    return la > lb ? la - lb : lb - la;
}

/** [-100, 100] in steps of 2^-12, plus the edges of the range. */
std::vector<float>
denseSweep()
{
    std::vector<float> xs;
    for (int64_t i = -100 * 4096; i <= 100 * 4096; ++i)
        xs.push_back(static_cast<float>(i) / 4096.0f);
    for (float v : {1e-30f, 1e-7f, 0.6249999f, 0.625f, 88.37f, 88.38f,
                    99.99999f})
        for (float s : {1.0f, -1.0f})
            xs.push_back(s * v);
    return xs;
}

TEST(GateActivations, BodiesAgreeBitForBitWithTails)
{
    std::vector<float> xs = denseSweep();
    Rng rng(0xAC71);
    for (int i = 0; i < 20000; ++i)
        xs.push_back(static_cast<float>(40.0 * rng.nextGaussian()));
    xs.push_back(0.0f);
    xs.push_back(-0.0f);
    xs.push_back(std::numeric_limits<float>::denorm_min());
    xs.push_back(-std::numeric_limits<float>::max());
    xs.push_back(std::numeric_limits<float>::infinity());

    // Every length 1..19 at every start offset mod 8 covers each tail
    // length; then the whole sweep at once.
    std::vector<float> got(xs.size()), want(xs.size());
    auto check = [&](const float *x, int64_t n) {
        sigmoidInto(x, got.data(), n);
        detail::sigmoidIntoPortable(x, want.data(), n);
        for (int64_t i = 0; i < n; ++i)
            ASSERT_TRUE(sameBits(got[i], want[i]))
                << "sigmoid x=" << x[i] << " n=" << n;
        tanhInto(x, got.data(), n);
        detail::tanhIntoPortable(x, want.data(), n);
        for (int64_t i = 0; i < n; ++i)
            ASSERT_TRUE(sameBits(got[i], want[i]))
                << "tanh x=" << x[i] << " n=" << n;
    };
    for (int64_t n = 1; n < 20; ++n)
        for (int64_t offset = 0; offset < 8; ++offset)
            check(xs.data() + 1000 * n + offset, n);
    check(xs.data(), static_cast<int64_t>(xs.size()));

    // In place, as stepInto calls them.
    std::vector<float> inplace(xs.begin(), xs.begin() + 37);
    sigmoidInto(inplace.data(), inplace.data(), 37);
    detail::sigmoidIntoPortable(xs.data(), want.data(), 37);
    for (int64_t i = 0; i < 37; ++i)
        EXPECT_TRUE(sameBits(inplace[i], want[i])) << i;
}

TEST(GateActivations, StayWithinTheStatedBoundOfLibm)
{
    // The bound documented in rnn.h: 2^-23 absolute, and 4 ulp where
    // the libm result's magnitude is at least 2^-120.
    const std::vector<float> xs = denseSweep();
    const int64_t n = static_cast<int64_t>(xs.size());
    std::vector<float> sig(xs.size()), th(xs.size());
    sigmoidInto(xs.data(), sig.data(), n);
    tanhInto(xs.data(), th.data(), n);
    const double abs_bound = std::ldexp(1.0, -23);
    const float tiny = std::ldexp(1.0f, -120);
    for (int64_t i = 0; i < n; ++i) {
        const float x = xs[i];
        const float sig_ref = 1.0f / (1.0f + std::exp(-x));
        const float tanh_ref = std::tanh(x);
        ASSERT_LE(std::fabs(static_cast<double>(sig[i]) - sig_ref),
                  abs_bound)
            << "sigmoid x=" << x;
        ASSERT_LE(std::fabs(static_cast<double>(th[i]) - tanh_ref),
                  abs_bound)
            << "tanh x=" << x;
        if (std::fabs(sig_ref) >= tiny) {
            ASSERT_LE(ulpDistance(sig[i], sig_ref), 4)
                << "sigmoid x=" << x;
        }
        if (std::fabs(tanh_ref) >= tiny) {
            ASSERT_LE(ulpDistance(th[i], tanh_ref), 4) << "tanh x=" << x;
        }
    }
}

TEST(GateActivations, ExactAtZeroAndAtSaturation)
{
    const float xs[] = {0.0f, -0.0f, 20.0f, -20.0f, 100.0f, -100.0f};
    float sig[6], th[6];
    sigmoidInto(xs, sig, 6);
    tanhInto(xs, th, 6);
    EXPECT_EQ(sig[0], 0.5f);
    EXPECT_EQ(sig[1], 0.5f);
    EXPECT_TRUE(sameBits(th[0], 0.0f));
    EXPECT_TRUE(sameBits(th[1], -0.0f));
    EXPECT_EQ(sig[2], 1.0f);
    EXPECT_EQ(sig[4], 1.0f);
    EXPECT_GT(sig[3], 0.0f);
    EXPECT_LT(sig[3], 3e-9f);
    EXPECT_LT(sig[5], 1e-38f);
    EXPECT_EQ(th[2], 1.0f);
    EXPECT_EQ(th[3], -1.0f);
    EXPECT_EQ(th[4], 1.0f);
    EXPECT_EQ(th[5], -1.0f);
}

/**
 * One LSTM step spelled out on the unpacked weights: denseForward for
 * both projections and the portable activation bodies per element.
 */
void
referenceStep(const Tensor &w_x, const Tensor &w_h,
              const std::vector<float> &bias, const float *x,
              int64_t batch, std::vector<float> &h, std::vector<float> &c)
{
    const int64_t input = w_x.shape().dim(1);
    const int64_t hidden = w_h.shape().dim(1);
    const int64_t width = 4 * hidden;
    std::vector<float> gates(static_cast<size_t>(batch * width));
    std::vector<float> rec(gates.size());
    tensor::denseForward(w_x.data(), bias.data(), x, gates.data(), batch,
                         input, width);
    tensor::denseForward(w_h.data(), nullptr, h.data(), rec.data(), batch,
                         hidden, width);
    for (size_t i = 0; i < gates.size(); ++i)
        gates[i] += rec[i];
    auto sigmoid = [](float v) {
        float y;
        detail::sigmoidIntoPortable(&v, &y, 1);
        return y;
    };
    auto tanh_ = [](float v) {
        float y;
        detail::tanhIntoPortable(&v, &y, 1);
        return y;
    };
    for (int64_t b = 0; b < batch; ++b) {
        const float *g = gates.data() + b * width;
        for (int64_t j = 0; j < hidden; ++j) {
            float &cj = c[static_cast<size_t>(b * hidden + j)];
            cj = sigmoid(g[hidden + j]) * cj +
                 sigmoid(g[j]) * tanh_(g[2 * hidden + j]);
            h[static_cast<size_t>(b * hidden + j)] =
                sigmoid(g[3 * hidden + j]) * tanh_(cj);
        }
    }
}

TEST(GateActivations, LstmStepMatchesSpelledOutReferenceAtOddHiddenSizes)
{
    // Hidden sizes off the 8-lane grid run the scalar tails; batch 30
    // at hidden 32 crosses onto the packed GEMM path.
    struct Case
    {
        int64_t input, hidden, batch;
    };
    for (const Case cs : {Case{3, 1, 1}, Case{7, 5, 2}, Case{16, 13, 3},
                          Case{32, 32, 1}, Case{9, 37, 2},
                          Case{32, 32, 30}}) {
        SCOPED_TRACE(::testing::Message() << "hidden=" << cs.hidden
                                          << " batch=" << cs.batch);
        Rng rng(static_cast<uint64_t>(cs.hidden * 31 + cs.batch));
        const Tensor w_x =
            heNormal(Shape{4 * cs.hidden, cs.input}, cs.input, rng);
        const Tensor w_h =
            heNormal(Shape{4 * cs.hidden, cs.hidden}, cs.hidden, rng);
        std::vector<float> bias(static_cast<size_t>(4 * cs.hidden));
        for (float &v : bias)
            v = static_cast<float>(rng.nextGaussian());
        const LSTMCell cell(Tensor(w_x), Tensor(w_h), bias);

        const size_t state = static_cast<size_t>(cs.batch * cs.hidden);
        std::vector<float> h(state, 0.0f), c(state, 0.0f);
        std::vector<float> h_ref(state, 0.0f), c_ref(state, 0.0f);
        std::vector<float> gates(static_cast<size_t>(4) * state);
        std::vector<float> rec(gates.size());
        for (int step = 0; step < 6; ++step) {
            std::vector<float> x(static_cast<size_t>(cs.batch * cs.input));
            for (float &v : x)
                v = static_cast<float>(3.0 * rng.nextGaussian());
            cell.stepInto(x.data(), cs.batch, h.data(), c.data(),
                          gates.data(), rec.data());
            referenceStep(w_x, w_h, bias, x.data(), cs.batch, h_ref,
                          c_ref);
            for (size_t i = 0; i < state; ++i) {
                ASSERT_TRUE(sameBits(h[i], h_ref[i])) << "h " << i;
                ASSERT_TRUE(sameBits(c[i], c_ref[i])) << "c " << i;
            }
        }
    }
}

/** The loop argmaxRow must reproduce. */
int64_t
scalarArgmax(const float *x, int64_t n)
{
    int64_t best = 0;
    for (int64_t v = 1; v < n; ++v) {
        if (x[v] > x[best])
            best = v;
    }
    return best;
}

TEST(ArgmaxRow, FirstIndexWinsTies)
{
    const float small[] = {1.0f, 3.0f, 3.0f, 2.0f};
    EXPECT_EQ(argmaxRow(small, 4), 1);
    // Ties in different vector lanes and blocks.
    std::vector<float> row(2048, -1.0f);
    row[1000] = 5.0f;
    row[5] = 5.0f;
    row[2047] = 5.0f;
    EXPECT_EQ(argmaxRow(row.data(), 2048), 5);
    row[5] = -1.0f;
    EXPECT_EQ(argmaxRow(row.data(), 2048), 1000);
}

TEST(ArgmaxRow, AllEqualRowsAnswerZero)
{
    for (int64_t n : {1, 7, 8, 9, 31, 32, 33, 2048}) {
        const std::vector<float> row(static_cast<size_t>(n), 0.25f);
        EXPECT_EQ(argmaxRow(row.data(), n), 0) << n;
    }
}

TEST(ArgmaxRow, MaxAtTheLastIndex)
{
    for (int64_t n : {2, 7, 8, 9, 13, 32, 33, 2047, 2048}) {
        std::vector<float> row(static_cast<size_t>(n));
        for (int64_t v = 0; v < n; ++v)
            row[static_cast<size_t>(v)] = static_cast<float>(v) * 1e-3f;
        EXPECT_EQ(argmaxRow(row.data(), n), n - 1) << n;
    }
}

TEST(ArgmaxRow, InfinitiesAndSignedZeros)
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> row(2048, 1e30f);
    row[900] = inf;
    row[700] = inf;
    EXPECT_EQ(argmaxRow(row.data(), 2048), 700);
    std::fill(row.begin(), row.end(), -inf);
    EXPECT_EQ(argmaxRow(row.data(), 2048), 0);
    row[2047] = -3e38f;
    EXPECT_EQ(argmaxRow(row.data(), 2048), 2047);

    // -0 and +0 are one value to `>`: the first zero wins.
    std::vector<float> zeros(40, -1.0f);
    zeros[17] = -0.0f;
    zeros[9] = 0.0f;
    EXPECT_EQ(argmaxRow(zeros.data(), 40), 9);
    zeros[9] = -1.0f;
    zeros[3] = 0.0f;
    zeros[17] = -0.0f;
    EXPECT_EQ(argmaxRow(zeros.data(), 40), 3);
    zeros[3] = -0.0f;
    zeros[30] = 0.0f;
    EXPECT_EQ(argmaxRow(zeros.data(), 40), 3);
}

TEST(ArgmaxRow, MatchesTheScalarLoopOnRandomRows)
{
    // Values drawn from a small set force many ties; lengths cover
    // every tail.
    Rng rng(0xA6A);
    const float inf = std::numeric_limits<float>::infinity();
    const float pool[] = {-inf, -2.0f, -0.0f, 0.0f, 0.5f, 1.0f, inf};
    for (int trial = 0; trial < 3000; ++trial) {
        const int64_t n = 1 + static_cast<int64_t>(rng.nextBelow(80));
        std::vector<float> row(static_cast<size_t>(n));
        const uint64_t first = rng.nextBelow(6);
        const uint64_t kinds = 2 + rng.nextBelow(6 - first);
        for (float &v : row)
            v = pool[first + rng.nextBelow(kinds)];
        ASSERT_EQ(argmaxRow(row.data(), n), scalarArgmax(row.data(), n))
            << "trial " << trial;
    }
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<float> row(2048);
        for (float &v : row)
            v = static_cast<float>(rng.nextGaussian());
        ASSERT_EQ(argmaxRow(row.data(), 2048),
                  scalarArgmax(row.data(), 2048));
    }
}

} // namespace
} // namespace nn
} // namespace mlperf
