/**
 * @file
 * gemmPrepacked below the small-shape threshold: the packed-panel
 * kernel must reproduce gemmSmall's arithmetic, so its output equals
 * denseForward (+ ReLU) bit for bit on both sides of the dispatch, in
 * the CPUID-chosen body and in the portable one.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "tensor/gemm.h"

namespace mlperf {
namespace tensor {

namespace detail {
// Test-only: the portable small-shape body, which CPUID does not pick
// on an AVX2 host.
void gemmSmallPanelsPortable(const float *a, const float *panels,
                             float *c, int64_t m, int64_t n, int64_t k,
                             const GemmEpilogue &ep);
} // namespace detail

namespace {

/** Signed magnitudes spread over 1e-3 .. 1e3, with about one value in
 *  eight an exact +0 or -0. */
std::vector<float>
spreadVec(int64_t n, Rng &rng)
{
    std::vector<float> v(static_cast<size_t>(n));
    for (auto &x : v) {
        const double sign = rng.nextDouble() < 0.5 ? -1.0 : 1.0;
        if (rng.nextDouble() < 0.125) {
            x = static_cast<float>(sign * 0.0);
            continue;
        }
        const double exponent = -3.0 + 6.0 * rng.nextDouble();
        x = static_cast<float>(sign * std::pow(10.0, exponent));
    }
    return v;
}

/** Bit pattern equality: tells -0 from +0. */
void
expectBitIdentical(const std::vector<float> &got,
                   const std::vector<float> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
            << what << ": i=" << i << " got " << got[i] << " want "
            << want[i];
    }
}

/** denseForward, then ReLU as the eager DenseLayer applies it. */
std::vector<float>
denseReference(const std::vector<float> &w, const float *bias,
               const std::vector<float> &x, int64_t batch, int64_t in,
               int64_t out, bool relu)
{
    std::vector<float> y(static_cast<size_t>(batch * out));
    denseForward(w.data(), bias, x.data(), y.data(), batch, in, out);
    if (relu) {
        for (float &v : y) {
            if (v < 0.0f)
                v = 0.0f;
        }
    }
    return y;
}

TEST(PrepackedSmallPath, MatchesDenseForwardBitForBitAtEveryShape)
{
    const int64_t ins[] = {1, 8, 31, 32, 33, 255, 256, 257, 300};
    const int64_t outs[] = {1, 15, 16, 17, 128, 511, 512, 513, 2048};
    int64_t small_cases = 0, packed_cases = 0;
    for (int64_t in : ins) {
        for (int64_t out : outs) {
            Rng rng(static_cast<uint64_t>(in * 4099 + out));
            const std::vector<float> w = spreadVec(out * in, rng);
            const std::vector<float> bias = spreadVec(out, rng);
            const PackedMatrix packed =
                packMatrixB(w.data(), in, out, /*b_trans=*/true);
            for (int64_t batch = 1; batch <= 8; ++batch) {
                const std::vector<float> x = spreadVec(batch * in, rng);
                const bool small = gemmUsesSmallPath(batch, out, in);
                ++(small ? small_cases : packed_cases);
                for (int epi = 0; epi < 4; ++epi) {
                    SCOPED_TRACE(::testing::Message()
                                 << "batch=" << batch << " in=" << in
                                 << " out=" << out << " epi=" << epi);
                    GemmEpilogue ep;
                    ep.bias = (epi & 1) ? bias.data() : nullptr;
                    ep.relu = (epi & 2) != 0;
                    const std::vector<float> want = denseReference(
                        w, ep.bias, x, batch, in, out, ep.relu);
                    std::vector<float> got(want.size());
                    gemmPrepacked(x.data(), packed, got.data(), batch,
                                  out, in, ep);
                    expectBitIdentical(got, want, "gemmPrepacked");
                    if (!small)
                        continue;
                    std::fill(got.begin(), got.end(), 1.0f);
                    detail::gemmSmallPanelsPortable(x.data(),
                                                    packed.data(),
                                                    got.data(), batch,
                                                    out, in, ep);
                    expectBitIdentical(got, want, "portable body");
                }
            }
        }
    }
    // The grid must straddle the dispatch.
    EXPECT_GT(small_cases, 100);
    EXPECT_GT(packed_cases, 100);
}

TEST(PrepackedSmallPath, UnTransposedPackAndPerRowBiasMatchGemm)
{
    // A B operand packed as stored (k x n) and a per-row bias: the
    // small path must still equal gemm() plus the bias, ReLU last.
    const int64_t m = 5, n = 37, k = 270;
    ASSERT_TRUE(gemmUsesSmallPath(m, n, k));
    Rng rng(0x5A11);
    const std::vector<float> a = spreadVec(m * k, rng);
    const std::vector<float> b = spreadVec(k * n, rng);
    const std::vector<float> bias = spreadVec(m, rng);
    std::vector<float> want(static_cast<size_t>(m * n));
    gemm(a.data(), b.data(), want.data(), m, n, k);
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float &v = want[static_cast<size_t>(i * n + j)];
            v += bias[static_cast<size_t>(i)];
            v = v < 0.0f ? 0.0f : v;
        }
    }
    const PackedMatrix packed =
        packMatrixB(b.data(), k, n, /*b_trans=*/false);
    GemmEpilogue ep;
    ep.bias = bias.data();
    ep.biasPerRow = true;
    ep.relu = true;
    std::vector<float> got(want.size());
    gemmPrepacked(a.data(), packed, got.data(), m, n, k, ep);
    expectBitIdentical(got, want, "gemmPrepacked");
    detail::gemmSmallPanelsPortable(a.data(), packed.data(), got.data(),
                                    m, n, k, ep);
    expectBitIdentical(got, want, "portable body");
}

} // namespace
} // namespace tensor
} // namespace mlperf
