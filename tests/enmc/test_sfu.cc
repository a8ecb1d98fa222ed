/**
 * @file
 * Accuracy tests for the Executor's special-function unit: the paper's
 * 4th-order Taylor exponential ("we approximate the exponential function
 * with Taylor expansion to the 4th order") and the softmax/sigmoid built
 * on it.
 *
 * Tolerances were calibrated against measurement: over [-87, 88] the
 * range-reduced 4th-order expansion stays within ~6.1e-5 relative error
 * of std::exp, softmax within ~1.2e-5 absolute of the exact softmax, and
 * sigmoid within ~1.4e-5 absolute — so the bounds below (1e-4 / 5e-5)
 * hold with margin but still catch an order-degradation regression (a
 * 3rd-order expansion misses them by orders of magnitude).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"

namespace enmc::tensor {
namespace {

constexpr float kExpRelTol = 1e-4f;
constexpr float kProbAbsTol = 5e-5f;

TEST(SfuExp, RelativeErrorBoundedAcrossWorkingRange)
{
    // Dense sweep of the SFU's working range, including the bin edges of
    // the range reduction (multiples of ln2/2) where error peaks.
    float max_rel = 0.0f;
    for (float x = -87.0f; x <= 88.0f; x += 0.01f) {
        const float approx = taylorExp4(x);
        const float exact = std::exp(x);
        const float rel = std::abs(approx - exact) / exact;
        max_rel = std::max(max_rel, rel);
        ASSERT_LT(rel, kExpRelTol) << "x=" << x;
    }
    // The bound is tight enough to mean something: the worst case is
    // within one decade of the tolerance, not 1e-9.
    EXPECT_GT(max_rel, kExpRelTol / 100.0f);
}

TEST(SfuExp, RandomArgumentsStayWithinBound)
{
    Rng rng(20260806);
    for (int i = 0; i < 100000; ++i) {
        const float x = static_cast<float>(rng.uniform(-87.0, 88.0));
        const float rel =
            std::abs(taylorExp4(x) - std::exp(x)) / std::exp(x);
        ASSERT_LT(rel, kExpRelTol) << "x=" << x;
    }
}

TEST(SfuExp, UnderflowCutoffReturnsZero)
{
    EXPECT_EQ(taylorExp4(-88.0f), 0.0f);
    EXPECT_EQ(taylorExp4(-1000.0f), 0.0f);
}

TEST(SfuExp, OverflowCutoffReturnsInfinity)
{
    EXPECT_TRUE(std::isinf(taylorExp4(89.0f)));
    EXPECT_TRUE(std::isinf(taylorExp4(1000.0f)));
}

TEST(SfuExp, ExactAtZero)
{
    EXPECT_FLOAT_EQ(taylorExp4(0.0f), 1.0f);
}

/** Exact reference softmax in double precision. */
std::vector<float>
softmaxRef(const std::vector<float> &z)
{
    double maxz = z[0];
    for (float v : z)
        maxz = std::max(maxz, static_cast<double>(v));
    double sum = 0.0;
    std::vector<double> e(z.size());
    for (size_t i = 0; i < z.size(); ++i) {
        e[i] = std::exp(static_cast<double>(z[i]) - maxz);
        sum += e[i];
    }
    std::vector<float> out(z.size());
    for (size_t i = 0; i < z.size(); ++i)
        out[i] = static_cast<float>(e[i] / sum);
    return out;
}

TEST(SfuSoftmax, ProbabilitiesWithinToleranceOfExact)
{
    Rng rng(42);
    for (int trial = 0; trial < 2000; ++trial) {
        const size_t n = static_cast<size_t>(rng.uniformInt(2, 64));
        std::vector<float> z(n);
        for (float &v : z)
            v = static_cast<float>(rng.uniform(-12.0, 12.0));

        const Vector approx = softmaxTaylor(std::span<const float>(z));
        const std::vector<float> exact = softmaxRef(z);

        float sum = 0.0f;
        size_t argmax_a = 0, argmax_e = 0;
        for (size_t i = 0; i < n; ++i) {
            ASSERT_LT(std::abs(approx[i] - exact[i]), kProbAbsTol)
                << "trial=" << trial << " i=" << i;
            sum += approx[i];
            if (approx[i] > approx[argmax_a])
                argmax_a = i;
            if (exact[i] > exact[argmax_e])
                argmax_e = i;
        }
        // A distribution: sums to one...
        ASSERT_NEAR(sum, 1.0f, 1e-4f) << "trial=" << trial;
        // ...and never flips the winning category unless it was a
        // numerical tie to begin with.
        if (argmax_a != argmax_e) {
            ASSERT_LT(std::abs(exact[argmax_a] - exact[argmax_e]),
                      kProbAbsTol)
                << "trial=" << trial;
        }
    }
}

TEST(SfuSigmoid, WithinToleranceOfExact)
{
    Rng rng(7);
    std::vector<float> z;
    for (float x = -30.0f; x <= 30.0f; x += 0.05f)
        z.push_back(x);
    for (int i = 0; i < 10000; ++i)
        z.push_back(static_cast<float>(rng.uniform(-30.0, 30.0)));

    const Vector approx = sigmoidTaylor(std::span<const float>(z));
    for (size_t i = 0; i < z.size(); ++i) {
        const float exact =
            static_cast<float>(1.0 / (1.0 + std::exp(-double(z[i]))));
        ASSERT_LT(std::abs(approx[i] - exact), kProbAbsTol) << z[i];
        ASSERT_GE(approx[i], 0.0f);
        ASSERT_LE(approx[i], 1.0f);
    }
}

TEST(SfuSigmoid, SymmetryAroundZero)
{
    // sigmoid(-x) == 1 - sigmoid(x) must survive the approximation
    // within tolerance (the multi-label scorer relies on calibrated
    // probabilities on both sides of the threshold).
    std::vector<float> z;
    for (float x = 0.0f; x <= 20.0f; x += 0.25f) {
        z.push_back(x);
        z.push_back(-x);
    }
    const Vector s = sigmoidTaylor(std::span<const float>(z));
    for (size_t i = 0; i < z.size(); i += 2)
        EXPECT_NEAR(s[i] + s[i + 1], 1.0f, 2.0f * kProbAbsTol) << z[i];
}

} // namespace
} // namespace enmc::tensor
