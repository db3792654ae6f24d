/**
 * @file
 * Log-space arithmetic tests: LSE stability (Equation 2 vs the naive
 * Equation 1), n-ary LSE (Equation 3), and LogDouble semantics.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/logspace.hh"

namespace
{

using pstat::BigFloat;
using pstat::logAddNaive;
using pstat::LogDouble;
using pstat::logSumExp;

TEST(LogSumExp, MatchesDirectComputationInRange)
{
    for (double x : {0.5, 1.0, 2.0, 1e-3}) {
        for (double y : {0.25, 1.0, 3.0, 1e-5}) {
            const double got = logSumExp(std::log(x), std::log(y));
            EXPECT_NEAR(got, std::log(x + y), 1e-14);
        }
    }
}

TEST(LogSumExp, PaperStabilityExample)
{
    // Section II-B: lx = -1000, ly = -999. Naive Equation (1)
    // underflows both exponentials; LSE computes correctly.
    const double lx = -1000.0;
    const double ly = -999.0;
    const double naive = logAddNaive(lx, ly);
    EXPECT_TRUE(std::isinf(naive) && naive < 0); // broken: log(0)

    const double lse = logSumExp(lx, ly);
    // log(e^-1000 + e^-999) = -999 + log1p(e^-1)
    EXPECT_NEAR(lse, -999.0 + std::log1p(std::exp(-1.0)), 1e-12);
}

TEST(LogSumExp, NeverOverflows)
{
    // Inputs whose exponentials overflow double: LSE stays finite.
    const double lse = logSumExp(800.0, 801.0);
    EXPECT_TRUE(std::isfinite(lse));
    EXPECT_NEAR(lse, 801.0 + std::log1p(std::exp(-1.0)), 1e-12);
    EXPECT_TRUE(std::isinf(logAddNaive(800.0, 801.0)));
}

TEST(LogSumExp, ZeroIdentity)
{
    EXPECT_EQ(logSumExp(-HUGE_VAL, -5.0), -5.0);
    EXPECT_EQ(logSumExp(-5.0, -HUGE_VAL), -5.0);
    EXPECT_EQ(logSumExp(-HUGE_VAL, -HUGE_VAL), -INFINITY);
}

TEST(LogSumExp, NaryMatchesBinaryChain)
{
    const std::vector<double> vals = {-3.0, -1.5, -7.0, -2.2, -0.1};
    double chain = -INFINITY;
    for (double v : vals)
        chain = logSumExp(chain, v);
    EXPECT_NEAR(logSumExp(std::span<const double>(vals)), chain,
                1e-12);
}

TEST(LogSumExp, NaryEmptyAndAllZero)
{
    const std::vector<double> empty;
    EXPECT_EQ(logSumExp(std::span<const double>(empty)), -INFINITY);
    const std::vector<double> zeros = {-INFINITY, -INFINITY};
    EXPECT_EQ(logSumExp(std::span<const double>(zeros)), -INFINITY);
}

TEST(LogSumExp, NaryDeepNegative)
{
    // All inputs far below exp's underflow point: still correct.
    const std::vector<double> vals = {-100000.0, -100001.0,
                                      -100000.5};
    const double got = logSumExp(std::span<const double>(vals));
    const double want =
        -100000.0 +
        std::log(1.0 + std::exp(-1.0) + std::exp(-0.5));
    EXPECT_NEAR(got, want, 1e-10);
}

TEST(LogDouble, BasicSemantics)
{
    const LogDouble a = LogDouble::fromDouble(0.25);
    const LogDouble b = LogDouble::fromDouble(0.5);
    EXPECT_NEAR((a * b).toDouble(), 0.125, 1e-15);
    EXPECT_NEAR((a + b).toDouble(), 0.75, 1e-15);
    EXPECT_NEAR((a / b).toDouble(), 0.5, 1e-15);
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(b > a);
}

TEST(LogDouble, ZeroBehaviour)
{
    const LogDouble zero = LogDouble::zero();
    const LogDouble x = LogDouble::fromDouble(0.3);
    EXPECT_TRUE(zero.isZero());
    EXPECT_TRUE((zero * x).isZero());
    EXPECT_NEAR((zero + x).toDouble(), 0.3, 1e-15);
    EXPECT_TRUE(LogDouble::fromDouble(0.0).isZero());
    EXPECT_TRUE((zero / x).isZero());
}

TEST(LogDouble, NegativeInputIsNaN)
{
    EXPECT_TRUE(LogDouble::fromDouble(-1.0).isNaN());
}

TEST(LogDouble, DeepValuesRepresentable)
{
    // The whole point of log space: 2^-120000 is representable.
    const LogDouble tiny = LogDouble::fromLn(-120000.0 * M_LN2);
    EXPECT_FALSE(tiny.isZero());
    EXPECT_EQ(tiny.toDouble(), 0.0); // linear double underflows
    EXPECT_NEAR(tiny.toBigFloat().log2Abs(), -120000.0, 1e-6);
}

TEST(LogDouble, BigFloatRoundTripPrecision)
{
    // Converting through the oracle and back loses only double-ulp
    // precision on the log value.
    const BigFloat v = BigFloat::twoPow(-2900000);
    const LogDouble l = LogDouble::fromBigFloat(v);
    EXPECT_NEAR(l.lnValue(), -2900000.0 * M_LN2, 1e-7);
    EXPECT_NEAR(l.toBigFloat().log2Abs(), -2900000.0, 1e-6);
}

TEST(LogDouble, MulIsExactOnLogs)
{
    // Log-space multiply is one double add: error of the log value
    // is at most half an ulp, even for extreme magnitudes.
    const LogDouble a = LogDouble::fromLn(-1.25e6);
    const LogDouble b = LogDouble::fromLn(-2.5e5);
    EXPECT_EQ((a * b).lnValue(), -1.5e6);
}

TEST(LogDouble, PaperSection2Example)
{
    // ln(2^-120000) ~= -83177.66 fits easily in binary64.
    const LogDouble x =
        LogDouble::fromBigFloat(BigFloat::twoPow(-120000));
    EXPECT_NEAR(x.lnValue(), -83177.66, 0.01);
}

} // namespace
