/**
 * @file
 * Tests for double-double arithmetic and the ScaledDD oracle scalar.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/dd.hh"
#include "core/real_traits.hh"
#include "stats/rng.hh"

namespace
{

using pstat::BigFloat;
using pstat::DD;
using pstat::RealTraits;
using pstat::ScaledDD;
using pstat::twoProd;
using pstat::twoSum;

TEST(TwoSum, IsErrorFree)
{
    pstat::stats::Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const double a = rng.uniform(-1e10, 1e10);
        const double b = rng.uniform(-1e-6, 1e-6);
        const DD s = twoSum(a, b);
        // hi+lo must equal a+b exactly, verified in BigFloat.
        const BigFloat exact =
            BigFloat::fromDouble(a) + BigFloat::fromDouble(b);
        const BigFloat got =
            BigFloat::fromDouble(s.hi) + BigFloat::fromDouble(s.lo);
        ASSERT_EQ(exact, got) << a << " + " << b;
    }
}

TEST(TwoProd, IsErrorFree)
{
    pstat::stats::Rng rng(2);
    for (int i = 0; i < 10000; ++i) {
        const double a = rng.uniform(-1e8, 1e8);
        const double b = rng.uniform(-1e-8, 1e8);
        const DD p = twoProd(a, b);
        const BigFloat exact =
            BigFloat::fromDouble(a) * BigFloat::fromDouble(b);
        const BigFloat got =
            BigFloat::fromDouble(p.hi) + BigFloat::fromDouble(p.lo);
        ASSERT_EQ(exact, got) << a << " * " << b;
    }
}

TEST(DdArith, PrecisionAgainstOracle)
{
    // a chain of ops keeps ~30 decimal digits.
    pstat::stats::Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const double a = rng.uniform(0.1, 10.0);
        const double b = rng.uniform(0.1, 10.0);
        const double c = rng.uniform(0.1, 10.0);
        const DD got = (DD(a) * DD(b) + DD(c)) / DD(b);
        const BigFloat exact = (BigFloat::fromDouble(a) *
                                    BigFloat::fromDouble(b) +
                                BigFloat::fromDouble(c)) /
                               BigFloat::fromDouble(b);
        const BigFloat err =
            BigFloat::relativeError(exact, got.toBigFloat());
        if (!err.isZero()) {
            ASSERT_LT(err.log2Abs(), -98.0) << a << " " << b;
        }
    }
}

TEST(ScaledDd, RenormalizeKeepsValue)
{
    ScaledDD x(DD(1536.0), 0);
    EXPECT_NEAR(x.log2Abs(), std::log2(1536.0), 1e-12);
    EXPECT_NEAR(x.toBigFloat().toDouble(), 1536.0, 1e-9);
}

TEST(ScaledDd, DeepExponentMultiplication)
{
    // 2^-3000 x 2^-3000 = 2^-6000: far outside double, exact here.
    ScaledDD a(DD(1.0), -3000);
    ScaledDD b(DD(1.0), -3000);
    const ScaledDD p = a * b;
    EXPECT_NEAR(p.log2Abs(), -6000.0, 1e-9);
}

TEST(ScaledDd, AdditionAlignsAcrossExponents)
{
    const ScaledDD one(1.0);
    ScaledDD tiny(DD(1.0), -60);
    const ScaledDD sum = one + tiny;
    const BigFloat exact = BigFloat::one() + BigFloat::twoPow(-60);
    const BigFloat err =
        BigFloat::relativeError(exact, sum.toBigFloat());
    if (!err.isZero()) {
        EXPECT_LT(err.log2Abs(), -100.0);
    }
}

TEST(ScaledDd, AdditionDropsNegligible)
{
    const ScaledDD one(1.0);
    ScaledDD tiny(DD(1.0), -500);
    const ScaledDD sum = one + tiny;
    EXPECT_NEAR(sum.log2Abs(), 0.0, 1e-12);
}

TEST(ScaledDd, SubtractionCancellation)
{
    const ScaledDD a(DD(1.0, 0x1.0p-80), 0);
    const ScaledDD b(1.0);
    const ScaledDD d = a - b;
    EXPECT_FALSE(d.isZero());
    EXPECT_NEAR(d.log2Abs(), -80.0, 1e-9);
}

TEST(ScaledDd, ZeroHandling)
{
    const ScaledDD zero;
    const ScaledDD x(2.5);
    EXPECT_TRUE(zero.isZero());
    EXPECT_TRUE((zero * x).isZero());
    EXPECT_NEAR((zero + x).log2Abs(), std::log2(2.5), 1e-12);
    EXPECT_TRUE(zero.toBigFloat().isZero());
}

TEST(ScaledDd, LongProductChainMatchesOracle)
{
    // Emulates the forward recursion's repeated multiply: 10,000
    // multiplies by 0.3 reach 2^-17,370 with ~100-bit accuracy.
    ScaledDD acc(1.0);
    const ScaledDD factor(0.3);
    for (int i = 0; i < 10000; ++i)
        acc = acc * factor;
    const BigFloat exact =
        BigFloat::powInt(BigFloat::fromDouble(0.3), 10000);
    EXPECT_NEAR(acc.log2Abs(), exact.log2Abs(), 1e-6);
    const BigFloat err =
        BigFloat::relativeError(exact, acc.toBigFloat());
    if (!err.isZero()) {
        EXPECT_LT(err.log2Abs(), -85.0);
    }
}

TEST(ScaledDd, TraitsConversions)
{
    using RT = RealTraits<ScaledDD>;
    EXPECT_EQ(RT::name(), "scaled-dd (oracle)");
    EXPECT_TRUE(RT::isZero(RT::zero()));
    EXPECT_FALSE(RT::isZero(RT::one()));

    const BigFloat deep =
        BigFloat::twoPow(-250000) * BigFloat::fromDouble(1.7);
    const ScaledDD x = RT::fromBigFloat(deep);
    const BigFloat err =
        BigFloat::relativeError(deep, RT::toBigFloat(x));
    if (!err.isZero()) {
        EXPECT_LT(err.log2Abs(), -100.0);
    }
}

/** Bitwise equality of two doubles (NaN payloads and zero signs). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The libm form of ldexp(DD, e): each component through std::ldexp. */
DD
libmLdexp(const DD &a, int e)
{
    return {std::ldexp(a.hi, e), std::ldexp(a.lo, e)};
}

/** The libm form of ScaledDD(mant, exp2): frexp, then libmLdexp. */
ScaledDD
libmScaledDD(const DD &mant, int64_t exp2)
{
    ScaledDD out;
    out.mant = mant;
    out.exp2 = exp2;
    if (mant.isZero()) {
        out.exp2 = 0;
        return out;
    }
    int e = 0;
    std::frexp(mant.hi, &e);
    if (e != 0) {
        out.mant = libmLdexp(mant, -e);
        out.exp2 += e;
    }
    return out;
}

TEST(ScaledDd, ExponentArithmeticMatchesLibm)
{
    // renormalize() reads frexp's exponent off a normal hi's bits,
    // and ldexp(DD, e) multiplies by the exact 2^e where that rounds
    // as std::ldexp does. Both must return libm's bits everywhere,
    // edges and special values included.
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double denorm = std::numeric_limits<double>::denorm_min();
    std::vector<double> values{
        0.0, -0.0, denorm, -denorm, 0x1.2345p-1030, -0x1.fffffp-1023,
        0x1p-1023, 0x1p-1024, 0x1p-1025, 0x1p-1022, -0x1p-1022,
        0x1.fffffffffffffp1023, -0x1.fffffffffffffp1023, 0x1p1023,
        0x1.8p1000, 0.5, 0.75, 1.0, -1.0, 2.0, -0.3, 1e300, -1e-300,
        inf, -inf, nan};
    pstat::stats::Rng rng(29);
    for (int i = 0; i < 400; ++i) {
        const double v = std::ldexp(rng.uniform(0.5, 1.0),
                                    static_cast<int>(rng.below(2100)) -
                                        1050);
        values.push_back(rng.chance(0.5) ? v : -v);
    }

    // ldexp(DD, e): every value as hi and as lo, every exponent edge
    // (2^e subnormal at -1023, infinite at 1024), and scales that
    // take a normal value subnormal or to zero.
    const std::vector<int> exps{-2100, -1100, -1075, -1074, -1060,
                                -1024, -1023, -1022, -1021, -120,
                                -60,   -1,    0,     1,     60,
                                1021,  1022,  1023,  1024,  1025,
                                2100};
    for (const double hi : values) {
        for (const int e : exps) {
            const DD a(hi, values[static_cast<size_t>(e + 2100) %
                                  values.size()]);
            const DD got = pstat::ldexp(a, e);
            const DD want = libmLdexp(a, e);
            EXPECT_TRUE(sameBits(got.hi, want.hi) &&
                        sameBits(got.lo, want.lo))
                << std::hexfloat << a.hi << " " << a.lo << " e=" << e;
        }
    }
    for (int i = 0; i < 2000; ++i) {
        const DD a(values[rng.below(values.size())],
                   values[rng.below(values.size())]);
        const int e = static_cast<int>(rng.below(4301)) - 2150;
        const DD got = pstat::ldexp(a, e);
        const DD want = libmLdexp(a, e);
        EXPECT_TRUE(sameBits(got.hi, want.hi) &&
                    sameBits(got.lo, want.lo))
            << std::hexfloat << a.hi << " " << a.lo << " e=" << e;
    }

    // renormalize(), through ScaledDD(DD, exp2): every value as hi,
    // with a lo of its own size class that the scale can make
    // subnormal, and the constructor's result already normalized (so
    // the operators' former second renormalize() was a no-op).
    for (const double hi : values) {
        for (const double lo :
             {0.0, -0.0, denorm, std::ldexp(hi, -53),
              std::ldexp(hi, -60) * 0x1.fffffffffffffp0, -0x1.555p-30,
              0x1p-1070}) {
            const DD mant(hi, std::isfinite(lo) ? lo : 0.0);
            for (const int64_t exp2 : {int64_t{0}, int64_t{-7},
                                       int64_t{1} << 40}) {
                const ScaledDD got(mant, exp2);
                const ScaledDD want = libmScaledDD(mant, exp2);
                EXPECT_TRUE(sameBits(got.mant.hi, want.mant.hi) &&
                            sameBits(got.mant.lo, want.mant.lo) &&
                            got.exp2 == want.exp2)
                    << std::hexfloat << mant.hi << " " << mant.lo;
                ScaledDD again = got;
                again.renormalize();
                EXPECT_TRUE(sameBits(again.mant.hi, got.mant.hi) &&
                            sameBits(again.mant.lo, got.mant.lo) &&
                            again.exp2 == got.exp2)
                    << std::hexfloat << mant.hi << " " << mant.lo;
            }
        }
    }
    EXPECT_TRUE(sameBits(ScaledDD(denorm).mant.hi, 0.5));
    EXPECT_EQ(ScaledDD(denorm).exp2, -1073);
}

} // namespace
