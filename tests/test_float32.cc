/**
 * @file
 * Reduced-precision tier tests: correctly rounded BigFloat ->
 * binary32 packing (normals, subnormals, overflow, ties), bfloat16
 * round-trip and rounding edge cases (NaN, infinity, subnormal
 * flush, RNE ties), log-space binary32 semantics, and the
 * Neumaier-compensated summation policy.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/bfloat16.hh"
#include "core/binary32.hh"
#include "core/compensated.hh"
#include "core/logspace.hh"
#include "core/real_traits.hh"
#include "pbd/pbd.hh"
#include "stats/rng.hh"

namespace
{

using namespace pstat;

// ------------------------------------------------------- binary32

TEST(Binary32, PackMatchesCastForDoubles)
{
    // For values whose double -> float cast is a single rounding, the
    // BigFloat path must agree with the hardware cast.
    const double samples[] = {1.0,       0.5,     0.1,    1.0 / 3.0,
                              3.0e38,    1.2e-38, 7e-42,  1e-45,
                              0.9999999, 2.5e-7,  1e-300, 6.7e30};
    for (double v : samples) {
        for (double s : {1.0, -1.0}) {
            const BigFloat exact = BigFloat::fromDouble(v * s);
            EXPECT_EQ(binary32FromBigFloat(exact),
                      static_cast<float>(v * s))
                << v * s;
        }
    }
}

TEST(Binary32, PackHandlesSubnormalBoundaries)
{
    // Smallest subnormal and its tie point.
    EXPECT_EQ(binary32FromBigFloat(BigFloat::twoPow(-149)),
              0x1p-149f);
    // Exactly half the smallest subnormal: tie to even -> zero.
    EXPECT_EQ(binary32FromBigFloat(BigFloat::twoPow(-150)), 0.0f);
    // Just above the tie rounds up to the smallest subnormal.
    const BigFloat just_above =
        BigFloat::twoPow(-150) + BigFloat::twoPow(-180);
    EXPECT_EQ(binary32FromBigFloat(just_above), 0x1p-149f);
    // Just below the tie rounds to zero.
    EXPECT_EQ(binary32FromBigFloat(BigFloat::twoPow(-151)), 0.0f);
}

TEST(Binary32, PackAvoidsDoubleRoundingAtTies)
{
    // m is exactly halfway between two adjacent floats; m + 2^-60 is
    // strictly above the midpoint so it must round UP. A naive
    // BigFloat -> double -> float chain rounds the sum back onto the
    // midpoint first and then breaks the tie to even (down).
    const BigFloat m =
        BigFloat::one() + BigFloat::twoPow(-24); // midpoint of
                                                 // [1, 1+2^-23]
    const BigFloat x = m + BigFloat::twoPow(-60);
    EXPECT_EQ(binary32FromBigFloat(m), 1.0f); // tie to even
    EXPECT_EQ(binary32FromBigFloat(x), 1.0f + 0x1p-23f);
    EXPECT_EQ(static_cast<float>(x.toDouble()), 1.0f) // the hazard
        << "double rounding no longer misbehaves; test needs review";
}

TEST(Binary32, PackHandlesOverflow)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(binary32FromBigFloat(BigFloat::twoPow(128)), inf);
    EXPECT_EQ(binary32FromBigFloat(BigFloat::zero() -
                                   BigFloat::twoPow(200)),
              -inf);
    // Largest finite float survives.
    const double max_float = 0x1.fffffep+127;
    EXPECT_EQ(binary32FromBigFloat(BigFloat::fromDouble(max_float)),
              static_cast<float>(max_float));
}

TEST(Binary32, TraitsRoundTripAndPredicates)
{
    using RT = RealTraits<float>;
    EXPECT_EQ(RT::name(), "binary32");
    EXPECT_TRUE(RT::isZero(RT::zero()));
    EXPECT_TRUE(RT::isInvalid(
        RT::fromDouble(std::numeric_limits<double>::quiet_NaN())));
    const float v = RT::fromDouble(0.37);
    EXPECT_EQ(RT::fromBigFloat(RT::toBigFloat(v)), v);
}

// ------------------------------------------------------- bfloat16

TEST(BFloat16, RepresentationBasics)
{
    EXPECT_EQ(BFloat16::one().bits(), 0x3F80);
    EXPECT_EQ(BFloat16::zero().bits(), 0x0000);
    EXPECT_EQ(BFloat16::fromDouble(1.0).toDouble(), 1.0);
    EXPECT_EQ(BFloat16::fromDouble(-2.5).toDouble(), -2.5);
    // 1 + 2^-7 is the smallest increment above one.
    EXPECT_EQ(BFloat16::fromDouble(1.0 + 0x1p-7).toDouble(),
              1.0 + 0x1p-7);
}

TEST(BFloat16, RoundToNearestEvenTies)
{
    // 1 + 2^-8 is exactly between 1 and 1 + 2^-7: tie to even (down).
    EXPECT_EQ(BFloat16::fromDouble(1.0 + 0x1p-8).toDouble(), 1.0);
    // 1 + 2^-7 + 2^-8 is between 1+2^-7 and 1+2^-6: tie to even (up).
    EXPECT_EQ(
        BFloat16::fromDouble(1.0 + 0x1p-7 + 0x1p-8).toDouble(),
        1.0 + 0x1p-6);
    // Anything past the halfway point rounds up.
    EXPECT_EQ(
        BFloat16::fromDouble(1.0 + 0x1p-8 + 0x1p-20).toDouble(),
        1.0 + 0x1p-7);
    // And below it rounds down.
    EXPECT_EQ(
        BFloat16::fromDouble(1.0 + 0x1p-8 - 0x1p-20).toDouble(),
        1.0);
}

TEST(BFloat16, SubnormalFlushToZero)
{
    // Everything strictly below the minimum normal flushes...
    EXPECT_TRUE(BFloat16::fromDouble(0x1p-127).isZero());
    EXPECT_TRUE(BFloat16::fromDouble(1e-40).isZero());
    EXPECT_TRUE(BFloat16::fromDouble(0x1.8p-130).isZero());
    // ...except values that round UP to the minimum normal itself.
    const double just_below = 0x1p-126 * (1.0 - 0x1p-9);
    EXPECT_EQ(BFloat16::fromDouble(just_below).toDouble(), 0x1p-126);
    EXPECT_EQ(BFloat16::fromDouble(0x1p-126).toDouble(), 0x1p-126);
    // The flush keeps the sign.
    const auto negative_flush = BFloat16::fromDouble(-1e-40);
    EXPECT_TRUE(negative_flush.isZero());
    EXPECT_TRUE(negative_flush.isNegative());
    // Arithmetic underflow flushes too.
    const auto tiny = BFloat16::fromDouble(0x1p-100);
    EXPECT_TRUE((tiny * tiny).isZero());
    // Raw subnormal patterns injected through fromBits decode as
    // (signed) zero under the FTZ contract.
    const auto raw_subnormal = BFloat16::fromBits(0x0001);
    EXPECT_TRUE(raw_subnormal.isZero());
    EXPECT_EQ(raw_subnormal.toFloat(), 0.0f);
    EXPECT_TRUE(
        BFloat16::fromBigFloat(raw_subnormal.toBigFloat()).isZero());
    EXPECT_TRUE(BFloat16::fromBits(0x807F).isZero());
    EXPECT_TRUE(BFloat16::fromBits(0x807F).isNegative());
}

TEST(BFloat16, NaNAndInfinity)
{
    EXPECT_TRUE(BFloat16::nan().isNaN());
    EXPECT_TRUE(
        BFloat16::fromDouble(std::nan("")).isNaN());
    EXPECT_TRUE(std::isnan(BFloat16::nan().toDouble()));
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(BFloat16::fromDouble(inf).isInf());
    EXPECT_TRUE(BFloat16::fromDouble(-inf).isInf());
    EXPECT_TRUE(BFloat16::fromDouble(-inf).isNegative());
    // Overflow saturates to infinity (binary64 max >> bfloat16 max).
    EXPECT_TRUE(BFloat16::fromDouble(1e39).isInf());
    const auto big = BFloat16::fromDouble(3e38);
    EXPECT_TRUE((big * big).isInf());
    // inf - inf is NaN through the carrier.
    const auto pinf = BFloat16::fromDouble(inf);
    EXPECT_TRUE((pinf - pinf).isNaN());
    // The oracle has no infinities: both map to NaN / invalid.
    EXPECT_TRUE(pinf.toBigFloat().isNaN());
    EXPECT_TRUE(RealTraits<BFloat16>::isInvalid(pinf));
    EXPECT_TRUE(RealTraits<BFloat16>::isInvalid(BFloat16::nan()));
}

TEST(BFloat16, RoundTripThroughBigFloat)
{
    // Every finite bfloat16 value must survive
    // toBigFloat -> fromBigFloat exactly: walk all positive normal
    // patterns (and their negations).
    for (uint32_t exp_field = 1; exp_field <= 0xFE; ++exp_field) {
        for (uint32_t mant = 0; mant < 0x80; mant += 0x11) {
            const auto bits =
                static_cast<uint16_t>((exp_field << 7) | mant);
            const auto v = BFloat16::fromBits(bits);
            const auto back = BFloat16::fromBigFloat(v.toBigFloat());
            ASSERT_EQ(back.bits(), v.bits()) << bits;
            const auto neg = -v;
            const auto neg_back =
                BFloat16::fromBigFloat(neg.toBigFloat());
            ASSERT_EQ(neg_back.bits(), neg.bits()) << bits;
        }
    }
}

TEST(BFloat16, CarrierArithmeticIsCorrectlyRounded)
{
    // Exact-then-round reference through the oracle for a spread of
    // operand pairs, exercising guard/sticky paths and big exponent
    // gaps (24 carrier bits >= 2*8+2 makes double rounding safe).
    const double vals[] = {1.0,    1.5,     0x1.aap4, 3.1e-3,
                           7.5e7,  2.0e-30, 256.0,    0x1p-120,
                           1e30,   0.335};
    for (double a : vals) {
        for (double b : vals) {
            const auto fa = BFloat16::fromDouble(a);
            const auto fb = BFloat16::fromDouble(b);
            const BigFloat ea = fa.toBigFloat();
            const BigFloat eb = fb.toBigFloat();
            EXPECT_EQ((fa + fb).bits(),
                      BFloat16::fromBigFloat(ea + eb).bits())
                << a << " + " << b;
            EXPECT_EQ((fa * fb).bits(),
                      BFloat16::fromBigFloat(ea * eb).bits())
                << a << " * " << b;
            EXPECT_EQ((fa - fb).bits(),
                      BFloat16::fromBigFloat(ea - eb).bits())
                << a << " - " << b;
            EXPECT_EQ((fa / fb).bits(),
                      BFloat16::fromBigFloat(ea / eb).bits())
                << a << " / " << b;
        }
    }
}

// ------------------------------------------------------- log32

TEST(LogFloat, BasicSemantics)
{
    using RT = RealTraits<LogFloat>;
    EXPECT_EQ(RT::name(), "log(binary32)");
    EXPECT_TRUE(RT::isZero(LogFloat::zero()));
    EXPECT_EQ(LogFloat::one().lnValue(), 0.0f);
    // Multiplication adds logs exactly in float.
    const auto a = LogFloat::fromLn(-100.25f);
    const auto b = LogFloat::fromLn(-50.5f);
    EXPECT_EQ((a * b).lnValue(), -150.75f);
    EXPECT_EQ((a / b).lnValue(), -49.75f);
    // Negative linear input is invalid.
    EXPECT_TRUE(RT::isInvalid(LogFloat::fromDouble(-1.0)));
    // Zero annihilates products and is the LSE identity.
    EXPECT_TRUE((LogFloat::zero() * a).isZero());
    EXPECT_EQ((LogFloat::zero() + a).lnValue(), a.lnValue());
}

TEST(LogFloat, SurvivesMagnitudesWhereLinear32Dies)
{
    // A likelihood of 2^-100000 is far below binary32/bfloat16 range
    // but its ln (~ -69315) sits comfortably in a float.
    const BigFloat deep = BigFloat::twoPow(-100000);
    const auto lg = LogFloat::fromBigFloat(deep);
    EXPECT_FALSE(lg.isZero());
    EXPECT_FALSE(lg.isNaN());
    EXPECT_NEAR(lg.toBigFloat().log2Abs(), -100000.0, 1e-2);
    EXPECT_EQ(binary32FromBigFloat(deep), 0.0f);
    EXPECT_TRUE(BFloat16::fromBigFloat(deep).isZero());
}

TEST(LogFloat, LseMatchesFloatReference)
{
    // Both LSEs hold every intermediate in binary32 and take libm's
    // float exp/log1p/log: a sweep against the float expressions
    // written out, bit for bit. Evaluating in binary64 and rounding
    // once at the end, or running the binary64 n-ary LSE's exp kernel,
    // gives other bits on many of these inputs.
    stats::Rng rng(25);
    std::vector<float> terms;
    for (int i = 0; i < 4000; ++i) {
        const auto a = static_cast<float>(rng.uniform(-60.0, 5.0));
        const auto b = static_cast<float>(rng.uniform(-60.0, 5.0));
        const float m = a > b ? a : b;
        const float lo = a > b ? b : a;
        const float want = m + std::log1p(std::exp(lo - m));
        ASSERT_EQ(logSumExp(a, b), want) << a << " " << b;
        ASSERT_EQ((LogFloat::fromLn(a) + LogFloat::fromLn(b)).lnValue(),
                  want)
            << a << " " << b;

        // N-ary: subtract the max, sum the exponentials in index order.
        terms.resize(1 + i % 12);
        for (float &t : terms)
            t = static_cast<float>(rng.uniform(-30.0, 0.0));
        float max = terms[0];
        for (float t : terms)
            max = t > max ? t : max;
        float sum = 0.0f;
        for (float t : terms)
            sum += std::exp(t - max);
        ASSERT_EQ(logSumExp(std::span<const float>(terms)),
                  max + std::log(sum))
            << i;
    }
    // Points where glibc's float exp and a binary64 exp rounded to
    // binary32 differ by an ulp that survives the sum and the log: a
    // kernel that rounds the binary64 exp gives other bits here.
    for (const float x : {-0x1.ff1ff2p+0f, -0x1.fd0e3cp+0f,
                          -0x1.fc8aa8p+0f, -0x1.fb6b9p+0f}) {
        const float pair[] = {0.0f, x};
        EXPECT_EQ(logSumExp(std::span<const float>(pair)),
                  std::log(1.0f + std::exp(x)))
            << x;
    }
}

TEST(LogFloat, FromDoubleTakesTheLogInBinary64)
{
    // The input's ln is taken in binary64 and rounded once to binary32;
    // taking it in the carrier (logf of the input cast to float) loses
    // the input's low bits and every value below binary32's range.
    stats::Rng rng(26);
    for (int i = 0; i < 4000; ++i) {
        const double x = std::exp2(rng.uniform(-1070.0, 0.0));
        ASSERT_EQ(LogFloat::fromDouble(x).lnValue(),
                  static_cast<float>(std::log(x)))
            << x;
    }
}

TEST(LogFloat, OracleConversionRoundsOnceAtBinary32Ties)
{
    // ln(v) lies a hair (2^-70 relative) off a binary32 midpoint, so
    // the correctly rounded float is the neighbour on that side. Going
    // through binary64 first lands exactly on the midpoint, and the
    // second rounding breaks the tie to even — the wrong neighbour for
    // one side of every midpoint. fromBigFloat must round once.
    int hazards = 0;
    for (const float f : {-0.75f, -1.5f, -3.0f, -100.25f, -7.0e4f,
                          0.625f, 2.5f}) {
        for (const float toward : {-INFINITY, INFINITY}) {
            const double mid =
                (static_cast<double>(f) +
                 static_cast<double>(std::nextafter(f, toward))) /
                2.0;
            for (const bool up : {false, true}) {
                const BigFloat hair =
                    BigFloat::twoPow(std::ilogb(mid) - 70);
                const BigFloat ln = up ? BigFloat::fromDouble(mid) + hair
                                       : BigFloat::fromDouble(mid) - hair;
                const float want = binary32FromBigFloat(ln);
                ASSERT_EQ(ln.toDouble(), mid);
                if (static_cast<float>(mid) != want)
                    ++hazards;
                EXPECT_EQ(
                    LogFloat::fromBigFloat(BigFloat::exp(ln)).lnValue(),
                    want)
                    << f << " toward " << toward << (up ? " up" : " down");
            }
        }
    }
    EXPECT_EQ(hazards, 14); // one side of each of the 14 midpoints
}

TEST(LogFloat, OracleRoundTripIsCorrectlyRounded)
{
    // fromBigFloat computes ln at oracle precision and rounds once;
    // re-converting the held value must reproduce it bit for bit.
    const double samples[] = {0.37, 1.0, 1e-30, 0.99999, 123.456};
    for (double v : samples) {
        const auto lg =
            LogFloat::fromBigFloat(BigFloat::fromDouble(v));
        const auto back = LogFloat::fromBigFloat(lg.toBigFloat());
        EXPECT_EQ(back.lnValue(), lg.lnValue()) << v;
    }
}

// ----------------------------------------------- compensated sums

TEST(Compensated, NeumaierRecoversLowOrderBits)
{
    // Each 2^-25 term is below half an ulp of the running sum (ulp
    // of 1.0f is 2^-23), so the naive float sum never moves; the
    // compensation term collects them and returns the exact total.
    NeumaierSum<float> comp;
    float naive = 1.0f;
    comp.add(1.0f);
    const int n = 4096;
    for (int i = 0; i < n; ++i) {
        naive = naive + 0x1p-25f;
        comp.add(0x1p-25f);
    }
    const double exact = 1.0 + n * 0x1p-25; // 1 + 2^-13, a float
    EXPECT_EQ(static_cast<double>(comp.value()), exact);
    EXPECT_EQ(naive, 1.0f); // every term was lost
}

TEST(Compensated, WorksForPositsAndBFloat16)
{
    NeumaierSum<Posit<32, 2>> psum;
    for (int i = 0; i < 100; ++i)
        psum.add(Posit<32, 2>::fromDouble(0.01));
    EXPECT_NEAR(psum.value().toDouble(), 1.0, 1e-6);

    NeumaierSum<BFloat16> bsum;
    BFloat16 plain = BFloat16::zero();
    for (int i = 0; i < 256; ++i) {
        bsum.add(BFloat16::one());
        plain += BFloat16::one();
    }
    // Plain bfloat16 summation stalls once the sum reaches 256 (ulp
    // = 2, so 256 + 1 ties back to 256); the compensation term keeps
    // counting and surfaces once it reaches a representable step.
    EXPECT_EQ(bsum.value().toDouble(), 256.0);
    EXPECT_EQ(plain.toDouble(), 256.0);
    for (int i = 0; i < 2; ++i) {
        bsum.add(BFloat16::one());
        plain += BFloat16::one();
    }
    EXPECT_EQ(plain.toDouble(), 256.0); // both ones lost to rounding
    EXPECT_EQ(bsum.value().toDouble(), 258.0);
}

TEST(Compensated, LogFormatsFallBackToPlainPValue)
{
    static_assert(Compensable<float>);
    static_assert(Compensable<double>);
    static_assert(Compensable<BFloat16>);
    static_assert((Compensable<Posit<32, 2>>));
    static_assert(!Compensable<LogDouble>);
    static_assert(!Compensable<LogFloat>);
    static_assert(!Compensable<Lns64>);

    const std::vector<double> probs = {0.01, 0.2, 0.5, 0.03, 0.4,
                                       0.09, 0.6, 0.07, 0.25, 0.33};
    const auto plain = pbd::pvalue<LogDouble>(probs, 3);
    const auto comp = pbd::pvalueCompensated<LogDouble>(probs, 3);
    EXPECT_EQ(plain.lnValue(), comp.lnValue());
}

TEST(Compensated, PValueCompensatedBeatsPlainInBFloat16)
{
    // A long column of equal probabilities: the running p-value
    // accumulates hundreds of terms, which plain bfloat16 truncates
    // hard. Compare both against the oracle.
    std::vector<double> probs(400, 0.05);
    const int k = 10;
    const BigFloat oracle =
        pbd::pvalueOracle(probs, k).toBigFloat();
    const auto plain = RealTraits<BFloat16>::toBigFloat(
        pbd::pvalue<BFloat16>(probs, k));
    const auto comp = RealTraits<BFloat16>::toBigFloat(
        pbd::pvalueCompensated<BFloat16>(probs, k));
    const BigFloat err_plain =
        BigFloat::relativeError(oracle, plain);
    const BigFloat err_comp = BigFloat::relativeError(oracle, comp);
    EXPECT_TRUE(err_comp <= err_plain);
}

} // namespace
