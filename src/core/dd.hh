/**
 * @file
 * Double-double arithmetic with explicit power-of-two rescaling.
 *
 * The application-level accuracy experiments (Figures 9-11) need a
 * high-precision oracle over billions of operations, where the
 * 256-bit BigFloat is too slow. A double-double (~106-bit mantissa)
 * combined with exact power-of-two rescaling to dodge binary64's
 * range limits gives ~31 decimal digits, which is 10+ orders of
 * magnitude more precise than anything measured. Its cost per
 * Listing-2 DP cell on bench_fig15_simd's af_scan batch (one thread,
 * 4-vCPU Xeon VM, GCC 12 Release, five runs): 25-37 ns in this
 * scalar code and 9-12 ns in the AVX2 p-value tile
 * (pbd::pvalueBatchSimd<ScaledDD>), against 1.5-1.8 ns for scalar
 * binary64. Op-level measurements (Figure 3) and all unit tests
 * still use the full BigFloat oracle.
 *
 * Classic error-free transforms: Knuth two-sum, FMA two-prod.
 */

#ifndef PSTAT_CORE_DD_HH
#define PSTAT_CORE_DD_HH

#include <bit>
#include <cmath>
#include <cstdint>

#include "bigfloat/bigfloat.hh"

namespace pstat
{

/** An unevaluated sum hi + lo with |lo| <= ulp(hi)/2. */
struct DD
{
    double hi = 0.0;
    double lo = 0.0;

    constexpr DD() = default;
    constexpr DD(double h, double l) : hi(h), lo(l) {}
    explicit constexpr DD(double v) : hi(v) {}

    static constexpr DD zero() { return DD(); }
    static constexpr DD one() { return DD(1.0); }

    bool isZero() const { return hi == 0.0; }
    double toDouble() const { return hi + lo; }

    /** Exact conversion to the 256-bit oracle. */
    BigFloat
    toBigFloat() const
    {
        return BigFloat::fromDouble(hi) + BigFloat::fromDouble(lo);
    }
};

/** Error-free a + b for |a| >= |b|. */
inline DD
quickTwoSum(double a, double b)
{
    const double s = a + b;
    return {s, b - (s - a)};
}

/** Error-free a + b (Knuth). */
inline DD
twoSum(double a, double b)
{
    const double s = a + b;
    const double v = s - a;
    return {s, (a - (s - v)) + (b - v)};
}

/** Error-free a * b via FMA. */
inline DD
twoProd(double a, double b)
{
    const double p = a * b;
    return {p, std::fma(a, b, -p)};
}

inline DD
operator+(const DD &a, const DD &b)
{
    DD s = twoSum(a.hi, b.hi);
    s.lo += a.lo + b.lo;
    return quickTwoSum(s.hi, s.lo);
}

inline DD
operator-(const DD &a, const DD &b)
{
    return a + DD(-b.hi, -b.lo);
}

inline DD
operator*(const DD &a, const DD &b)
{
    DD p = twoProd(a.hi, b.hi);
    p.lo += a.hi * b.lo + a.lo * b.hi;
    return quickTwoSum(p.hi, p.lo);
}

inline DD
operator/(const DD &a, const DD &b)
{
    const double q1 = a.hi / b.hi;
    DD r = a - b * DD(q1);
    const double q2 = r.hi / b.hi;
    r = r - b * DD(q2);
    const double q3 = r.hi / b.hi;
    return quickTwoSum(q1, q2) + DD(q3);
}

inline bool
operator<(const DD &a, const DD &b)
{
    return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo);
}

/**
 * x * 2^e, rounded as std::ldexp rounds it. For finite x and e in
 * [-1022, 1023], 2^e is a normal double, and one IEEE multiply by it
 * is exact or, when the result is subnormal or overflows, rounds once
 * to nearest: what ldexp returns. Everything else calls libm.
 */
inline double
ldexpScale(double x, int e)
{
    if (std::isfinite(x) && e >= -1022 && e <= 1023)
        return x * std::bit_cast<double>(static_cast<uint64_t>(e + 1023)
                                         << 52);
    return std::ldexp(x, e);
}

/** Multiply by 2^e (both components scaled, each as std::ldexp). */
inline DD
ldexp(const DD &a, int e)
{
    return {ldexpScale(a.hi, e), ldexpScale(a.lo, e)};
}

/**
 * A double-double mantissa with a wide explicit base-2 exponent:
 * value = mant * 2^exp2 with |mant.hi| kept in [0.5, 1) by
 * renormalize() (zero is mant = 0, exp2 = 0). Exponent range is
 * int64, so likelihoods of 2^-2,900,000 are no problem. This is the
 * oracle scalar for the application-level kernels.
 */
struct ScaledDD
{
    DD mant;
    int64_t exp2 = 0;

    constexpr ScaledDD() = default;
    explicit ScaledDD(double v) : mant(v) { renormalize(); }
    ScaledDD(DD m, int64_t e) : mant(m), exp2(e) { renormalize(); }

    static ScaledDD zero() { return ScaledDD(); }
    static ScaledDD one() { return ScaledDD(1.0); }

    bool isZero() const { return mant.isZero(); }

    /**
     * Keep mant.hi in [0.5, 1) exactly (power-of-two scaling is
     * error-free), so exp2 differences equal value-magnitude
     * differences and alignment shifts never reach subnormals.
     */
    void
    renormalize()
    {
        if (mant.isZero()) {
            exp2 = 0;
            return;
        }
        // A normal hi (exponent field 1..2046) is 1.f * 2^(field -
        // 1023) = 0.1f * 2^(field - 1022): frexp's exponent, read off
        // the bits. Subnormal, infinite and NaN hi ask libm.
        const uint64_t field =
            (std::bit_cast<uint64_t>(mant.hi) >> 52) & 0x7ff;
        int e = 0;
        if (field - 1 < 2046)
            e = static_cast<int>(field) - 1022;
        else
            std::frexp(mant.hi, &e);
        if (e != 0) {
            mant = ldexp(mant, -e);
            exp2 += e;
        }
    }

    /** log2 |value|; requires nonzero. */
    double
    log2Abs() const
    {
        return static_cast<double>(exp2) +
               std::log2(std::fabs(mant.hi));
    }

    BigFloat
    toBigFloat() const
    {
        if (isZero())
            return BigFloat::zero();
        return mant.toBigFloat() * BigFloat::twoPow(exp2);
    }

    friend ScaledDD
    operator*(const ScaledDD &a, const ScaledDD &b)
    {
        if (a.isZero() || b.isZero())
            return zero();
        return ScaledDD(a.mant * b.mant, a.exp2 + b.exp2);
    }

    friend ScaledDD
    operator+(const ScaledDD &a, const ScaledDD &b)
    {
        if (a.isZero())
            return b;
        if (b.isZero())
            return a;
        const ScaledDD &big = a.exp2 >= b.exp2 ? a : b;
        const ScaledDD &sml = a.exp2 >= b.exp2 ? b : a;
        const int64_t d = big.exp2 - sml.exp2;
        if (d > 120) // below DD's ~106-bit significance: no effect
            return big;
        return ScaledDD(big.mant + ldexp(sml.mant, -static_cast<int>(d)),
                        big.exp2);
    }

    friend ScaledDD
    operator-(const ScaledDD &a, const ScaledDD &b)
    {
        ScaledDD neg = b;
        neg.mant = DD(-neg.mant.hi, -neg.mant.lo);
        return a + neg;
    }

    friend ScaledDD
    operator/(const ScaledDD &a, const ScaledDD &b)
    {
        return ScaledDD(a.mant / b.mant, a.exp2 - b.exp2);
    }

    /**
     * Ordering. renormalize() keeps |mant.hi| in [0.5, 1), so for
     * same-sign operands the exponents order first and the mantissas
     * break ties; sign and zero cases are handled explicitly.
     */
    friend bool
    operator<(const ScaledDD &a, const ScaledDD &b)
    {
        const int sa = a.isZero() ? 0 : (a.mant.hi < 0.0 ? -1 : 1);
        const int sb = b.isZero() ? 0 : (b.mant.hi < 0.0 ? -1 : 1);
        if (sa != sb)
            return sa < sb;
        if (sa == 0)
            return false; // both zero
        if (a.exp2 != b.exp2)
            return sa > 0 ? a.exp2 < b.exp2 : b.exp2 < a.exp2;
        return a.mant < b.mant;
    }
};

} // namespace pstat

#endif // PSTAT_CORE_DD_HH
