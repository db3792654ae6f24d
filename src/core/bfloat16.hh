/**
 * @file
 * Software-emulated bfloat16 — the cheapest format in the study.
 *
 * bfloat16 is the top half of binary32: 1 sign bit, 8 exponent bits,
 * 7 fraction bits. BFloat16 stores the 16-bit pattern and performs
 * arithmetic through a binary32 carrier: operands widen exactly to
 * float, the float operation runs, and the result rounds back to
 * bfloat16 with round-to-nearest-even. Because binary32 keeps 24
 * significand bits and 24 >= 2*8 + 2, the double rounding in
 * +, -, *, / is innocuous (Figueroa's theorem) — the carrier results
 * are bit-identical to exact-then-round bfloat16 arithmetic.
 *
 * Subnormals are flushed: a result whose rounded magnitude falls
 * below 2^-126 becomes (signed) zero, matching the flush-to-zero
 * behavior of the ML accelerators that popularized the format. The
 * flush happens after rounding, so a value just below 2^-126 that
 * rounds up to it still survives. Infinities and NaN follow IEEE;
 * the BigFloat oracle has no infinities, so infinite results convert
 * to NaN (and count as invalid in the accuracy harness).
 */

#ifndef PSTAT_CORE_BFLOAT16_HH
#define PSTAT_CORE_BFLOAT16_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "bigfloat/bigfloat.hh"
#include "core/binary32.hh"

namespace pstat
{

/** A 16-bit brain float (1/8/7 split) with flush-to-zero. */
class BFloat16
{
  public:
    /** Significand bits including the hidden one. */
    static constexpr int precision = 8;
    /** Explicit fraction bits. */
    static constexpr int fraction_bits = 7;

    /** Constructs +0. */
    constexpr BFloat16() = default;

    /** @name Bit-level access */
    /// @{
    /**
     * Reinterpret a raw 16-bit pattern. Under the flush-to-zero
     * contract subnormal patterns (exponent field 0, nonzero
     * fraction) are zero: arithmetic never produces them, and when
     * injected here they decode as (signed) zero.
     */
    static constexpr BFloat16
    fromBits(uint16_t raw)
    {
        BFloat16 out;
        out.bits_ = raw;
        return out;
    }

    /** The 16-bit pattern (sign | 8-bit exponent | 7-bit fraction). */
    constexpr uint16_t bits() const { return bits_; }
    /// @}

    /** @name Special values and predicates */
    /// @{
    static constexpr BFloat16 zero() { return BFloat16(); }
    static constexpr BFloat16 one() { return fromBits(0x3F80); }
    /** Canonical quiet NaN pattern. */
    static constexpr BFloat16 nan() { return fromBits(0x7FC0); }
    /** Positive infinity. */
    static constexpr BFloat16 inf() { return fromBits(0x7F80); }

    /** True for +-0 and (flushed) subnormal patterns. */
    constexpr bool isZero() const { return (bits_ & 0x7F80) == 0; }
    constexpr bool isNaN() const
    {
        return (bits_ & 0x7F80) == 0x7F80 && (bits_ & 0x007F) != 0;
    }
    constexpr bool isInf() const { return (bits_ & 0x7FFF) == 0x7F80; }
    /**
     * The format's invalid predicate (ScalarFormat): NaN or infinity,
     * neither of which the oracle can represent.
     */
    constexpr bool isInvalid() const { return isNaN() || isInf(); }
    constexpr bool isNegative() const { return (bits_ & 0x8000) != 0; }
    /// @}

    /** @name Conversions */
    /// @{
    /** Single correctly rounded RNE conversion from binary64. */
    static BFloat16
    fromDouble(double value)
    {
        if (std::isnan(value))
            return nan();
        const bool negative = std::signbit(value);
        if (value == 0.0)
            return signedZero(negative);
        if (std::isinf(value))
            return signedInf(negative);
        int e = 0;
        const double frac = std::frexp(std::fabs(value), &e);
        // frac * 2^64 is integer-valued (53 significant bits), so the
        // cast is exact and yields a normalized 64-bit significand.
        const auto sig = static_cast<uint64_t>(std::ldexp(frac, 64));
        return pack(negative, e - 1, sig, false);
    }

    /** Round a binary32 value to bfloat16 (exact widening back). */
    static BFloat16
    fromFloat(float value)
    {
        return fromDouble(static_cast<double>(value));
    }

    /** Exact widening: every finite bfloat16 is a binary32. */
    float
    toFloat() const
    {
        if (isNaN())
            return std::numeric_limits<float>::quiet_NaN();
        if (isInf())
            return isNegative()
                       ? -std::numeric_limits<float>::infinity()
                       : std::numeric_limits<float>::infinity();
        if (isZero()) // includes flushed subnormal patterns
            return isNegative() ? -0.0f : 0.0f;
        const int exp_field = (bits_ >> 7) & 0xFF;
        const int mant = bits_ & 0x7F;
        const double mag = std::ldexp(128.0 + mant, exp_field - 134);
        return static_cast<float>(isNegative() ? -mag : mag);
    }

    /** Exact widening to binary64. */
    double toDouble() const { return static_cast<double>(toFloat()); }

    /**
     * Exact value in the oracle. Infinities become NaN (the oracle
     * has no infinity; the harness reports them as invalid).
     */
    BigFloat
    toBigFloat() const
    {
        if (isNaN() || isInf())
            return BigFloat::nan();
        return BigFloat::fromDouble(toDouble());
    }

    /** Correctly rounded (single RNE) conversion from the oracle. */
    static BFloat16
    fromBigFloat(const BigFloat &value)
    {
        if (value.isNaN())
            return nan();
        if (value.isZero())
            return zero();
        const BigFloat::Top64 t = value.top64();
        return pack(t.negative, t.exp2, t.sig, t.sticky);
    }
    /// @}

    /** @name Arithmetic via the binary32 carrier (all RNE) */
    /// @{
    friend BFloat16
    operator+(const BFloat16 &a, const BFloat16 &b)
    {
        return fromFloat(a.toFloat() + b.toFloat());
    }
    friend BFloat16
    operator-(const BFloat16 &a, const BFloat16 &b)
    {
        return fromFloat(a.toFloat() - b.toFloat());
    }
    friend BFloat16
    operator*(const BFloat16 &a, const BFloat16 &b)
    {
        return fromFloat(a.toFloat() * b.toFloat());
    }
    friend BFloat16
    operator/(const BFloat16 &a, const BFloat16 &b)
    {
        return fromFloat(a.toFloat() / b.toFloat());
    }

    BFloat16
    operator-() const
    {
        return fromBits(static_cast<uint16_t>(bits_ ^ 0x8000));
    }

    /** Magnitude (sign bit cleared). */
    BFloat16
    abs() const
    {
        return fromBits(static_cast<uint16_t>(bits_ & 0x7FFF));
    }

    BFloat16 &operator+=(const BFloat16 &o) { return *this = *this + o; }
    BFloat16 &operator-=(const BFloat16 &o) { return *this = *this - o; }
    BFloat16 &operator*=(const BFloat16 &o) { return *this = *this * o; }
    BFloat16 &operator/=(const BFloat16 &o) { return *this = *this / o; }
    /// @}

    /** @name Comparison (IEEE semantics: NaN compares false) */
    /// @{
    friend bool
    operator==(const BFloat16 &a, const BFloat16 &b)
    {
        return a.toFloat() == b.toFloat();
    }
    friend bool
    operator<(const BFloat16 &a, const BFloat16 &b)
    {
        return a.toFloat() < b.toFloat();
    }
    friend bool
    operator>(const BFloat16 &a, const BFloat16 &b)
    {
        return a.toFloat() > b.toFloat();
    }
    /// @}

    /** Display name used by RealTraits. */
    static std::string name() { return "bfloat16"; }

  private:
    static constexpr BFloat16
    signedZero(bool negative)
    {
        return fromBits(negative ? 0x8000 : 0x0000);
    }
    static constexpr BFloat16
    signedInf(bool negative)
    {
        return fromBits(negative ? 0xFF80 : 0x7F80);
    }

    /**
     * RNE rounding of (-1)^negative * sig * 2^(exp2 - 63) (MSB of sig
     * set) to the bfloat16 grid, then flush-to-zero of subnormals.
     */
    static BFloat16
    pack(bool negative, int64_t exp2, uint64_t sig, bool sticky)
    {
        if (exp2 >= 128)
            return signedInf(negative);
        // Even a round-up by one binade stays subnormal: flush.
        if (exp2 < -127)
            return signedZero(negative);

        constexpr int p = precision;
        uint64_t kept = roundSigRNE(sig, p, sticky);
        if (kept == (uint64_t{1} << p)) { // carry into the next binade
            kept >>= 1;
            ++exp2;
            if (exp2 == 128)
                return signedInf(negative);
        }
        if (exp2 < -126) // rounded result is subnormal: flush
            return signedZero(negative);

        const auto exp_field = static_cast<uint16_t>(exp2 + 127);
        const auto mant = static_cast<uint16_t>(kept & 0x7F);
        return fromBits(static_cast<uint16_t>(
            (negative ? 0x8000 : 0x0000) | (exp_field << 7) | mant));
    }

    uint16_t bits_ = 0;
};

} // namespace pstat

#endif // PSTAT_CORE_BFLOAT16_HH
