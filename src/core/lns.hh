/**
 * @file
 * Logarithmic Number System (LNS) scalar — the related-work format
 * of Section VII.
 *
 * LNS stores log2(x) in *fixed point* rather than floating point.
 * This implementation uses a 64-bit word: one zero flag plus a
 * signed Q24.39 fixed-point log2 value, giving a dynamic range of
 * ~2^±8.3M (wider than posit(64,18)) with a constant 39 fraction
 * bits of log-domain precision.
 *
 * The paper's argument, which this class lets you measure: at
 * 16-bit widths LNS addition is a table lookup of the Gaussian log
 * log2(1 + 2^d), but at 64-bit widths such tables are impossible
 * (2^63 entries), so hardware must build the same expensive log/exp
 * function units as the LSE datapath — while precision stays capped
 * at the fraction width. Here addition evaluates the Gaussian log in
 * binary64 (53-bit intermediate, more than the 39 fixed-point
 * fraction bits kept), which models an ideal 64-bit LNS adder.
 *
 * Like LogDouble, LNS here represents non-negative values only
 * (log-probabilities); invalid operations produce NaN.
 */

#ifndef PSTAT_CORE_LNS_HH
#define PSTAT_CORE_LNS_HH

#include <cmath>
#include <cstdint>
#include <string>

#include "bigfloat/bigfloat.hh"

namespace pstat
{

/** A non-negative real stored as fixed-point log2 (Q24.39). */
class Lns64
{
  public:
    /** Fraction bits of the fixed-point log2 value. */
    static constexpr int fraction_bits = 39;
    static constexpr double scale_factor =
        static_cast<double>(int64_t{1} << fraction_bits);

    /** Constructs zero. */
    constexpr Lns64() = default;

    static Lns64
    fromDouble(double linear)
    {
        if (linear == 0.0)
            return zero();
        if (linear < 0.0 || std::isnan(linear))
            return nan();
        return fromLog2(std::log2(linear));
    }

    /** From a real-valued log2 (quantized to Q24.39). */
    static Lns64
    fromLog2(double log2_value)
    {
        Lns64 out;
        if (std::isnan(log2_value)) {
            out.state_ = State::NaN;
            return out;
        }
        out.state_ = State::Finite;
        out.fixed_ = static_cast<int64_t>(
            std::llround(log2_value * scale_factor));
        return out;
    }

    static Lns64 zero() { return Lns64(); }
    static Lns64
    one()
    {
        Lns64 out;
        out.state_ = State::Finite;
        out.fixed_ = 0;
        return out;
    }
    static Lns64
    nan()
    {
        Lns64 out;
        out.state_ = State::NaN;
        return out;
    }

    bool isZero() const { return state_ == State::Zero; }
    bool isNaN() const { return state_ == State::NaN; }
    /** The format's invalid predicate (ScalarFormat): NaN. */
    bool isInvalid() const { return isNaN(); }

    /** The stored log2 value as a double. */
    double
    log2Value() const
    {
        return static_cast<double>(fixed_) / scale_factor;
    }

    /** Raw fixed-point word (for tests). */
    int64_t fixedBits() const { return fixed_; }

    double
    toDouble() const
    {
        if (isZero())
            return 0.0;
        if (isNaN())
            return std::nan("");
        return std::exp2(log2Value());
    }

    BigFloat
    toBigFloat() const
    {
        if (isZero())
            return BigFloat::zero();
        if (isNaN())
            return BigFloat::nan();
        // 2^(i + f) = 2^i * exp(f * ln2) with the integer part split
        // off exactly, so deep exponents never overflow the oracle.
        const double l2 = log2Value();
        const double ipart = std::floor(l2);
        const double frac = l2 - ipart;
        return BigFloat::exp(BigFloat::fromDouble(frac) *
                             BigFloat::ln2()) *
               BigFloat::twoPow(static_cast<int64_t>(ipart));
    }

    static Lns64
    fromBigFloat(const BigFloat &value)
    {
        if (value.isZero())
            return zero();
        if (value.isNaN() || value.isNegative())
            return nan();
        return fromLog2(value.log2Abs());
    }

    /** Multiplication: exact fixed-point addition of logs. */
    friend Lns64
    operator*(const Lns64 &a, const Lns64 &b)
    {
        if (a.isNaN() || b.isNaN())
            return nan();
        if (a.isZero() || b.isZero())
            return zero();
        Lns64 out;
        out.state_ = State::Finite;
        out.fixed_ = a.fixed_ + b.fixed_;
        return out;
    }

    friend Lns64
    operator/(const Lns64 &a, const Lns64 &b)
    {
        if (a.isNaN() || b.isNaN() || b.isZero())
            return nan();
        if (a.isZero())
            return zero();
        Lns64 out;
        out.state_ = State::Finite;
        out.fixed_ = a.fixed_ - b.fixed_;
        return out;
    }

    /**
     * Addition via the Gaussian log: la + log2(1 + 2^(lb - la)) with
     * la the larger operand. The correction term is in [0, 1], so
     * fixed-point quantization error is bounded by 2^-40.
     */
    friend Lns64
    operator+(const Lns64 &a, const Lns64 &b)
    {
        if (a.isNaN() || b.isNaN())
            return nan();
        if (a.isZero())
            return b;
        if (b.isZero())
            return a;
        const Lns64 &hi = a.fixed_ >= b.fixed_ ? a : b;
        const Lns64 &lo = a.fixed_ >= b.fixed_ ? b : a;
        const double d =
            static_cast<double>(lo.fixed_ - hi.fixed_) / scale_factor;
        // log2(1 + 2^d) for d <= 0; below ~-45 the correction
        // quantizes to zero anyway.
        const double correction =
            d < -64.0 ? 0.0 : std::log1p(std::exp2(d)) / M_LN2;
        Lns64 out;
        out.state_ = State::Finite;
        out.fixed_ = hi.fixed_ +
                     static_cast<int64_t>(
                         std::llround(correction * scale_factor));
        return out;
    }

    Lns64 &operator*=(const Lns64 &o) { return *this = *this * o; }
    Lns64 &operator+=(const Lns64 &o) { return *this = *this + o; }
    Lns64 &operator/=(const Lns64 &o) { return *this = *this / o; }

    friend bool
    operator<(const Lns64 &a, const Lns64 &b)
    {
        if (a.isZero())
            return !b.isZero();
        if (b.isZero())
            return false;
        return a.fixed_ < b.fixed_;
    }
    friend bool
    operator==(const Lns64 &a, const Lns64 &b)
    {
        return a.state_ == b.state_ && a.fixed_ == b.fixed_;
    }

    static std::string name() { return "lns64 (Q24.39)"; }

  private:
    enum class State : uint8_t { Zero, Finite, NaN };

    int64_t fixed_ = 0;
    State state_ = State::Zero;
};

} // namespace pstat

#endif // PSTAT_CORE_LNS_HH
