/**
 * @file
 * Log-space arithmetic — the paper's baseline strategy, over a binary64
 * or a binary32 carrier.
 *
 * LogSpace<F> stores ln(x) in the IEEE type F and implements the
 * standard log-space operation set: multiplication is addition of
 * logs, addition is the Log-Sum-Exp (LSE) of Equation (2), and the
 * n-ary LSE of Equation (3) is available for reduction-style sums.
 * Every intermediate stays in F. Only non-negative values are
 * representable (log-probabilities); invalid operations produce NaN,
 * mirroring software like Stan and LoFreq.
 *
 * In binary64 the exps and the log1p of the LSEs are the in-house
 * kernels of core/exp_kernel.hh, each within 1 ulp, which the SIMD
 * tiles run per lane, so scalar and vector LogDouble arithmetic agree
 * bit for bit. Input conversion (fromDouble) and the n-ary LSE's
 * final log keep libm, and so does every binary32 operation.
 *
 * LogDouble (binary64) is the paper's software baseline. LogFloat
 * (binary32) is the cheap end of the strategy: its range is
 * effectively unbounded for probability work (ln values near -2e6 sit
 * comfortably inside float's +-3.4e38), but precision is capped at 24
 * significand bits, so the absolute error of the stored ln — and with
 * it the relative error of the represented value — grows linearly with
 * |ln(x)|. It never underflows where linear 32-bit formats die, yet
 * deep likelihoods keep only a few correct decimal digits.
 */

#ifndef PSTAT_CORE_LOGSPACE_HH
#define PSTAT_CORE_LOGSPACE_HH

#include <cmath>
#include <concepts>
#include <limits>
#include <span>
#include <string>
#include <type_traits>

#include "bigfloat/bigfloat.hh"
#include "core/binary32.hh"
#include "core/exp_kernel.hh"

namespace pstat
{

/**
 * Binary LSE on raw binary64 log values: log(exp(lx) + exp(ly))
 * computed stably as max + log1p(exp(min - max)) (Equation 2). It is
 * the one-lane simd::logSumExp (core/exp_kernel.hh), on the in-house
 * exp and log1p kernels, so every scalar LogDouble add and the lanes
 * of the `log` p-value tile (pbd/pbd_simd_tile.hh) return the same
 * bits. An operand of -inf returns the other operand.
 */
inline double
logSumExp(double lx, double ly)
{
    return simd::logSumExp(lx, ly);
}

/**
 * The binary LSE in binary32, every intermediate in float, on libm's
 * exp and log1p: no vector tile runs this carrier.
 */
inline float
logSumExp(float lx, float ly)
{
    if (std::isinf(lx) && lx < 0)
        return ly;
    if (std::isinf(ly) && ly < 0)
        return lx;
    const float m = lx > ly ? lx : ly;
    const float other = lx > ly ? ly : lx;
    return m + std::log1p(std::exp(other - m));
}

/**
 * Naive log-space addition without the max trick (Equation 1); kept
 * for the ablation bench showing why LSE is required.
 */
inline double
logAddNaive(double lx, double ly)
{
    return std::log(std::exp(lx) + std::exp(ly));
}

/**
 * N-ary LSE (Equation 3), matching the accelerator's reduction: a
 * max pass (which skips NaN), then m + log(sum of exp(v - m)) in
 * index order. An empty or all--inf span is -inf, never NaN; a NaN
 * or +inf term makes the sum NaN.
 *
 * Its exp is the in-house simd::expKernel (core/exp_kernel.hh), not
 * libm: every v - m lies in [-inf, 0] or is NaN, the kernel's
 * domain, and hmm::forwardLogNarySimd's vector tile runs the same
 * kernel per lane, so it stays bit-identical to the scalar n-ary
 * forward (and backward) built on this function. Its final log
 * keeps libm, so the n-ary results do not depend on the log1p
 * kernel of the binary LSE above.
 */
inline double
logSumExp(std::span<const double> lvals)
{
    double m = -INFINITY;
    for (double v : lvals)
        m = v > m ? v : m;
    if (std::isinf(m) && m < 0)
        return -INFINITY;
    double sum = 0.0;
    for (double v : lvals)
        sum += simd::expKernel(v - m);
    return m + std::log(sum);
}

/**
 * The n-ary LSE in binary32 (Equation 3 in float hardware): the same
 * max pass and index-order sum as the binary64 overload, with libm's
 * float exp. No vector tile runs this carrier, so there is no
 * bit-identity partner to share a kernel with.
 */
inline float
logSumExp(std::span<const float> lvals)
{
    float m = -std::numeric_limits<float>::infinity();
    for (float v : lvals)
        m = v > m ? v : m;
    if (std::isinf(m) && m < 0)
        return m;
    float sum = 0.0f;
    for (float v : lvals)
        sum += std::exp(v - m);
    return m + std::log(sum);
}

/**
 * A non-negative real number stored as its natural logarithm in the
 * IEEE carrier F (double or float). Drop-in scalar for the
 * statistical kernels: operator* adds logs, operator+ performs the
 * binary LSE in F. It provides the ScalarFormat interface
 * (core/real_traits.hh) itself.
 */
template <std::floating_point F>
class LogSpace
{
    static_assert(std::is_same_v<F, double> || std::is_same_v<F, float>,
                  "LogSpace carries ln(x) in binary64 or binary32");

  public:
    /** Constructs zero (log value -inf). */
    constexpr LogSpace() = default;

    /*
     * The members the `log` p-value tile and row kernel call
     * (fromDouble, fromLn, zero, one, lnValue) are always inlined:
     * those kernels are also built into an -mavx2 translation unit,
     * and an out-of-line copy emitted there would share its name with
     * every other unit's copy, so the linker could hand the AVX2 one
     * to callers on hosts without AVX2.
     */

    /**
     * From a linear-space value: ln taken in binary64, then rounded
     * once to F — how software converts inputs at load time with a
     * good libm. log(0) = -inf; negative input yields NaN.
     */
    [[gnu::always_inline]] static LogSpace
    fromDouble(double linear)
    {
        return fromLn(static_cast<F>(std::log(linear)));
    }

    /** From an already-computed natural log. */
    [[gnu::always_inline]] static LogSpace
    fromLn(F ln_value)
    {
        LogSpace out;
        out.ln_ = ln_value;
        return out;
    }

    [[gnu::always_inline]] static LogSpace
    zero()
    {
        return fromLn(-std::numeric_limits<F>::infinity());
    }
    [[gnu::always_inline]] static LogSpace one() { return fromLn(F(0)); }

    /** The stored natural logarithm. */
    [[gnu::always_inline]] F lnValue() const { return ln_; }

    bool isZero() const { return std::isinf(ln_) && ln_ < 0; }
    bool isNaN() const { return std::isnan(ln_); }
    /**
     * The format's invalid predicate: a NaN log, which negative or
     * invalid operands produce.
     */
    bool isInvalid() const { return isNaN(); }

    /**
     * Back to linear space in binary64 — underflows for the very
     * values log-space exists to protect; use toBigFloat for exact
     * comparisons.
     */
    double toDouble() const { return std::exp(static_cast<double>(ln_)); }

    /** Exact-ish (oracle-precision) linear value: exp(ln) in BigFloat. */
    BigFloat
    toBigFloat() const
    {
        if (isZero())
            return BigFloat::zero();
        if (isNaN())
            return BigFloat::nan();
        return BigFloat::exp(
            BigFloat::fromDouble(static_cast<double>(ln_)));
    }

    /**
     * Convert from the oracle: ln computed at oracle precision, then
     * rounded once to F through the carrier's own conversion (exactly
     * what "transform operands to log-space in MPFR" does in the
     * paper's methodology). binary32 rounds directly from the oracle:
     * going through binary64 first could land on a binary32 tie.
     */
    static LogSpace
    fromBigFloat(const BigFloat &value)
    {
        if (value.isZero())
            return zero();
        if (value.isNaN() || value.isNegative())
            return fromLn(std::numeric_limits<F>::quiet_NaN());
        const BigFloat ln = BigFloat::ln(value);
        if constexpr (std::is_same_v<F, float>)
            return fromLn(binary32FromBigFloat(ln));
        else
            return fromLn(ln.toDouble());
    }

    friend LogSpace
    operator*(const LogSpace &a, const LogSpace &b)
    {
        if (a.isZero() || b.isZero())
            return zero(); // avoid -inf + inf pitfalls
        return fromLn(a.ln_ + b.ln_);
    }

    friend LogSpace
    operator+(const LogSpace &a, const LogSpace &b)
    {
        return fromLn(logSumExp(a.ln_, b.ln_));
    }

    friend LogSpace
    operator/(const LogSpace &a, const LogSpace &b)
    {
        if (a.isZero() && !b.isZero())
            return zero();
        return fromLn(a.ln_ - b.ln_);
    }

    LogSpace &operator*=(const LogSpace &o) { return *this = *this * o; }
    LogSpace &operator+=(const LogSpace &o) { return *this = *this + o; }
    LogSpace &operator/=(const LogSpace &o) { return *this = *this / o; }

    friend bool
    operator<(const LogSpace &a, const LogSpace &b)
    {
        return a.ln_ < b.ln_;
    }
    friend bool
    operator>(const LogSpace &a, const LogSpace &b)
    {
        return a.ln_ > b.ln_;
    }
    friend bool
    operator==(const LogSpace &a, const LogSpace &b)
    {
        return a.ln_ == b.ln_;
    }

    /** Display name: "log(binary64)" or "log(binary32)". */
    static std::string
    name()
    {
        return std::is_same_v<F, double> ? "log(binary64)"
                                         : "log(binary32)";
    }

  private:
    F ln_ = -std::numeric_limits<F>::infinity();
};

/** Log-space binary64 — the paper's software baseline. */
using LogDouble = LogSpace<double>;

/** Log-space binary32 — the log strategy at the reduced tier. */
using LogFloat = LogSpace<float>;

} // namespace pstat

#endif // PSTAT_CORE_LOGSPACE_HH
