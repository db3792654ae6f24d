/**
 * @file
 * Log-space binary64 arithmetic — the paper's baseline strategy.
 *
 * LogDouble stores ln(x) in a binary64 and implements the standard
 * log-space operation set: multiplication is addition of logs,
 * addition is the Log-Sum-Exp (LSE) of Equation (2), and the n-ary
 * LSE of Equation (3) is available for reduction-style sums. Only
 * non-negative values are representable (log-probabilities); invalid
 * operations produce NaN, mirroring software like Stan and LoFreq.
 */

#ifndef PSTAT_CORE_LOGSPACE_HH
#define PSTAT_CORE_LOGSPACE_HH

#include <cmath>
#include <span>
#include <string>

#include "bigfloat/bigfloat.hh"
#include "core/exp_kernel.hh"

namespace pstat
{

/**
 * Binary LSE on raw log values: log(exp(lx) + exp(ly)) computed
 * stably as max + log1p(exp(min - max)) (Equation 2).
 */
inline double
logSumExp(double lx, double ly)
{
    if (std::isinf(lx) && lx < 0)
        return ly;
    if (std::isinf(ly) && ly < 0)
        return lx;
    const double m = lx > ly ? lx : ly;
    const double other = lx > ly ? ly : lx;
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
 * forward (and backward) built on this function. The binary LSE
 * above, and with it every p-value, keeps libm.
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
 * A non-negative real number stored as its natural logarithm in
 * binary64. Drop-in scalar for the statistical kernels: operator*
 * adds logs, operator+ performs LSE.
 */
class LogDouble
{
  public:
    /** Constructs zero (log value -inf). */
    constexpr LogDouble() = default;

    /** From a linear-space value; negative input yields NaN. */
    static LogDouble
    fromDouble(double linear)
    {
        LogDouble out;
        out.ln_ = std::log(linear); // log(0) = -inf, log(<0) = NaN
        return out;
    }

    /** From an already-computed natural log. */
    static LogDouble
    fromLn(double ln_value)
    {
        LogDouble out;
        out.ln_ = ln_value;
        return out;
    }

    static LogDouble zero() { return fromLn(-INFINITY); }
    static LogDouble one() { return fromLn(0.0); }

    /** The stored natural logarithm. */
    double lnValue() const { return ln_; }

    bool isZero() const { return std::isinf(ln_) && ln_ < 0; }
    bool isNaN() const { return std::isnan(ln_); }

    /**
     * Back to linear space in binary64 — underflows for the very
     * values log-space exists to protect; use toBigFloat for exact
     * comparisons.
     */
    double toDouble() const { return std::exp(ln_); }

    /** Exact-ish (oracle-precision) linear value: exp(ln) in BigFloat. */
    BigFloat
    toBigFloat() const
    {
        if (isZero())
            return BigFloat::zero();
        if (isNaN())
            return BigFloat::nan();
        return BigFloat::exp(BigFloat::fromDouble(ln_));
    }

    /**
     * Convert from the oracle: ln computed at oracle precision, then
     * rounded to binary64 (exactly what "transform operands to
     * log-space in MPFR" does in the paper's methodology).
     */
    static LogDouble
    fromBigFloat(const BigFloat &value)
    {
        if (value.isZero())
            return zero();
        if (value.isNaN() || value.isNegative())
            return fromLn(std::nan(""));
        return fromLn(BigFloat::ln(value).toDouble());
    }

    friend LogDouble
    operator*(const LogDouble &a, const LogDouble &b)
    {
        if (a.isZero() || b.isZero())
            return zero(); // avoid -inf + inf pitfalls
        return fromLn(a.ln_ + b.ln_);
    }

    friend LogDouble
    operator+(const LogDouble &a, const LogDouble &b)
    {
        return fromLn(logSumExp(a.ln_, b.ln_));
    }

    friend LogDouble
    operator/(const LogDouble &a, const LogDouble &b)
    {
        if (a.isZero() && !b.isZero())
            return zero();
        return fromLn(a.ln_ - b.ln_);
    }

    LogDouble &operator*=(const LogDouble &o) { return *this = *this * o; }
    LogDouble &operator+=(const LogDouble &o) { return *this = *this + o; }
    LogDouble &operator/=(const LogDouble &o) { return *this = *this / o; }

    friend bool
    operator<(const LogDouble &a, const LogDouble &b)
    {
        return a.ln_ < b.ln_;
    }
    friend bool
    operator>(const LogDouble &a, const LogDouble &b)
    {
        return a.ln_ > b.ln_;
    }
    friend bool
    operator==(const LogDouble &a, const LogDouble &b)
    {
        return a.ln_ == b.ln_;
    }

    static std::string name() { return "log(binary64)"; }

  private:
    double ln_ = -INFINITY;
};

} // namespace pstat

#endif // PSTAT_CORE_LOGSPACE_HH
