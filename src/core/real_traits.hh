/**
 * @file
 * Uniform scalar-format adapter for the statistical kernels.
 *
 * Every kernel in src/hmm and src/pbd is a template over a scalar
 * type T; RealTraits<T> supplies construction, conversion to/from the
 * BigFloat oracle, and a display name. A format class — log-space
 * (LogSpace<F>), LNS, posits, bfloat16 — provides that interface as
 * its own members (the ScalarFormat concept), and the primary
 * RealTraits forwards to them. Only the types that cannot carry
 * members or keep their own conventions specialize it: the built-in
 * carriers binary64 and binary32, and the two oracles.
 */

#ifndef PSTAT_CORE_REAL_TRAITS_HH
#define PSTAT_CORE_REAL_TRAITS_HH

#include <concepts>
#include <string>

#include "bigfloat/bigfloat.hh"
#include "core/bfloat16.hh"
#include "core/binary32.hh"
#include "core/dd.hh"
#include "core/lns.hh"
#include "core/logspace.hh"
#include "core/posit.hh"

/**
 * @namespace pstat
 * Root namespace of the reproduction: number formats, statistical
 * kernels, the accuracy oracle, and the FPGA performance model.
 */
namespace pstat
{

/**
 * The interface a number-format class provides itself, as members:
 * - `T::name()` — display name, e.g. `"posit(64,18)"`;
 * - `T::zero()` / `T::one()` — additive and multiplicative identities;
 * - `T::fromDouble(double)` — the format's rounding of a binary64 value;
 * - `T::fromBigFloat(BigFloat)` / `v.toBigFloat()` — correctly rounded
 *   conversion from, and exact conversion to, the 256-bit oracle;
 * - `v.isZero()` / `v.isInvalid()` — underflow and NaR/NaN predicates
 *   used by the accuracy bookkeeping.
 *
 * A new format is a class that models this concept plus one line in
 * the engine's FormatRegistry.
 */
template <typename T>
concept ScalarFormat = requires(const T &v, double d, const BigFloat &b) {
    { T::name() } -> std::convertible_to<std::string>;
    { T::zero() } -> std::same_as<T>;
    { T::one() } -> std::same_as<T>;
    { T::fromDouble(d) } -> std::same_as<T>;
    { T::fromBigFloat(b) } -> std::same_as<T>;
    { v.toBigFloat() } -> std::same_as<BigFloat>;
    { v.isZero() } -> std::same_as<bool>;
    { v.isInvalid() } -> std::same_as<bool>;
};

/**
 * The scalar-format adapter the kernels are templated over: the
 * ScalarFormat interface as static functions, so kernels can name it
 * for built-in types too. This primary template forwards to a format
 * class's own members; double, float, ScaledDD and BigFloat are
 * specialized below with the same static interface.
 */
template <typename T>
struct RealTraits
{
    static_assert(ScalarFormat<T>,
                  "a number format provides the ScalarFormat members");

    /** Display name. */
    static std::string name() { return T::name(); }
    // zero, one and fromDouble are always inlined: the SoA tiles call
    // them from -mavx2 translation units (see LogSpace's members in
    // core/logspace.hh).
    /** Additive identity. */
    [[gnu::always_inline]] static T zero() { return T::zero(); }
    /** Multiplicative identity. */
    [[gnu::always_inline]] static T one() { return T::one(); }
    /** The format's rounding of a binary64 value. */
    [[gnu::always_inline]] static T
    fromDouble(double v)
    {
        return T::fromDouble(v);
    }
    /** Correctly rounded conversion from the oracle. */
    static T fromBigFloat(const BigFloat &v) { return T::fromBigFloat(v); }
    /** Exact conversion to the oracle. */
    static BigFloat toBigFloat(const T &v) { return v.toBigFloat(); }
    /** True for the format's zero (an underflowed result). */
    static bool isZero(const T &v) { return v.isZero(); }
    /** True for the format's NaN or NaR. */
    static bool isInvalid(const T &v) { return v.isInvalid(); }
};

/** IEEE binary64 — the hardware baseline format. */
template <>
struct RealTraits<double>
{
    /** Display name. */
    static std::string name() { return "binary64"; }
    /** Additive identity. */
    static double zero() { return 0.0; }
    /** Multiplicative identity. */
    static double one() { return 1.0; }
    /** Identity conversion. */
    static double fromDouble(double v) { return v; }
    /** Correctly rounded conversion from the oracle. */
    static double fromBigFloat(const BigFloat &v) { return v.toDouble(); }
    /** Exact conversion to the oracle. */
    static BigFloat toBigFloat(double v) { return BigFloat::fromDouble(v); }
    /** True when the value is (+/-) zero. */
    static bool isZero(double v) { return v == 0.0; }
    /** True for NaN. */
    static bool isInvalid(double v) { return v != v; }
};

/**
 * IEEE binary32 — the cheap linear-domain format of the
 * reduced-precision tier (24 significand bits, underflow at 2^-149).
 */
template <>
struct RealTraits<float>
{
    /** Display name. */
    static std::string name() { return "binary32"; }
    /** Additive identity. */
    static float zero() { return 0.0f; }
    /** Multiplicative identity. */
    static float one() { return 1.0f; }
    /** The binary32 rounding of a binary64 value (single RNE cast). */
    static float fromDouble(double v) { return static_cast<float>(v); }
    /** Correctly rounded conversion from the oracle (single RNE). */
    static float fromBigFloat(const BigFloat &v)
    {
        return binary32FromBigFloat(v);
    }
    /** Exact conversion to the oracle. */
    static BigFloat toBigFloat(float v)
    {
        return BigFloat::fromDouble(static_cast<double>(v));
    }
    /** True when the value is (+/-) zero. */
    static bool isZero(float v) { return v == 0.0f; }
    /** True for NaN. */
    static bool isInvalid(float v) { return v != v; }
};

/** Scaled double-double — the fast oracle (~31 significant digits). */
template <>
struct RealTraits<ScaledDD>
{
    /** Display name. */
    static std::string name() { return "scaled-dd (oracle)"; }
    /** Additive identity. */
    static ScaledDD zero() { return ScaledDD::zero(); }
    /** Multiplicative identity. */
    static ScaledDD one() { return ScaledDD::one(); }
    /** Exact conversion from binary64. */
    static ScaledDD fromDouble(double v) { return ScaledDD(v); }
    /** Split an oracle value into scaled hi/lo doubles. */
    static ScaledDD
    fromBigFloat(const BigFloat &v)
    {
        if (v.isZero())
            return ScaledDD::zero();
        const int64_t e = v.exponent();
        const BigFloat scaled = v * BigFloat::twoPow(-e);
        const double hi = scaled.toDouble();
        const double lo = (scaled - BigFloat::fromDouble(hi)).toDouble();
        return ScaledDD(DD(hi, lo), e);
    }
    /** Exact conversion to the 256-bit oracle. */
    static BigFloat toBigFloat(const ScaledDD &v)
    {
        return v.toBigFloat();
    }
    /** True for zero. */
    static bool isZero(const ScaledDD &v) { return v.isZero(); }
    /** True when the mantissa is NaN. */
    static bool isInvalid(const ScaledDD &v)
    {
        return v.mant.hi != v.mant.hi;
    }
};

/** The 256-bit BigFloat itself (the reference oracle). */
template <>
struct RealTraits<BigFloat>
{
    /** Display name. */
    static std::string name() { return "bigfloat256 (oracle)"; }
    /** Additive identity. */
    static BigFloat zero() { return BigFloat::zero(); }
    /** Multiplicative identity. */
    static BigFloat one() { return BigFloat::one(); }
    /** Exact conversion from binary64. */
    static BigFloat fromDouble(double v) { return BigFloat::fromDouble(v); }
    /** Identity conversion. */
    static BigFloat fromBigFloat(const BigFloat &v) { return v; }
    /** Identity conversion. */
    static BigFloat toBigFloat(const BigFloat &v) { return v; }
    /** True for zero. */
    static bool isZero(const BigFloat &v) { return v.isZero(); }
    /** True for NaN. */
    static bool isInvalid(const BigFloat &v) { return v.isNaN(); }
};

} // namespace pstat

#endif // PSTAT_CORE_REAL_TRAITS_HH
