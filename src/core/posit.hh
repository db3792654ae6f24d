/**
 * @file
 * Software posit arithmetic, the paper's primary subject.
 *
 * Posit<N, ES> implements Gustafson-style posits (arXiv 1711.xx /
 * Posit Standard 2022 semantics) for any width N in [3, 64] and any
 * exponent-field size ES in [0, 24], which covers every configuration
 * the paper studies: posit(64,6) ... posit(64,21). All operations are
 * exact-then-round: operands are decoded to (sign, scale, 64-bit
 * significand), combined with 128-bit intermediates, and re-encoded
 * with round-to-nearest-even at the posit cut point. Because posit
 * bit patterns are monotone in value, rounding carries propagate
 * correctly from fraction into exponent and regime.
 *
 * Special values follow the posit standard: a single 0, a single NaR
 * (1 followed by zeros); no subnormals, no signed zero. Values beyond
 * +-maxpos clamp to +-maxpos, nonzero values below minpos clamp to
 * minpos (never to zero). Comparison is the standard's total order
 * (two's-complement integer order), with NaR smallest and
 * NaR == NaR true.
 */

#ifndef PSTAT_CORE_POSIT_HH
#define PSTAT_CORE_POSIT_HH

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>

#include "bigfloat/bigfloat.hh"

namespace pstat
{

/**
 * An N-bit posit with at most ES exponent bits.
 *
 * @tparam N  total width in bits, 3..64
 * @tparam ES maximum exponent field width, 0..24
 */
template <int N, int ES>
class Posit
{
    static_assert(N >= 3 && N <= 64, "posit width must be 3..64");
    static_assert(ES >= 0 && ES <= 24, "ES must be 0..24");

  public:
    /** Total bit width. */
    static constexpr int nbits = N;
    /** Maximum exponent field width. */
    static constexpr int es = ES;
    /** log2(useed) = 2^ES: scale contribution of one regime step. */
    static constexpr int64_t useed_log2 = int64_t{1} << ES;
    /** Largest base-2 scale: maxpos = 2^scale_max. */
    static constexpr int64_t scale_max = int64_t{N - 2} << ES;
    /** Smallest base-2 scale: minpos = 2^scale_min. */
    static constexpr int64_t scale_min = -scale_max;
    /** Maximum number of fraction bits any encoding can carry. */
    static constexpr int max_fraction_bits =
        (N - 3 - ES) > 0 ? (N - 3 - ES) : 0;

    /** Constructs zero. */
    constexpr Posit() = default;

    /** @name Bit-level access */
    /// @{
    /** Reinterpret a raw N-bit pattern (low N bits of raw). */
    static constexpr Posit
    fromBits(uint64_t raw)
    {
        Posit p;
        p.bits_ = signExtend(raw & patternMask());
        return p;
    }

    /** The N-bit pattern, zero-extended into a uint64_t. */
    constexpr uint64_t
    bits() const
    {
        return static_cast<uint64_t>(bits_) & patternMask();
    }
    /// @}

    /** @name Special values */
    /// @{
    static constexpr Posit zero() { return Posit(); }
    static constexpr Posit nar()
    {
        return fromBits(uint64_t{1} << (N - 1));
    }
    static constexpr Posit one()
    {
        return fromBits(uint64_t{1} << (N - 2));
    }
    static constexpr Posit maxpos()
    {
        return fromBits((uint64_t{1} << (N - 1)) - 1);
    }
    static constexpr Posit minpos() { return fromBits(1); }

    constexpr bool isZero() const { return bits_ == 0; }
    constexpr bool isNaR() const
    {
        return bits() == (uint64_t{1} << (N - 1));
    }
    constexpr bool isNegative() const { return bits_ < 0 && !isNaR(); }
    /** The format's invalid predicate (ScalarFormat): NaR. */
    constexpr bool isInvalid() const { return isNaR(); }
    /// @}

    /**
     * Exact decoded form: value = (-1)^negative * sig * 2^(scale-63)
     * with the 64-bit significand's MSB set (so sig/2^63 is the
     * 1.fraction significand in [1, 2)).
     */
    struct Unpacked
    {
        bool negative;
        int64_t scale;
        uint64_t sig;
    };

    /** Decode a finite nonzero posit exactly. */
    constexpr Unpacked
    unpack() const
    {
        assert(!isZero() && !isNaR());
        Unpacked u;
        uint64_t pattern = bits();
        u.negative = (pattern >> (N - 1)) & 1;
        if (u.negative)
            pattern = (0 - pattern) & patternMask();

        // Left-align the N-1 magnitude bits in a 64-bit word.
        const uint64_t body = pattern & (patternMask() >> 1);
        const uint64_t x = body << (64 - (N - 1));

        const bool regime_one = (x >> 63) & 1;
        const int run =
            regime_one ? countLeadingOnes(x) : countLeadingZeros(x);
        const int64_t k = regime_one ? run - 1 : -run;
        const int consumed = run + 1 <= N - 1 ? run + 1 : N - 1;

        const int rem = (N - 1) - consumed;
        const int e_bits = rem < ES ? rem : ES;
        const uint64_t x2 = shiftLeft(x, consumed);
        // Missing low exponent bits are treated as zero (standard).
        const uint64_t e_field =
            e_bits == 0 ? 0 : (x2 >> (64 - e_bits)) << (ES - e_bits);
        const uint64_t x3 = shiftLeft(x2, e_bits);

        u.scale = k * useed_log2 + static_cast<int64_t>(e_field);
        u.sig = (uint64_t{1} << 63) | (x3 >> 1);
        return u;
    }

    /**
     * Encode with correct RNE rounding.
     *
     * @param negative sign of the value
     * @param scale    base-2 exponent (value = sig * 2^(scale-63))
     * @param sig      64-bit significand, MSB set; 0 encodes zero
     * @param sticky   true if the true value has any nonzero bits
     *                 below sig's LSB
     */
    static constexpr Posit
    pack(bool negative, int64_t scale, uint64_t sig, bool sticky)
    {
        if (sig == 0)
            return zero();
        assert((sig >> 63) == 1 && "significand must be normalized");

        // Saturation per the posit standard: no rounding to 0 or NaR.
        if (scale >= scale_max)
            return negative ? -maxpos() : maxpos();
        if (scale < scale_min)
            return negative ? -minpos() : minpos();

        const int64_t k = scale >> ES; // floor division
        const auto e =
            static_cast<uint64_t>(scale - (k << ES)); // 0..2^ES-1

        // Assemble regime | exponent | fraction left-aligned in a
        // 128-bit window; bits pushed past the window feed sticky.
        U128 window = 0;
        int used = 0;
        bool stk = sticky;
        auto append = [&window, &used, &stk](uint64_t value, int width) {
            if (width <= 0)
                return;
            const int shift = 128 - used - width;
            if (shift >= 0) {
                window |= static_cast<U128>(value) << shift;
            } else {
                const int drop = -shift;
                if (drop >= width) {
                    stk = stk || value != 0;
                } else {
                    window |= static_cast<U128>(value) >> drop;
                    stk = stk ||
                          (value & ((uint64_t{1} << drop) - 1)) != 0;
                }
            }
            used += width;
        };

        if (k >= 0) {
            const int run = static_cast<int>(k) + 1; // <= N-2 <= 62
            append((~uint64_t{0}) >> (64 - run), run);
            append(0, 1);
        } else {
            const int run = static_cast<int>(-k); // <= N-2
            append(0, run);
            append(1, 1);
        }
        append(e, ES);
        append(sig & ((uint64_t{1} << 63) - 1), 63);

        // Cut at N-1 bits; round to nearest, ties to even pattern.
        auto body =
            static_cast<uint64_t>(window >> (128 - (N - 1)));
        const bool guard = ((window >> (128 - N)) & 1) != 0;
        const bool lower =
            (window & ((static_cast<U128>(1) << (128 - N)) - 1)) != 0 ||
            stk;
        if (guard && (lower || (body & 1)))
            body += 1; // cannot overflow past maxpos (see above clamp)

        uint64_t pattern = body;
        if (negative)
            pattern = (0 - pattern) & patternMask();
        return fromBits(pattern);
    }

    /** @name Conversions */
    /// @{
    static Posit
    fromDouble(double value)
    {
        if (std::isnan(value) || std::isinf(value))
            return nar();
        if (value == 0.0)
            return zero();
        int e = 0;
        const double frac = std::frexp(std::fabs(value), &e);
        const auto sig53 =
            static_cast<uint64_t>(std::ldexp(frac, 53));
        return pack(std::signbit(value), e - 1, sig53 << 11, false);
    }

    /**
     * Round to nearest double. Exact for every posit whose value fits
     * a normal double; values in double's subnormal range may be
     * double-rounded (documented; the accuracy harness uses
     * toBigFloat, which is exact).
     */
    double
    toDouble() const
    {
        if (isZero())
            return 0.0;
        if (isNaR())
            return std::numeric_limits<double>::quiet_NaN();
        const Unpacked u = unpack();
        const double mag =
            std::ldexp(static_cast<double>(u.sig),
                       static_cast<int>(u.scale) - 63);
        return u.negative ? -mag : mag;
    }

    /** Exact conversion to the oracle format. */
    BigFloat
    toBigFloat() const
    {
        if (isZero())
            return BigFloat::zero();
        if (isNaR())
            return BigFloat::nan();
        const Unpacked u = unpack();
        return BigFloat::fromSig64(u.negative, u.scale, u.sig);
    }

    /** Correctly rounded conversion from the oracle format. */
    static Posit
    fromBigFloat(const BigFloat &value)
    {
        if (value.isNaN())
            return nar();
        if (value.isZero())
            return zero();
        const BigFloat::Top64 t = value.top64();
        return pack(t.negative, t.exp2, t.sig, t.sticky);
    }
    /// @}

    /** @name Arithmetic */
    /// @{
    friend Posit
    operator+(const Posit &a, const Posit &b)
    {
        if (a.isNaR() || b.isNaR())
            return nar();
        if (a.isZero())
            return b;
        if (b.isZero())
            return a;

        const Unpacked ua = a.unpack();
        const Unpacked ub = b.unpack();

        // Order by magnitude so the subtract path cannot go negative.
        const bool a_is_hi =
            ua.scale != ub.scale ? ua.scale > ub.scale
                                 : ua.sig >= ub.sig;
        const Unpacked &hi = a_is_hi ? ua : ub;
        const Unpacked &lo = a_is_hi ? ub : ua;

        const int64_t diff = hi.scale - lo.scale;
        U128 acc = static_cast<U128>(hi.sig) << 64;
        U128 small = static_cast<U128>(lo.sig) << 64;
        bool sticky = false;
        if (diff >= 128) {
            small = 0;
            sticky = true;
        } else if (diff > 0) {
            const U128 dropped =
                small & ((static_cast<U128>(1) << diff) - 1);
            sticky = dropped != 0;
            small >>= diff;
        }

        bool negative = hi.negative;
        int64_t scale = hi.scale;
        if (ua.negative == ub.negative) {
            const U128 before = acc;
            acc += small;
            if (acc < before) { // carry out of bit 127
                sticky = sticky || (acc & 1) != 0;
                acc = (acc >> 1) | (static_cast<U128>(1) << 127);
                scale += 1;
            }
        } else {
            acc -= small;
            if (sticky) {
                // True subtrahend was larger than its truncation:
                // borrow one and let sticky mark the in-between value.
                acc -= 1;
            }
            if (acc == 0)
                return zero(); // sticky cannot be set here (diff<65)
            const int lz = countLeadingZeros128(acc);
            acc <<= lz;
            scale -= lz;
        }

        const auto sig = static_cast<uint64_t>(acc >> 64);
        sticky = sticky || static_cast<uint64_t>(acc) != 0;
        return pack(negative, scale, sig, sticky);
    }

    friend Posit
    operator-(const Posit &a, const Posit &b)
    {
        return a + (-b);
    }

    friend Posit
    operator*(const Posit &a, const Posit &b)
    {
        if (a.isNaR() || b.isNaR())
            return nar();
        if (a.isZero() || b.isZero())
            return zero();

        const Unpacked ua = a.unpack();
        const Unpacked ub = b.unpack();
        const U128 prod = static_cast<U128>(ua.sig) * ub.sig;
        const bool negative = ua.negative != ub.negative;

        int64_t scale = ua.scale + ub.scale;
        uint64_t sig = 0;
        bool sticky = false;
        if ((prod >> 127) != 0) {
            sig = static_cast<uint64_t>(prod >> 64);
            sticky = static_cast<uint64_t>(prod) != 0;
            scale += 1;
        } else {
            sig = static_cast<uint64_t>(prod >> 63);
            sticky = (static_cast<uint64_t>(prod) &
                      ((uint64_t{1} << 63) - 1)) != 0;
        }
        return pack(negative, scale, sig, sticky);
    }

    friend Posit
    operator/(const Posit &a, const Posit &b)
    {
        if (a.isNaR() || b.isNaR() || b.isZero())
            return nar();
        if (a.isZero())
            return zero();

        const Unpacked ua = a.unpack();
        const Unpacked ub = b.unpack();
        const bool negative = ua.negative != ub.negative;

        const U128 num = static_cast<U128>(ua.sig) << 64;
        const U128 q = num / ub.sig;
        const bool rem = (num % ub.sig) != 0;

        // sigA/sigB in (1/2, 2) => q in (2^63, 2^65).
        int64_t scale = ua.scale - ub.scale;
        uint64_t sig = 0;
        bool sticky = rem;
        if ((q >> 64) != 0) {
            sig = static_cast<uint64_t>(q >> 1);
            sticky = sticky || (q & 1) != 0;
        } else {
            sig = static_cast<uint64_t>(q);
            scale -= 1;
        }
        return pack(negative, scale, sig, sticky);
    }

    /**
     * Correctly rounded square root. NaR for negative input or NaR;
     * exact integer square root of the significand with a sticky
     * remainder, so rounding is a true RNE of the infinite result.
     */
    static Posit
    sqrt(const Posit &x)
    {
        if (x.isNaR() || x.isNegative())
            return nar();
        if (x.isZero())
            return zero();
        const Unpacked u = x.unpack();
        const int64_t e = u.scale;
        const int odd = static_cast<int>(e & 1);
        // value = sig * 2^(e-63); fold parity into the radicand so
        // the remaining exponent is even: isqrt(sig << (63+odd)).
        const U128 radicand = static_cast<U128>(u.sig) << (63 + odd);

        // Newton from a double seed, then exact floor adjustment.
        auto q = static_cast<uint64_t>(std::sqrt(
            std::ldexp(static_cast<double>(u.sig), 63 + odd - 64) *
            18446744073709551616.0));
        for (int i = 0; i < 4; ++i) {
            const uint64_t div =
                static_cast<uint64_t>(radicand / q);
            q = (q >> 1) + (div >> 1) + (q & div & 1);
        }
        while (static_cast<U128>(q) * q > radicand)
            --q;
        while (static_cast<U128>(q + 1) * (q + 1) <= radicand)
            ++q;
        const bool sticky = static_cast<U128>(q) * q != radicand;

        // q = floor(sqrt(value) * 2^63) with q in [2^63, 2^64).
        return pack(false, (e - odd) >> 1, q, sticky);
    }

    /**
     * Fused multiply-add: a * b + c with a single rounding at the
     * end (the exact 128-bit product is aligned against c before
     * any rounding happens).
     */
    static Posit
    fma(const Posit &a, const Posit &b, const Posit &c)
    {
        if (a.isNaR() || b.isNaR() || c.isNaR())
            return nar();
        if (a.isZero() || b.isZero())
            return c;

        const Unpacked ua = a.unpack();
        const Unpacked ub = b.unpack();
        U128 prod = static_cast<U128>(ua.sig) * ub.sig;
        int64_t scale_p = ua.scale + ub.scale;
        if ((prod >> 127) != 0)
            scale_p += 1;
        else
            prod <<= 1; // normalize: top bit at 127
        const bool neg_p = ua.negative != ub.negative;

        if (c.isZero()) {
            const auto sig = static_cast<uint64_t>(prod >> 64);
            const bool sticky = static_cast<uint64_t>(prod) != 0;
            return pack(neg_p, scale_p, sig, sticky);
        }

        const Unpacked uc = c.unpack();
        const U128 caug = static_cast<U128>(uc.sig) << 64;

        // Order by magnitude (both normalized with bit 127 set).
        const bool prod_is_hi =
            scale_p != uc.scale ? scale_p > uc.scale : prod >= caug;
        U128 acc = prod_is_hi ? prod : caug;
        U128 small = prod_is_hi ? caug : prod;
        const bool neg_hi = prod_is_hi ? neg_p : uc.negative;
        const bool neg_lo = prod_is_hi ? uc.negative : neg_p;
        int64_t scale =
            prod_is_hi ? scale_p : uc.scale;
        const int64_t diff =
            prod_is_hi ? scale_p - uc.scale : uc.scale - scale_p;

        bool sticky = false;
        if (diff >= 128) {
            small = 0;
            sticky = true;
        } else if (diff > 0) {
            const U128 dropped =
                small & ((static_cast<U128>(1) << diff) - 1);
            sticky = dropped != 0;
            small >>= diff;
        }

        if (neg_hi == neg_lo) {
            const U128 before = acc;
            acc += small;
            if (acc < before) {
                sticky = sticky || (acc & 1) != 0;
                acc = (acc >> 1) | (static_cast<U128>(1) << 127);
                scale += 1;
            }
        } else {
            acc -= small;
            if (sticky) {
                // Bits of the 128-bit product were shifted out before
                // the subtraction. If the subtraction also cancelled
                // the top bits, those lost bits decide the result:
                // recompute exactly (cancellation beyond one bit
                // implies the scales differed by at most one, so the
                // exact difference fits the 256-bit oracle).
                if (acc < (static_cast<U128>(1) << 126)) {
                    return fromBigFloat(a.toBigFloat() *
                                            b.toBigFloat() +
                                        c.toBigFloat());
                }
                acc -= 1;
            }
            if (acc == 0)
                return zero();
            const int lz = countLeadingZeros128(acc);
            acc <<= lz;
            scale -= lz;
        }

        const auto sig = static_cast<uint64_t>(acc >> 64);
        sticky = sticky || static_cast<uint64_t>(acc) != 0;
        return pack(neg_hi, scale, sig, sticky);
    }

    constexpr Posit
    operator-() const
    {
        // Two's-complement negation; fixes NaR and zero for free.
        return fromBits((0 - bits()) & patternMask());
    }

    constexpr Posit
    abs() const
    {
        return isNegative() ? -*this : *this;
    }

    Posit &operator+=(const Posit &o) { return *this = *this + o; }
    Posit &operator-=(const Posit &o) { return *this = *this - o; }
    Posit &operator*=(const Posit &o) { return *this = *this * o; }
    Posit &operator/=(const Posit &o) { return *this = *this / o; }
    /// @}

    /** @name Comparison: the standard's total order (NaR smallest). */
    /// @{
    friend constexpr bool
    operator==(const Posit &a, const Posit &b)
    {
        return a.bits_ == b.bits_;
    }
    friend constexpr bool
    operator!=(const Posit &a, const Posit &b)
    {
        return a.bits_ != b.bits_;
    }
    friend constexpr bool
    operator<(const Posit &a, const Posit &b)
    {
        return a.bits_ < b.bits_;
    }
    friend constexpr bool
    operator<=(const Posit &a, const Posit &b)
    {
        return a.bits_ <= b.bits_;
    }
    friend constexpr bool
    operator>(const Posit &a, const Posit &b)
    {
        return a.bits_ > b.bits_;
    }
    friend constexpr bool
    operator>=(const Posit &a, const Posit &b)
    {
        return a.bits_ >= b.bits_;
    }
    /// @}

    /** Human-readable config name, e.g. "posit(64,12)". */
    static std::string
    name()
    {
        return "posit(" + std::to_string(N) + "," + std::to_string(ES) +
               ")";
    }

  private:
    using U128 = unsigned __int128;

    static constexpr uint64_t
    patternMask()
    {
        return N == 64 ? ~uint64_t{0} : (uint64_t{1} << N) - 1;
    }

    /** Sign-extend the N-bit pattern so integer order == posit order. */
    static constexpr int64_t
    signExtend(uint64_t pattern)
    {
        if (N == 64)
            return static_cast<int64_t>(pattern);
        const uint64_t sign_bit = uint64_t{1} << (N - 1);
        return static_cast<int64_t>((pattern ^ sign_bit) - sign_bit);
    }

    static constexpr int
    countLeadingZeros(uint64_t x)
    {
        return x == 0 ? 64 : __builtin_clzll(x);
    }

    static constexpr int
    countLeadingOnes(uint64_t x)
    {
        return countLeadingZeros(~x);
    }

    static constexpr int
    countLeadingZeros128(U128 x)
    {
        const auto hi = static_cast<uint64_t>(x >> 64);
        if (hi != 0)
            return countLeadingZeros(hi);
        return 64 + countLeadingZeros(static_cast<uint64_t>(x));
    }

    /** Shift left that tolerates a shift amount of 64. */
    static constexpr uint64_t
    shiftLeft(uint64_t x, int amount)
    {
        return amount >= 64 ? 0 : x << amount;
    }

    int64_t bits_ = 0; //!< sign-extended N-bit pattern
};

/** The paper's three studied 64-bit configurations. */
using Posit64es9 = Posit<64, 9>;
using Posit64es12 = Posit<64, 12>;
using Posit64es18 = Posit<64, 18>;

} // namespace pstat

#endif // PSTAT_CORE_POSIT_HH
