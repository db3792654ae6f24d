/**
 * @file
 * Bit-level posit utilities: field decomposition for display and
 * debugging, neighbour navigation on the posit lattice, and local
 * precision queries. These make the tapered-precision behaviour the
 * paper describes directly inspectable (e.g. "how many fraction bits
 * does posit(64,9) actually have at 2^-8000?").
 */

#ifndef PSTAT_CORE_POSIT_IO_HH
#define PSTAT_CORE_POSIT_IO_HH

#include <string>

#include "core/posit.hh"

namespace pstat
{

/** Decomposed view of a posit encoding. */
struct PositFields
{
    bool negative = false;
    bool is_zero = false;
    bool is_nar = false;
    int regime_bits = 0;   //!< run + terminator
    int64_t k = 0;         //!< regime value
    int exponent_bits = 0; //!< bits physically present
    uint64_t exponent = 0; //!< decoded e (zero-padded per standard)
    int fraction_bits = 0; //!< bits physically present
    uint64_t fraction = 0; //!< raw fraction field
    int64_t scale = 0;     //!< k * 2^ES + e
};

/** Decompose a posit into its variable-length fields. */
template <int N, int ES>
PositFields
decomposeFields(const Posit<N, ES> &value)
{
    PositFields out;
    if (value.isZero()) {
        out.is_zero = true;
        return out;
    }
    if (value.isNaR()) {
        out.is_nar = true;
        return out;
    }
    uint64_t pattern = value.bits();
    out.negative = (pattern >> (N - 1)) & 1;
    if (out.negative) {
        const uint64_t mask =
            N == 64 ? ~uint64_t{0} : (uint64_t{1} << N) - 1;
        pattern = (0 - pattern) & mask;
    }

    // Walk the N-1 magnitude bits.
    int pos = N - 2;
    const int first = (pattern >> pos) & 1;
    int run = 0;
    while (pos >= 0 &&
           (static_cast<int>(pattern >> pos) & 1) == first) {
        ++run;
        --pos;
    }
    out.regime_bits = run + (pos >= 0 ? 1 : 0);
    if (pos >= 0)
        --pos; // consume terminator
    out.k = first == 1 ? run - 1 : -run;

    out.exponent_bits = 0;
    uint64_t e = 0;
    for (int i = 0; i < ES && pos >= 0; ++i) {
        e = (e << 1) | ((pattern >> pos) & 1);
        --pos;
        ++out.exponent_bits;
    }
    out.exponent = e << (ES - out.exponent_bits);

    out.fraction_bits = pos + 1;
    out.fraction =
        out.fraction_bits > 0
            ? pattern & ((uint64_t{1} << out.fraction_bits) - 1)
            : 0;
    out.scale = out.k * (int64_t{1} << ES) +
                static_cast<int64_t>(out.exponent);
    return out;
}

/**
 * Render a posit as grouped bit fields, e.g. posit(8,2) 0x0D as
 * "0 0001 10 1" (sign, regime, exponent, fraction).
 */
template <int N, int ES>
std::string
formatBits(const Posit<N, ES> &value)
{
    const PositFields f = decomposeFields(value);
    const uint64_t pattern = value.bits();
    std::string out;
    int pos = N - 1;
    auto take = [&pattern, &pos](int count) {
        std::string s;
        for (int i = 0; i < count && pos >= 0; ++i, --pos)
            s += ((pattern >> pos) & 1) ? '1' : '0';
        return s;
    };
    const auto field = [&out, &take](int count) {
        out += ' ';
        out += take(count);
    };
    out += take(1); // sign
    if (f.is_zero || f.is_nar) {
        field(N - 1);
        return out;
    }
    // Field widths refer to the magnitude pattern; for negative
    // values show the raw two's-complement bits unsplit.
    if (f.negative) {
        field(N - 1);
        out += " (two's complement)";
        return out;
    }
    field(f.regime_bits);
    if (f.exponent_bits > 0)
        field(f.exponent_bits);
    if (f.fraction_bits > 0)
        field(f.fraction_bits);
    return out;
}

/**
 * Next representable posit above (order-theoretic successor). The
 * posit lattice is the two's-complement integer order, so this is
 * bits+1, with NaR (the maximum pattern's wraparound target) mapped
 * to itself from maxpos.
 */
template <int N, int ES>
Posit<N, ES>
nextUp(const Posit<N, ES> &value)
{
    using P = Posit<N, ES>;
    if (value.isNaR() || value.bits() == P::maxpos().bits())
        return value.isNaR() ? P::nar() : P::maxpos();
    return P::fromBits(value.bits() + 1);
}

/** Next representable posit below. */
template <int N, int ES>
Posit<N, ES>
nextDown(const Posit<N, ES> &value)
{
    using P = Posit<N, ES>;
    if (value.isNaR())
        return P::nar();
    const P candidate = P::fromBits(value.bits() - 1);
    return candidate.isNaR() ? P::nar() : candidate;
}

/**
 * Local unit in the last place: the gap to the next-larger-magnitude
 * neighbour, as an exact BigFloat. Quantifies tapered precision: the
 * ulp of a posit grows as the regime lengthens.
 */
template <int N, int ES>
BigFloat
positUlp(const Posit<N, ES> &value)
{
    using P = Posit<N, ES>;
    if (value.isZero())
        return P::minpos().toBigFloat();
    if (value.isNaR())
        return BigFloat::nan();
    const P mag = value.abs();
    if (mag.bits() == P::maxpos().bits())
        return (mag.toBigFloat() - nextDown(mag).toBigFloat());
    return nextUp(mag).toBigFloat() - mag.toBigFloat();
}

/**
 * Effective fraction bits of the encoding holding `value` — the
 * quantity Table I bounds and Section III's ES discussion is about.
 */
template <int N, int ES>
int
effectiveFractionBits(const Posit<N, ES> &value)
{
    if (value.isZero() || value.isNaR())
        return 0;
    return decomposeFields(value).fraction_bits;
}

} // namespace pstat

#endif // PSTAT_CORE_POSIT_IO_HH
