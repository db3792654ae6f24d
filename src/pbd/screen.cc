#include "pbd/screen.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "pbd/pbd.hh"
#include "pbd/read_pass.hh"

namespace pstat::pbd
{

ScreenDecisions
applyScreen(std::span<const double> estimates_log2,
            const ScreenConfig &config)
{
    ScreenDecisions out;
    out.skip.resize(estimates_log2.size(), 0);
    out.stats.columns = estimates_log2.size();
    for (size_t i = 0; i < estimates_log2.size(); ++i) {
        if (screenSkips(estimates_log2[i], config)) {
            out.skip[i] = 1;
            ++out.stats.skipped;
            continue;
        }
        ++out.stats.evaluated;
        if (screenGuardHit(estimates_log2[i], config))
            ++out.stats.guard_band_hits;
    }
    return out;
}

namespace
{

/**
 * Padding (bits) covering every libm/summation rounding in an
 * endpoint computed as `raw` over n nonzero reads: two whole bits
 * of slack plus 2^-40 * n * (|raw| + 64). Every libm result an
 * endpoint combines (lgamma, log2, log1p) has magnitude below
 * n * (|raw| + 64) bits and is a few ulps off, and the nonnegative
 * sum of the reads adds O(n*u) relative error in any summation order
 * (the read pass's striped one included), so the pad
 * over-covers the worst case by several orders of magnitude while
 * staying negligible against the enclosure widths that matter (a
 * deep column's pad is milli-bits against hundreds of bits of slack
 * to the threshold).
 */
double
endpointPad(size_t n, double raw)
{
    if (!std::isfinite(raw))
        return 0.0;
    return 2.0 +
           std::ldexp(static_cast<double>(n) * (std::fabs(raw) + 64.0),
                      -40);
}

/**
 * Octaves of a probability in (0, 1]: its biased binary exponent.
 * Subnormals share octave 0; octave kOctaves - 1 holds exactly p = 1.
 */
constexpr size_t kOctaves = 1024;

size_t
octaveOf(double p)
{
    return static_cast<size_t>(std::bit_cast<uint64_t>(p) >> 52);
}

/**
 * ln Gamma(x), the value std::lgamma returns. std::lgamma also writes
 * the global signgam, a data race when engine lanes bound columns
 * concurrently; lgamma_r hands the sign back instead.
 */
double
lnGamma(double x)
{
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

} // namespace

namespace detail
{

ReadStats
readPass(std::span<const double> probs, simd::Isa isa)
{
#if defined(PSTAT_SIMD_HAS_AVX2)
    if (isa == simd::Isa::Avx2 && simd::isaSupported(simd::Isa::Avx2))
        return readPassAvx2(probs);
#endif
    (void)isa;
    return readPassRun<simd::ArrayVec<double, read_stripes>>(probs);
}

} // namespace detail

PValueBoundsLog2
certifiedBoundsLog2(const ColumnView &column,
                    std::optional<double> decide_log2)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kLn2 = std::numbers::ln2;

    // Structural exacts first: P(X >= 0) = 1, P(X > N) = 0.
    if (column.k <= 0)
        return {0.0, 0.0};
    const size_t n = column.success_probs.size();
    const size_t k = static_cast<size_t>(column.k);
    if (k > n)
        return {-kInf, -kInf};

    // Stage 1, the read pass: validity, N', the sum, and t_min.
    const detail::ReadStats reads =
        detail::readPass(column.success_probs, simd::activeIsa());
    if (!reads.valid)
        return {-kInf, kInf}; // invalid input: vacuous enclosure

    // Reads with p = 0 never succeed: with fewer than K others the
    // event is impossible, exactly.
    const size_t nonzero = reads.nonzero;
    if (k > nonzero)
        return {-kInf, -kInf};

    const double kk = static_cast<double>(k);
    const double lgamma_k1 = lnGamma(kk + 1.0);
    const auto log2Choose = [&](double m) {
        return (lnGamma(m + 1.0) - lgamma_k1 - lnGamma(m - kk + 1.0)) /
               kLn2;
    };
    // The m reads at or above t dominate Binomial(m, t), so
    // P(X >= K) >= C(m,K) t^K (1-t)^(m-K); at t = 1 the m >= K sure
    // successes make the event sure: 2^0.
    const auto binomialTerm = [&](double m, double t) {
        return t == 1.0 ? 0.0
                        : log2Choose(m) + kk * std::log2(t) +
                              (m - kk) * std::log1p(-t) / kLn2;
    };
    const auto padded = [&](double raw) {
        return raw - endpointPad(nonzero, raw);
    };

    // Upper endpoint: P(X >= K) <= e_K(p) <= C(N',K) * pbar^K over
    // the N' nonzero reads (union bound + Maclaurin), in log2.
    const double nn = static_cast<double>(nonzero);
    double hi = log2Choose(nn) + kk * std::log2(reads.sum / nn);
    hi = std::min(hi + endpointPad(nonzero, hi), 0.0); // p <= 1

    // The cheap lower endpoint: all N' reads are at or above t_min.
    // It is the walk's bottom-octave term, so never above its result.
    const double lo_cheap = padded(binomialTerm(nn, reads.least));
    if (decide_log2 &&
        (hi < *decide_log2 || lo_cheap >= *decide_log2))
        return {lo_cheap, hi};

    // Stage 2, the octave walk: file each nonzero read into its
    // octave, keeping the octave's read count and least probability,
    // then walk the octaves from p = 1 down to t_min's, taking the
    // best term over t = the least read at or above each octave.
    std::array<size_t, kOctaves> count{};
    std::array<double, kOctaves> least;
    least.fill(1.0);
    for (const double p : column.success_probs) {
        if (p == 0.0)
            continue;
        const size_t octave = octaveOf(p);
        ++count[octave];
        least[octave] = std::min(least[octave], p);
    }
    double lo = -kInf;
    size_t m = 0;
    const size_t bottom = octaveOf(reads.least);
    for (size_t octave = kOctaves; octave-- > bottom;) {
        if (count[octave] == 0)
            continue;
        m += count[octave];
        if (m >= k)
            lo = std::max(lo, binomialTerm(static_cast<double>(m),
                                           least[octave]));
    }
    return {padded(lo), hi};
}

size_t
countFalseSkips(std::span<const uint8_t> skipped,
                std::span<const BigFloat> oracle,
                double threshold_log2)
{
    // Silently truncating to the shorter span would make the audit
    // vacuously clean on exactly the caller bug it exists to catch
    // (an oracle vector from a different or truncated dataset).
    if (skipped.size() != oracle.size())
        throw std::invalid_argument(
            "countFalseSkips: skip mask and oracle sizes differ");
    size_t out = 0;
    for (size_t i = 0; i < skipped.size(); ++i) {
        if (!skipped[i])
            continue;
        const BigFloat &p = oracle[i];
        if (!p.isFinite())
            continue;
        if (p.isZero() || p.log2Abs() < threshold_log2)
            ++out;
    }
    return out;
}

} // namespace pstat::pbd
