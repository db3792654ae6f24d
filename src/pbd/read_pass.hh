/**
 * @file
 * The read pass of pbd::certifiedBoundsLog2: one branch-free sweep
 * over a column's reads gathering the statistics its cheap enclosure
 * needs, templated over a simd.hh vector wrapper. Included by the
 * baseline and the per-ISA translation units (screen.cc,
 * pbd_simd_avx2.cc); not part of the public API — use
 * pbd::certifiedBoundsLog2.
 *
 * The pass is ISA-invariant by construction. Read i feeds stripe
 * i % 4, and lane j of the vector carries stripe j; every per-read
 * step is a lane-wise wrapper op (add, sub, mul, ordered compare,
 * select, min), so each lane performs the same IEEE operations in
 * the same order on every backend. The stripes are then combined by
 * the scalar code below, shared verbatim by every instantiation:
 * pairwise, ((s0 + s1) + (s2 + s3)), and the n % 4 tail reads are
 * added in index order after that. ArrayVec<double, 4> is the
 * reference; the tests hold every supported backend to it bit for
 * bit.
 */

#ifndef PSTAT_PBD_READ_PASS_HH
#define PSTAT_PBD_READ_PASS_HH

#include <cmath>
#include <cstddef>
#include <span>

#include "core/simd.hh"

namespace pstat::pbd::detail
{

/** Reads per stripe block: the fixed summation order's width. */
inline constexpr int read_stripes = 4;

/** What the read pass learns about a column's reads. */
struct ReadStats
{
    /** Every read lies in [0, 1] (no NaN). When false the other
     *  fields are zero: an invalid column has no statistics. */
    bool valid = false;
    size_t nonzero = 0; //!< N': the reads with p > 0
    double sum = 0.0;   //!< the sum of the reads, in stripe order
    /** t_min: the least nonzero read, or 1 when every read is 0. */
    double least = 0.0;
};

/**
 * The read pass over one column, with Vec (width read_stripes) for
 * the stripe blocks. Per read p:
 *
 *  - the sum takes p as is, so a NaN read poisons it;
 *  - nz = (0 < p ? 1 : 0), false for +-0 and NaN, counts p into N'
 *    (the count is a double, exact far beyond any column length);
 *  - p + (1 - nz) is p itself for p > 0 and 1 for a zero read, so
 *    its running minimum (which skips NaN) is t_min;
 *  - p (1 - p) is negative exactly when p < 0 or p > 1 — it never
 *    rounds to zero there: for p < 0 it is at least |p| in
 *    magnitude, and for p = 1 + d the factor 1 - p = -d is exact —
 *    so its running minimum flags every out-of-range read.
 *
 * No step branches, and the minima are Vec::min, one instruction on
 * AVX2.
 */
template <typename Vec>
ReadStats
readPassRun(std::span<const double> probs)
{
    static_assert(Vec::width == read_stripes,
                  "the vector width must equal the stripe count");
    constexpr int W = read_stripes;
    const double *x = probs.data();
    const size_t n = probs.size();

    const Vec zero = Vec::broadcastZero();
    const Vec one = Vec::broadcast(1.0);
    Vec sum = zero;
    Vec count = zero;
    Vec least = one;
    Vec worst = zero; // least p (1 - p) seen, capped at 0
    size_t i = 0;
    for (; i + W <= n; i += W) {
        const Vec p = Vec::load(x + i);
        sum = sum + p;
        const Vec nz = Vec::select(Vec::lessThan(zero, p), one, zero);
        count = count + nz;
        least = Vec::min(p + (one - nz), least);
        worst = Vec::min(p * (one - p), worst);
    }

    double s[W], c[W], t[W], w[W];
    sum.store(s);
    count.store(c);
    least.store(t);
    worst.store(w);
    double total = simd::detail::pairwiseSum<double, W>(s);
    double nonzero = simd::detail::pairwiseSum<double, W>(c);
    double least_all = t[0];
    double worst_all = w[0];
    for (int j = 1; j < W; ++j) {
        least_all = t[j] < least_all ? t[j] : least_all;
        worst_all = w[j] < worst_all ? w[j] : worst_all;
    }
    for (; i < n; ++i) { // the loop body above, one read at a time
        const double p = x[i];
        total = total + p;
        const double nz = 0.0 < p ? 1.0 : 0.0;
        nonzero = nonzero + nz;
        const double tp = p + (1.0 - nz);
        least_all = tp < least_all ? tp : least_all;
        const double v = p * (1.0 - p);
        worst_all = v < worst_all ? v : worst_all;
    }

    if (worst_all < 0.0 || std::isnan(total))
        return {};
    return {true, static_cast<size_t>(nonzero), total, least_all};
}

/** The AVX2 read pass (pbd_simd_avx2.cc, built with -mavx2). */
ReadStats readPassAvx2(std::span<const double> probs);

/**
 * The read pass on the given ISA. AVX2 runs its own instantiation;
 * Scalar, NEON (whose 2-wide registers cannot carry the 4 stripes in
 * one vector) and any unsupported request run the ArrayVec reference,
 * which every backend matches bit for bit.
 */
ReadStats readPass(std::span<const double> probs, simd::Isa isa);

} // namespace pstat::pbd::detail

#endif // PSTAT_PBD_READ_PASS_HH
