/**
 * @file
 * The Listing-2 p-value DP over one structure-of-arrays tile,
 * templated over a simd.hh vector wrapper. Included by the baseline
 * and the per-ISA translation units (pbd_simd.cc, pbd_simd_avx2.cc);
 * not part of the public API — use pbd::pvalueBatchSimd.
 *
 * One tile is Vec::width columns advancing in lockstep: DP row k of
 * every lane is stored contiguously (dp[k * W + c] is lane c's
 * Pr_n(X = k)), so each step's recurrence
 *     pr[k] = pr_prev[k] * q + pr_prev[k - 1] * p
 * is two vector loads, two multiplies, and an add across all lanes.
 *
 * Per-lane bit-identity with detail::pvalueImpl (the scalar oracle)
 * holds by construction, because every divergence between lanes is
 * expressed through values that make the extra vector operations
 * bitwise neutral for the finite non-negative DP state that [0, 1]
 * probabilities (the dataset contract) produce:
 *
 *  - lanes shorter than the tile's longest column run padded steps
 *    with p = 0, q = 1: rows pass through unchanged (x*1 = x,
 *    x*0 = +0, x + +0 = x for x >= +0) and the tail term is +0;
 *  - every lane adds its tail term P(X >= K) += pr_prev[K-1] * p at
 *    every step, ungated. DP row k is first written at step k, so
 *    before a lane's step K its tail row is still the +0 it started
 *    as, and after its own N its p is +0: either way the term is
 *    +0 * p or x * +0, the same value the scalar kernel's skipped
 *    step leaves, and folding +0 into either accumulator policy
 *    (plain or Neumaier) is a bitwise no-op — for Neumaier because
 *    t = sum + 0 = sum, the dominance test |sum| < |0| is false, and
 *    the error term (sum - t) + 0 is +0 (the compensation value can
 *    be negative but never -0, since IEEE round-to-nearest only
 *    produces -0 from sums of two -0s). Steps before the tile's
 *    smallest K skip the accumulation outright, and a tile whose
 *    lanes share one K reads its tail row as one contiguous vector
 *    instead of gathering it;
 *  - rows above a lane's own K-1 (up to the tile's kmax) are genuine
 *    PMF extensions — finite, non-negative, and never read by that
 *    lane's tail gather.
 *
 * Everything else is the scalar kernel's operation sequence verbatim,
 * in the same order, with -ffp-contract=off keeping multiplies and
 * adds unfused.
 *
 * The tiles of the scaled_dd oracle and of `log` (pvalueTileLanesImpl
 * over the ScaledDDLanes and LnLanes lane types) keep this dataflow,
 * ragged-K argument included: there the untouched tail row holds the
 * format's zero, and a zero term leaves the sum unchanged. Their own
 * argument is with them below.
 */

#ifndef PSTAT_PBD_PBD_SIMD_TILE_HH
#define PSTAT_PBD_PBD_SIMD_TILE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/exp_kernel.hh"
#include "core/real_traits.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"

namespace pstat::pbd::detail
{

/**
 * Per-thread tile scratch, reused across tiles: a realistic calling
 * batch is thousands of tiny-K tiles, and a fresh value-initialized
 * buffer pair per tile (two mallocs plus a memset the transpose
 * immediately overwrites) costs more than the tile's whole DP.
 * Thread-local keeps the engine's worker lanes independent.
 */
template <typename T>
struct TileScratch
{
    std::vector<T> pq; //!< transposed p/q; contents always overwritten
    std::vector<T> dp; //!< DP rows; re-zeroed per tile (rows start 0)

    static TileScratch &
    get()
    {
        thread_local TileScratch scratch;
        return scratch;
    }
};

/** One SoA tile of Vec::width columns; out gets each lane's p-value. */
template <typename Vec, bool kCompensated>
void
pvalueTileImpl(const ColumnView *cols, typename Vec::Scalar *out)
{
    using T = typename Vec::Scalar;
    using RT = pstat::RealTraits<T>;
    constexpr int W = Vec::width;

    size_t kcap[W];
    size_t kmax = 1;
    size_t kmin = 0; // first step any lane's tail term can fire
    size_t nmax = 0;
    bool kequal = true;
    for (int c = 0; c < W; ++c) {
        // k <= 0 lanes (P(X >= k) = 1 by definition) ride along
        // with kcap 1; their slot is overwritten with one() at the
        // end.
        kcap[c] = cols[c].k > 0 ? static_cast<size_t>(cols[c].k) : 1;
        if (kcap[c] > kmax)
            kmax = kcap[c];
        if (kcap[c] < kmin || kmin == 0)
            kmin = kcap[c];
        kequal = kequal && kcap[c] == kcap[0];
        if (cols[c].success_probs.size() > nmax)
            nmax = cols[c].success_probs.size();
    }

    // Pre-transposed SoA trial probabilities: pt/qt[(n-1)*W + c] are
    // lane c's p_n and 1 - p_n, converted exactly as the scalar
    // kernel converts them. One sequential pass here makes the hot
    // loop below pure vector code (two unit-stride loads per step
    // instead of a W-lane gather with branches); the buffers are
    // streamed once, so they cost bandwidth, not cache residency.
    TileScratch<T> &scratch = TileScratch<T>::get();
    if (scratch.pq.size() < 2 * nmax * W)
        scratch.pq.resize(2 * nmax * W);
    T *pt = scratch.pq.data();
    T *qt = scratch.pq.data() + nmax * W;
    for (int c = 0; c < W; ++c) {
        const auto &probs = cols[c].success_probs;
        const size_t len = probs.size();
        for (size_t n = 0; n < len; ++n) {
            pt[n * W + c] = RT::fromDouble(probs[n]);
            qt[n * W + c] = RT::fromDouble(1.0 - probs[n]);
        }
        for (size_t n = len; n < nmax; ++n) {
            // Padded steps beyond a lane's own N: p = 0, q = 1 pass
            // rows through unchanged and zero the tail term.
            pt[n * W + c] = RT::zero();
            qt[n * W + c] = RT::one();
        }
    }

    // Double-buffered SoA DP state, rows 0..kmax-1 of every lane.
    // Both halves must start zero: row k of pr_prev is first READ at
    // step k (as Pr_{k-1}(X = k) = 0) one step before it is first
    // written.
    scratch.dp.assign(2 * kmax * W, RT::zero());
    T *pr_prev = scratch.dp.data();
    T *pr = scratch.dp.data() + kmax * W;
    for (int c = 0; c < W; ++c)
        pr_prev[c] = RT::one(); // row 0: Pr_0(X = 0) = 1

    Vec sum = Vec::broadcastZero();
    Vec comp = Vec::broadcastZero();

    // pval.add(term): the accumulator policies lane-wise. Folding a
    // +0 term is a bitwise no-op under either policy (see the file
    // comment), which is what lets shorter lanes ride along.
    const auto accumulate = [&sum, &comp](const Vec &term) {
        if constexpr (kCompensated) {
            // NeumaierSum<T>::add, lane-wise: the same dominance
            // branch expressed as a compare + two selects.
            const Vec t = sum + term;
            const auto dominated =
                Vec::lessThan(sum.abs(), term.abs());
            const Vec big = Vec::select(dominated, term, sum);
            const Vec small = Vec::select(dominated, sum, term);
            comp = comp + ((big - t) + small);
            sum = t;
        } else {
            sum = sum + term;
        }
    };

    alignas(64) T tbuf[W];

    for (size_t n = 1; n <= nmax; ++n) {
        const Vec p = Vec::load(pt + (n - 1) * W);
        const Vec q = Vec::load(qt + (n - 1) * W);

        // pval.add(pr_prev[kcap - 1] * p). Before step kmin no lane
        // can fire, exactly as the scalar kernel's n >= kcap guard —
        // skipping the add entirely is its bit-identical image. A
        // lane before its own step K adds +0 (see the file comment);
        // k <= 0 lanes accumulate garbage tails, but their slot is
        // overwritten with one() below.
        if (n >= kmin) {
            if (kequal) {
                accumulate(Vec::load(pr_prev + (kmin - 1) * W) * p);
            } else {
                for (int c = 0; c < W; ++c)
                    tbuf[c] = pr_prev[(kcap[c] - 1) * W + c];
                accumulate(Vec::load(tbuf) * p);
            }
        }

        const size_t hi = n < kmax - 1 ? n : kmax - 1;
        for (size_t k = hi; k >= 1; --k) {
            const Vec row = Vec::load(pr_prev + k * W) * q +
                            Vec::load(pr_prev + (k - 1) * W) * p;
            row.store(pr + k * W);
        }
        (Vec::load(pr_prev) * q).store(pr);
        std::swap(pr, pr_prev);
    }

    Vec total = sum;
    if constexpr (kCompensated)
        total = sum + comp; // NeumaierSum::value()
    total.store(out);
    for (int c = 0; c < W; ++c) {
        if (cols[c].k <= 0)
            out[c] = RT::one();
    }
}

/** Runtime-policy front end over the two accumulator instantiations. */
template <typename Vec>
void
pvalueTileRun(const ColumnView *cols, typename Vec::Scalar *out,
              bool compensated)
{
    if (compensated)
        pvalueTileImpl<Vec, true>(cols, out);
    else
        pvalueTileImpl<Vec, false>(cols, out);
}

/**
 * W ScaledDD values, one per lane, in three simd.hh double vectors:
 * the mantissa's hi and lo, and exp2 as a double holding an exact
 * integer. (|exp2| < 2^53 always holds here: each Listing-2 step
 * lowers an exponent by at most 1074, and a column has fewer than
 * 2^32 reads.) Vec is ArrayVec<double, W> or Avx2DoubleVec: the
 * operators use min and shiftBitsLeft.
 *
 * The multiply and the add perform, lane by lane, exactly the IEEE
 * operations of ScaledDD's operator* and operator+ (core/dd.hh);
 * each branch of the scalar code becomes a compare and a select.
 * That holds on the tile's domain: non-negative values whose
 * mantissa renormalize() has put in [0.5, 1), and zero (mant = 0,
 * exp2 = 0). The scalar constructor makes such a value of every
 * probability in [0, 1], and the products and sums of such values
 * stay in it. There
 *  - a value is zero exactly when its hi is not positive, and a
 *    product is zero exactly when an operand is;
 *  - a product of two mantissas lands in [0.25, 1), or one rounding
 *    step below 0.25 (0.5 - 2^-55 squared), and a sum in [0.5, 2]
 *    (rounding can carry one up to exactly 2.0), or one step below
 *    0.5. The renormalize step reads frexp's exponent by compares,
 *    on [0.125, 1) after a multiply and on [0.25, 4) after an add;
 *  - Dekker's split two-product is exact: the operands are below 4
 *    and the error term is far above the subnormal range. It
 *    therefore equals the scalar two-product's std::fma bit for bit,
 *    with no FMA instruction;
 *  - an alignment or renormalize shift by 2^-d is one multiply by
 *    the exact power of two, as the scalar ldexp does it (dd.hh).
 * Negative values, infinities and NaN are outside it.
 */
template <typename Vec>
struct ScaledDDLanes
{
    static_assert(std::is_same_v<typename Vec::Scalar, double>,
                  "ScaledDD lanes are binary64 vectors");
    using Scalar = ScaledDD;
    static constexpr int width = Vec::width;
    static constexpr int components = 3; //!< doubles per lane
    using Mask = typename Vec::Mask;

    Vec hi;
    Vec lo;
    Vec exp; //!< exp2, an exact integer held in a double

    static ScaledDDLanes
    zero()
    {
        return {Vec::broadcastZero(), Vec::broadcastZero(),
                Vec::broadcastZero()};
    }

    /** Lanes from p[0, W) (hi), p[W, 2W) (lo) and p[2W, 3W) (exp2). */
    static ScaledDDLanes
    load(const double *p)
    {
        return {Vec::load(p), Vec::load(p + width),
                Vec::load(p + 2 * width)};
    }

    /** The inverse of load. */
    void
    store(double *p) const
    {
        hi.store(p);
        lo.store(p + width);
        exp.store(p + 2 * width);
    }

    /** Lane c of the stored lanes p becomes v. */
    static void
    put(double *p, int c, const ScaledDD &v)
    {
        p[c] = v.mant.hi;
        p[width + c] = v.mant.lo;
        p[2 * width + c] = static_cast<double>(v.exp2);
    }

    /** Lane c of the stored lanes p. */
    static ScaledDD
    get(const double *p, int c)
    {
        ScaledDD v;
        v.mant = DD(p[c], p[width + c]);
        v.exp2 = static_cast<int64_t>(p[2 * width + c]);
        return v;
    }

    /** m ? t : f per lane, all three components. */
    static ScaledDDLanes
    select(const Mask &m, const ScaledDDLanes &t, const ScaledDDLanes &f)
    {
        return {Vec::select(m, t.hi, f.hi), Vec::select(m, t.lo, f.lo),
                Vec::select(m, t.exp, f.exp)};
    }

    /** Lanes that are not zero. */
    Mask
    nonZero() const
    {
        return Vec::lessThan(Vec::broadcastZero(), hi);
    }

    /**
     * A multiplier with the Dekker halves of its hi computed once:
     * a DP step multiplies every row by the same p and q.
     */
    struct Factor
    {
        ScaledDDLanes v;
        Vec hi_hi; //!< the top 26 bits of v.hi
        Vec hi_lo; //!< v.hi - hi_hi
    };

    /** b with its hi split (Dekker, 2^27 + 1). */
    static Factor
    factor(const ScaledDDLanes &b)
    {
        const Vec c = Vec::broadcast(134217729.0) * b.hi;
        const Vec top = c - (c - b.hi);
        return {b, top, b.hi - top};
    }

    /** ScaledDD::operator* per lane: a * f.v, with f.v pre-split. */
    friend ScaledDDLanes
    operator*(const ScaledDDLanes &a, const Factor &f)
    {
        const ScaledDDLanes &b = f.v;
        const Factor fa = factor(a);
        // DD multiply: the two-product of the his (Dekker's, in the
        // order of Ogita, Rump and Oishi's TwoProduct), the cross
        // terms, then quickTwoSum.
        const Vec p = a.hi * b.hi;
        const Vec err =
            fa.hi_lo * f.hi_lo -
            (((p - fa.hi_hi * f.hi_hi) - fa.hi_lo * f.hi_hi) -
             fa.hi_hi * f.hi_lo);
        const Vec plo = err + (a.hi * b.lo + a.lo * b.hi);
        const Vec s = p + plo;
        const Vec lo = plo - (s - p);
        // renormalize(): s is in [0.125, 1), so frexp's exponent is
        // -2, -1 or 0.
        const Vec e = Vec::select(
            Vec::lessThan(s, Vec::broadcast(0.5)),
            Vec::select(Vec::lessThan(s, Vec::broadcast(0.25)),
                        Vec::broadcast(-2.0), Vec::broadcast(-1.0)),
            Vec::broadcastZero());
        return select(Vec::lessThan(Vec::broadcastZero(), p),
                      scaled(s, lo, a.exp + b.exp, e), zero());
    }

    /** ScaledDD::operator+ per lane. */
    friend ScaledDDLanes
    operator+(const ScaledDDLanes &a, const ScaledDDLanes &b)
    {
        // The operand with the larger exponent is big; ties go to a.
        const Mask b_bigger = Vec::lessThan(a.exp, b.exp);
        const ScaledDDLanes big = select(b_bigger, b, a);
        const ScaledDDLanes sml = select(b_bigger, a, b);
        const Vec d = big.exp - sml.exp;
        // ldexp(sml.mant, -d), the shift capped where the d > 120
        // select below discards the sum anyway.
        const Vec shift = pow2Neg(Vec::min(d, Vec::broadcast(121.0)));
        const Vec shi = sml.hi * shift;
        const Vec slo = sml.lo * shift;
        // DD add: twoSum of the his, the los folded in, quickTwoSum.
        const Vec s = big.hi + shi;
        const Vec v = s - big.hi;
        const Vec t = (big.hi - (s - v)) + (shi - v);
        const Vec tlo = t + (big.lo + slo);
        const Vec h = s + tlo;
        // renormalize(): h is in [0.25, 4), so frexp's exponent is
        // -1, 0, 1 or 2.
        const Vec e = Vec::select(
            Vec::lessThan(h, Vec::broadcast(1.0)),
            Vec::select(Vec::lessThan(h, Vec::broadcast(0.5)),
                        Vec::broadcast(-1.0), Vec::broadcastZero()),
            Vec::select(Vec::lessThan(h, Vec::broadcast(2.0)),
                        Vec::broadcast(1.0), Vec::broadcast(2.0)));
        ScaledDDLanes out = scaled(h, tlo - (h - s), big.exp, e);
        // d > 120: below DD's significance, the sum is big.
        out = select(Vec::lessThan(Vec::broadcast(120.0), d), big, out);
        out = select(b.nonZero(), out, a);
        return select(a.nonZero(), out, b);
    }

  private:
    /** 2^-e for integer lanes e with 1023 - e in [1, 2046]. */
    static Vec
    pow2Neg(const Vec &e)
    {
        // 2^52 + (1023 - e) holds the biased exponent of 2^-e in its
        // low mantissa bits; shifting them into the exponent field
        // leaves a zero fraction and sign.
        return (Vec::broadcast(0x1p52 + 1023.0) - e)
            .template shiftBitsLeft<52>();
    }

    /**
     * The end of renormalize() on a nonzero mantissa hi + lo whose
     * frexp exponent is e: both components times 2^-e, and exp2 + e.
     * For e = 0 the multiply by 1 changes nothing, as the scalar
     * code's skipped ldexp.
     */
    static ScaledDDLanes
    scaled(const Vec &hi, const Vec &lo, const Vec &exp, const Vec &e)
    {
        const Vec scale = pow2Neg(e);
        return {hi * scale, lo * scale, exp + e};
    }
};

/**
 * W LogDouble values, one per lane: their ln in one simd.hh double
 * vector. The multiply is a lane add, and the add is the lane LSE
 * simd::logSumExp (core/exp_kernel.hh), whose one-lane instantiation
 * is LogDouble's own add. So both perform, lane by lane, exactly the
 * IEEE operations of LogDouble's operator* and operator+ on the
 * tile's domain: lns in [-inf, 0] and slightly above (what
 * probabilities in [0, 1] and the DP's roundings make), never NaN or
 * +inf, where LogDouble's zero test in operator* changes nothing
 * (-inf + x = -inf). Vec is ArrayVec<double, W> or Avx2DoubleVec.
 */
template <typename Vec>
struct LnLanes
{
    static_assert(std::is_same_v<typename Vec::Scalar, double>,
                  "ln lanes are binary64 vectors");
    using Scalar = LogDouble;
    static constexpr int width = Vec::width;
    static constexpr int components = 1; //!< doubles per lane

    Vec ln;

    static LnLanes load(const double *p) { return {Vec::load(p)}; }
    void store(double *p) const { ln.store(p); }

    /** Lane c of the stored lanes p becomes v. */
    static void
    put(double *p, int c, const LogDouble &v)
    {
        p[c] = v.lnValue();
    }

    /** Lane c of the stored lanes p. */
    static LogDouble
    get(const double *p, int c)
    {
        return LogDouble::fromLn(p[c]);
    }

    /** A step's p or q as a multiplier: nothing to precompute. */
    using Factor = LnLanes;
    static const LnLanes &factor(const LnLanes &b) { return b; }

    friend LnLanes
    operator*(const LnLanes &a, const LnLanes &b)
    {
        return {a.ln + b.ln};
    }

    friend LnLanes
    operator+(const LnLanes &a, const LnLanes &b)
    {
        return {simd::logSumExp(a.ln, b.ln)};
    }
};

/** Steps of p and 1 - p the lanes tile transposes at a time. */
inline constexpr size_t k_tile_block_steps = 64;

/**
 * The Listing-2 DP in a non-IEEE format over one SoA tile of
 * Lanes::width columns: the scaled_dd oracle's plain-sum batch
 * (Lanes = ScaledDDLanes<Vec>) and `log`'s (LnLanes<Vec>). out gets
 * each lane's p-value, bit-identical to pvalue<Lanes::Scalar> on its
 * column.
 *
 * The dataflow is pvalueTileImpl's: one DP row of every lane per
 * load, lanes past their own N padded with p = 0 and q = 1, k <= 0
 * lanes inert, and every lane's tail term added ungated (a term of
 * an untouched tail row, or past N, is the format's zero, and
 * adding zero returns the sum unchanged: ScaledDD's add returns its
 * nonzero operand, and the LSE its finite one). One thing differs:
 * p and 1 - p are converted by the format's scalar conversion
 * (ScaledDD's constructor, so zero and subnormal probabilities never
 * reach lane code; LogDouble::fromDouble, libm's log),
 * k_tile_block_steps steps at a time, so the scratch stays a few
 * KiB per thread however deep the columns are.
 * Every probability must lie in [0, 1]: the batch dispatcher sends
 * other columns to the scalar kernel.
 */
template <typename Lanes>
void
pvalueTileLanesImpl(const ColumnView *cols,
                    typename Lanes::Scalar *out)
{
    using T = typename Lanes::Scalar;
    using RT = pstat::RealTraits<T>;
    constexpr int W = Lanes::width;
    constexpr size_t R = Lanes::components * W; // doubles per DP row

    size_t kcap[W];
    size_t kmax = 1;
    size_t kmin = 0;
    size_t nmax = 0;
    bool kequal = true;
    for (int c = 0; c < W; ++c) {
        kcap[c] = cols[c].k > 0 ? static_cast<size_t>(cols[c].k) : 1;
        if (kcap[c] > kmax)
            kmax = kcap[c];
        if (kcap[c] < kmin || kmin == 0)
            kmin = kcap[c];
        kequal = kequal && kcap[c] == kcap[0];
        if (cols[c].success_probs.size() > nmax)
            nmax = cols[c].success_probs.size();
    }

    TileScratch<double> &scratch = TileScratch<double>::get();
    if (scratch.pq.size() < k_tile_block_steps * 2 * R)
        scratch.pq.resize(k_tile_block_steps * 2 * R);
    double *pq = scratch.pq.data();

    // Double-buffered DP rows, all zero but row 0 of pr_prev.
    scratch.dp.resize(2 * kmax * R);
    double *pr_prev = scratch.dp.data();
    double *pr = scratch.dp.data() + kmax * R;
    for (size_t row = 0; row < 2 * kmax; ++row) {
        for (int c = 0; c < W; ++c)
            Lanes::put(scratch.dp.data() + row * R, c, RT::zero());
    }
    for (int c = 0; c < W; ++c)
        Lanes::put(pr_prev, c, RT::one());

    alignas(64) double tbuf[R];
    for (int c = 0; c < W; ++c)
        Lanes::put(tbuf, c, RT::zero());
    Lanes sum = Lanes::load(tbuf);

    for (size_t n0 = 0; n0 < nmax; n0 += k_tile_block_steps) {
        const size_t steps = std::min(k_tile_block_steps, nmax - n0);
        // Step s of the block: p at pq[2Rs], q at pq[2Rs + R].
        for (int c = 0; c < W; ++c) {
            const std::span<const double> probs = cols[c].success_probs;
            for (size_t s = 0; s < steps; ++s) {
                const size_t n = n0 + s;
                double *step = pq + 2 * R * s;
                if (n < probs.size()) {
                    Lanes::put(step, c, RT::fromDouble(probs[n]));
                    Lanes::put(step + R, c,
                               RT::fromDouble(1.0 - probs[n]));
                } else {
                    Lanes::put(step, c, RT::zero());
                    Lanes::put(step + R, c, RT::one());
                }
            }
        }

        for (size_t s = 0; s < steps; ++s) {
            const size_t n = n0 + s + 1;
            const auto p = Lanes::factor(Lanes::load(pq + 2 * R * s));
            const auto q = Lanes::factor(Lanes::load(pq + 2 * R * s + R));

            if (n >= kmin) {
                if (kequal) {
                    sum = sum + Lanes::load(pr_prev + (kmin - 1) * R) * p;
                } else {
                    for (int c = 0; c < W; ++c) {
                        const double *row = pr_prev + (kcap[c] - 1) * R;
                        for (int j = 0; j < Lanes::components; ++j)
                            tbuf[j * W + c] = row[j * W + c];
                    }
                    sum = sum + Lanes::load(tbuf) * p;
                }
            }

            const size_t hi = n < kmax - 1 ? n : kmax - 1;
            for (size_t k = hi; k >= 1; --k) {
                (Lanes::load(pr_prev + k * R) * q +
                 Lanes::load(pr_prev + (k - 1) * R) * p)
                    .store(pr + k * R);
            }
            (Lanes::load(pr_prev) * q).store(pr);
            std::swap(pr, pr_prev);
        }
    }

    alignas(64) double total[R];
    sum.store(total);
    for (int c = 0; c < W; ++c)
        out[c] = cols[c].k > 0 ? Lanes::get(total, c) : RT::one();
}

/**
 * The second vector form: ONE column with the DP rows vectorized.
 *
 * The SoA tile keeps a 2 * kmax * W working set, which for deep-tail
 * columns (K in the hundreds or thousands) spills the DP state out of
 * L1 and hands the win straight back; this kernel instead walks
 * pvalueImpl's own 2 * K buffers and vectorizes the row update
 *     pr[k] = pr_prev[k] * q + pr_prev[k - 1] * p
 * across W consecutive rows with p and q broadcast. The rows of one
 * step are element-wise independent (they read only pr_prev and write
 * only pr), each output element is the exact scalar expression on the
 * exact scalar inputs, and the tail accumulation plus both
 * accumulator policies stay scalar code shared with pvalueImpl — so
 * bit-identity holds with no masking argument at all. Leading rows
 * hi, hi-1, ... that do not fill a vector run scalar.
 *
 * The batch dispatcher sends columns here when their K would blow the
 * tile's L1 budget, and also mops up sub-tile remainders with it.
 */
template <typename Vec, bool kCompensated>
typename Vec::Scalar
pvalueColumnRowsImpl(const ColumnView &column)
{
    using T = typename Vec::Scalar;
    using RT = pstat::RealTraits<T>;
    constexpr size_t W = Vec::width;

    if (column.k <= 0)
        return RT::one();
    const auto kcap = static_cast<size_t>(column.k);

    std::vector<T> pr(kcap, RT::zero());
    std::vector<T> pr_prev(kcap, RT::zero());
    pr_prev[0] = RT::one();
    using Accumulator = std::conditional_t<kCompensated,
                                           pstat::NeumaierSum<T>,
                                           PlainSum<T>>;
    Accumulator pval;

    const std::span<const double> probs = column.success_probs;
    for (size_t n = 1; n <= probs.size(); ++n) {
        const double pn = probs[n - 1];
        const T p = RT::fromDouble(pn);
        const T q = RT::fromDouble(1.0 - pn);

        if (n >= kcap)
            pval.add(pr_prev[kcap - 1] * p);

        const size_t hi = n < kcap - 1 ? n : kcap - 1;
        const Vec pv = Vec::broadcast(p);
        const Vec qv = Vec::broadcast(q);
        size_t k = hi;
        for (; k >= W; k -= W) {
            const Vec row =
                Vec::load(pr_prev.data() + (k - W + 1)) * qv +
                Vec::load(pr_prev.data() + (k - W)) * pv;
            row.store(pr.data() + (k - W + 1));
        }
        for (; k >= 1; --k)
            pr[k] = pr_prev[k] * q + pr_prev[k - 1] * p;
        pr[0] = pr_prev[0] * q;
        std::swap(pr, pr_prev);
    }
    return pval.value();
}

/**
 * `log`'s row-vectorized column kernel: ONE column, pvalueImpl's
 * dataflow in ln values, with every row of a step, row 0 included,
 * updated Vec::width rows at a time by the lane LSE. The rows are
 * stored from row -width up; the rows below 0 start at -inf and stay
 * there, so a vector that reaches below row 0 needs no mask:
 *  - a padding row computes LSE(-inf + q, -inf + p) = -inf;
 *  - row 0 computes LSE(pr_prev[0] + q, -inf), which the LSE returns
 *    as pr_prev[0] + q exactly: the scalar pr_prev[0] * q;
 *  - rows 1..hi compute the scalar pr_prev[k] * q + pr_prev[k-1] * p
 *    lane by lane (LogDouble's multiply is the lane add on the
 *    tile's domain, and its add the one-lane LSE).
 * The running p-value rides in every lane of one vector, each lane
 * adding the same tail term, so lane 0 is PlainSum's value. So no
 * step runs LogDouble's scalar add or multiply; the only scalar
 * LogDouble calls are the conversions (fromDouble, lnValue, fromLn,
 * one), which logspace.hh marks always-inline, so the -mavx2 unit
 * emits no copy of them. Every probability must lie in [0, 1], as
 * for the tiles.
 */
template <typename Vec>
LogDouble
pvalueColumnRowsLogImpl(const ColumnView &column)
{
    constexpr size_t W = Vec::width;
    constexpr double ninf = -std::numeric_limits<double>::infinity();
    if (column.k <= 0)
        return LogDouble::one();
    const auto kcap = static_cast<size_t>(column.k);

    // Row k of a step is at index k + W.
    std::vector<double> pr(kcap + W, ninf);
    std::vector<double> pr_prev(kcap + W, ninf);
    pr_prev[W] = 0.0; // row 0: Pr_0(X = 0) = 1
    Vec sum = Vec::broadcast(ninf);

    const std::span<const double> probs = column.success_probs;
    for (size_t n = 1; n <= probs.size(); ++n) {
        const double pn = probs[n - 1];
        const Vec p = Vec::broadcast(LogDouble::fromDouble(pn).lnValue());
        const Vec q =
            Vec::broadcast(LogDouble::fromDouble(1.0 - pn).lnValue());

        if (n >= kcap)
            sum = simd::logSumExp(
                sum, Vec::broadcast(pr_prev[kcap - 1 + W]) + p);

        // Vectors of rows [top - W + 1, top], from row hi down to the
        // vector that holds row 0 (index W).
        const size_t hi = n < kcap - 1 ? n : kcap - 1;
        for (size_t top = hi + W;; top -= W) {
            simd::logSumExp(Vec::load(&pr_prev[top - W + 1]) + q,
                            Vec::load(&pr_prev[top - W]) + p)
                .store(&pr[top - W + 1]);
            if (top < 2 * W)
                break;
        }
        std::swap(pr, pr_prev);
    }
    alignas(64) double lanes[W];
    sum.store(lanes);
    return LogDouble::fromLn(lanes[0]);
}

/** Runtime-policy front end for the row-vectorized column kernel. */
template <typename Vec>
typename Vec::Scalar
pvalueColumnRowsRun(const ColumnView &column, bool compensated)
{
    if (compensated)
        return pvalueColumnRowsImpl<Vec, true>(column);
    return pvalueColumnRowsImpl<Vec, false>(column);
}

} // namespace pstat::pbd::detail

#endif // PSTAT_PBD_PBD_SIMD_TILE_HH
