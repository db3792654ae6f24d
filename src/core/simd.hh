/**
 * @file
 * Portable SIMD shim: vector wrapper types and runtime ISA dispatch.
 *
 * The paper's software lanes are element-at-a-time kernels; this shim
 * is the raw-speed multiplier that lets the hot kernels run 2-8
 * independent work items per instruction in structure-of-arrays form
 * without giving up the repo's bit-identity contracts. Three pieces:
 *
 *  1. Vector wrapper types with a fixed compile-time width: AVX2
 *     (4 x double / 8 x float), NEON (2 x double / 4 x float), and a
 *     scalar-array fallback (ArrayVec) that compiles everywhere. All
 *     expose the same tiny interface (load/store/broadcast, + - *,
 *     abs, compare-lt + select; min on ArrayVec and Avx2DoubleVec,
 *     for the analytic bounds' read pass), and every operation is
 *     lane-wise — no horizontal instruction ever mixes lanes — so a
 *     kernel templated over a wrapper executes, per lane, exactly
 *     the scalar kernel's IEEE operation sequence. That is the whole
 *     bit-identity argument for the SoA tile kernels
 *     (pbd::pvalueBatchSimd, hmm::forwardSimd): lane c of the vector
 *     run performs the same multiplies and adds, in the same order,
 *     as a scalar run of column c. (-ffp-contract=off project-wide
 *     keeps compilers from fusing any of those into FMAs.)
 *
 *  2. Runtime ISA dispatch: Isa names a backend, activeIsa() resolves
 *     the PSTAT_SIMD knob (auto|scalar|avx2|neon, strict-parsed like
 *     the other engine knobs) against what this build and CPU
 *     support, once, and caches it. Isa::Scalar always means the
 *     original per-column scalar kernels — the forced-scalar CI leg
 *     runs the legacy code paths, not a 1-lane emulation.
 *
 *  3. A vectorized n-ary log-sum-exp, logSumExpSimd, with a FIXED
 *     striped reduction order (see below) so its result is
 *     ISA-invariant: the scalar backend is the bit-identity oracle
 *     and every vector backend must match it bit for bit. Note this
 *     order differs from the sequential logSumExp(span) in
 *     core/logspace.hh — the accelerator-model dataflow keeps using
 *     that one; logSumExpSimd is a new entry point (used by
 *     hmm::forwardLogNarySimd and the benches).
 */

#ifndef PSTAT_CORE_SIMD_HH
#define PSTAT_CORE_SIMD_HH

#include <cstddef>
#include <span>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace pstat::simd
{

/** A SIMD backend selectable at runtime. */
enum class Isa
{
    Scalar, //!< the original per-column scalar kernels (the oracle)
    Avx2,   //!< x86-64 AVX2: 4 x double / 8 x float per vector
    Neon    //!< AArch64 NEON: 2 x double / 4 x float per vector
};

/** Lowercase display/knob name of an ISA ("scalar", "avx2", "neon"). */
const char *isaName(Isa isa);

/** True when this binary contains the ISA's kernels. */
bool isaCompiled(Isa isa);

/** True when the ISA is compiled in AND this CPU can execute it. */
bool isaSupported(Isa isa);

/** The best supported ISA (what PSTAT_SIMD=auto resolves to). */
Isa bestSupportedIsa();

/** Every supported ISA, Scalar first — the sweep order of tests/benches. */
std::vector<Isa> supportedIsas();

/**
 * The process-wide ISA: PSTAT_SIMD when set and valid (invalid
 * values warn on stderr and fall back to auto; an explicitly
 * requested ISA that this build/CPU cannot run warns and falls back
 * to auto as well). Resolved once and cached.
 */
Isa activeIsa();

/**
 * Stripe counts fixing logSumExpSimd's reduction order, independent
 * of the executing ISA (AVX2 vector widths; NEON and the scalar
 * reference implement the same striping, so results never depend on
 * the backend). Element i belongs to stripe i % stripe; the stripes'
 * partial results are combined in a fixed pairwise tree.
 */
inline constexpr int lse_stripes_f64 = 4;
inline constexpr int lse_stripes_f32 = 8;

/**
 * N-ary log-sum-exp over log values with the fixed striped reduction
 * order. Semantics mirror logSumExp(span): the max pass skips NaN
 * (`v > m` ordering), an empty or all--infinity input returns
 * -infinity (never NaN), and any NaN input or +infinity poisons the
 * exponential sum into NaN. exp/log stay scalar libm calls in every
 * backend (there is no bit-exact vector exp), so the vector win is
 * the max pass, the subtractions, and the additions.
 */
double logSumExpSimd(std::span<const double> lvals, Isa isa);
float logSumExpSimd(std::span<const float> lvals, Isa isa);

/** logSumExpSimd on the process-wide activeIsa(). */
double logSumExpSimd(std::span<const double> lvals);
float logSumExpSimd(std::span<const float> lvals);

/**
 * The scalar-array vector: W independent lanes computed by plain
 * scalar loops. This is the portable reference backend — the tile
 * kernels instantiated with ArrayVec validate the SoA tiling logic
 * (and its bit-identity) on hosts without AVX2/NEON, and any new
 * backend only has to match it.
 */
template <typename T, int W>
struct ArrayVec
{
    using Scalar = T;
    static constexpr int width = W;

    T lane[W];

    static ArrayVec
    load(const T *p)
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = p[i];
        return out;
    }

    static ArrayVec
    broadcast(T v)
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = v;
        return out;
    }

    static ArrayVec broadcastZero() { return broadcast(T(0)); }

    void
    store(T *p) const
    {
        for (int i = 0; i < W; ++i)
            p[i] = lane[i];
    }

    friend ArrayVec
    operator+(const ArrayVec &a, const ArrayVec &b)
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = a.lane[i] + b.lane[i];
        return out;
    }

    friend ArrayVec
    operator-(const ArrayVec &a, const ArrayVec &b)
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = a.lane[i] - b.lane[i];
        return out;
    }

    friend ArrayVec
    operator*(const ArrayVec &a, const ArrayVec &b)
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = a.lane[i] * b.lane[i];
        return out;
    }

    /**
     * Lane magnitudes. Only ever consumed by lessThan (the Neumaier
     * dominance test), where |-0| = +0 vs -0 and NaN-sign details
     * cannot change the comparison's outcome.
     */
    ArrayVec
    abs() const
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = lane[i] < T(0) ? -lane[i] : lane[i];
        return out;
    }

    /**
     * Lane-wise `a < b ? a : b`: b when either lane is NaN or both
     * are zeros of any sign — the rule of x86 minpd, which
     * Avx2DoubleVec::min is.
     */
    static ArrayVec
    min(const ArrayVec &a, const ArrayVec &b)
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
        return out;
    }

    struct Mask
    {
        bool lane[W];
    };

    /** a < b per lane; false on NaN (ordered compare). */
    static Mask
    lessThan(const ArrayVec &a, const ArrayVec &b)
    {
        Mask out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = a.lane[i] < b.lane[i];
        return out;
    }

    /** m ? t : f per lane. */
    static ArrayVec
    select(const Mask &m, const ArrayVec &t, const ArrayVec &f)
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = m.lane[i] ? t.lane[i] : f.lane[i];
        return out;
    }
};

#if defined(__AVX2__)

/** AVX2 4 x double. Lane-wise only; see the ArrayVec contract. */
struct Avx2DoubleVec
{
    using Scalar = double;
    static constexpr int width = 4;

    __m256d r;

    static Avx2DoubleVec
    load(const double *p)
    {
        return {_mm256_loadu_pd(p)};
    }

    static Avx2DoubleVec
    broadcast(double v)
    {
        return {_mm256_set1_pd(v)};
    }

    static Avx2DoubleVec
    broadcastZero()
    {
        return {_mm256_setzero_pd()};
    }

    void
    store(double *p) const
    {
        _mm256_storeu_pd(p, r);
    }

    friend Avx2DoubleVec
    operator+(const Avx2DoubleVec &a, const Avx2DoubleVec &b)
    {
        return {_mm256_add_pd(a.r, b.r)};
    }

    friend Avx2DoubleVec
    operator-(const Avx2DoubleVec &a, const Avx2DoubleVec &b)
    {
        return {_mm256_sub_pd(a.r, b.r)};
    }

    friend Avx2DoubleVec
    operator*(const Avx2DoubleVec &a, const Avx2DoubleVec &b)
    {
        return {_mm256_mul_pd(a.r, b.r)};
    }

    Avx2DoubleVec
    abs() const
    {
        return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), r)};
    }

    static Avx2DoubleVec
    min(const Avx2DoubleVec &a, const Avx2DoubleVec &b)
    {
        return {_mm256_min_pd(a.r, b.r)};
    }

    struct Mask
    {
        __m256d m;
    };

    static Mask
    lessThan(const Avx2DoubleVec &a, const Avx2DoubleVec &b)
    {
        return {_mm256_cmp_pd(a.r, b.r, _CMP_LT_OQ)};
    }

    static Avx2DoubleVec
    select(const Mask &m, const Avx2DoubleVec &t,
           const Avx2DoubleVec &f)
    {
        return {_mm256_blendv_pd(f.r, t.r, m.m)};
    }
};

/** AVX2 8 x float. Lane-wise only; see the ArrayVec contract. */
struct Avx2FloatVec
{
    using Scalar = float;
    static constexpr int width = 8;

    __m256 r;

    static Avx2FloatVec
    load(const float *p)
    {
        return {_mm256_loadu_ps(p)};
    }

    static Avx2FloatVec
    broadcast(float v)
    {
        return {_mm256_set1_ps(v)};
    }

    static Avx2FloatVec
    broadcastZero()
    {
        return {_mm256_setzero_ps()};
    }

    void
    store(float *p) const
    {
        _mm256_storeu_ps(p, r);
    }

    friend Avx2FloatVec
    operator+(const Avx2FloatVec &a, const Avx2FloatVec &b)
    {
        return {_mm256_add_ps(a.r, b.r)};
    }

    friend Avx2FloatVec
    operator-(const Avx2FloatVec &a, const Avx2FloatVec &b)
    {
        return {_mm256_sub_ps(a.r, b.r)};
    }

    friend Avx2FloatVec
    operator*(const Avx2FloatVec &a, const Avx2FloatVec &b)
    {
        return {_mm256_mul_ps(a.r, b.r)};
    }

    Avx2FloatVec
    abs() const
    {
        return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), r)};
    }

    struct Mask
    {
        __m256 m;
    };

    static Mask
    lessThan(const Avx2FloatVec &a, const Avx2FloatVec &b)
    {
        return {_mm256_cmp_ps(a.r, b.r, _CMP_LT_OQ)};
    }

    static Avx2FloatVec
    select(const Mask &m, const Avx2FloatVec &t, const Avx2FloatVec &f)
    {
        return {_mm256_blendv_ps(f.r, t.r, m.m)};
    }
};

#endif // __AVX2__

#if defined(__ARM_NEON)

/** NEON 2 x double. Lane-wise only; see the ArrayVec contract. */
struct NeonDoubleVec
{
    using Scalar = double;
    static constexpr int width = 2;

    float64x2_t r;

    static NeonDoubleVec
    load(const double *p)
    {
        return {vld1q_f64(p)};
    }

    static NeonDoubleVec
    broadcast(double v)
    {
        return {vdupq_n_f64(v)};
    }

    static NeonDoubleVec
    broadcastZero()
    {
        return {vdupq_n_f64(0.0)};
    }

    void
    store(double *p) const
    {
        vst1q_f64(p, r);
    }

    friend NeonDoubleVec
    operator+(const NeonDoubleVec &a, const NeonDoubleVec &b)
    {
        return {vaddq_f64(a.r, b.r)};
    }

    friend NeonDoubleVec
    operator-(const NeonDoubleVec &a, const NeonDoubleVec &b)
    {
        return {vsubq_f64(a.r, b.r)};
    }

    friend NeonDoubleVec
    operator*(const NeonDoubleVec &a, const NeonDoubleVec &b)
    {
        return {vmulq_f64(a.r, b.r)};
    }

    NeonDoubleVec
    abs() const
    {
        return {vabsq_f64(r)};
    }

    struct Mask
    {
        uint64x2_t m;
    };

    static Mask
    lessThan(const NeonDoubleVec &a, const NeonDoubleVec &b)
    {
        return {vcltq_f64(a.r, b.r)};
    }

    static NeonDoubleVec
    select(const Mask &m, const NeonDoubleVec &t,
           const NeonDoubleVec &f)
    {
        return {vbslq_f64(m.m, t.r, f.r)};
    }
};

/** NEON 4 x float. Lane-wise only; see the ArrayVec contract. */
struct NeonFloatVec
{
    using Scalar = float;
    static constexpr int width = 4;

    float32x4_t r;

    static NeonFloatVec
    load(const float *p)
    {
        return {vld1q_f32(p)};
    }

    static NeonFloatVec
    broadcast(float v)
    {
        return {vdupq_n_f32(v)};
    }

    static NeonFloatVec
    broadcastZero()
    {
        return {vdupq_n_f32(0.0f)};
    }

    void
    store(float *p) const
    {
        vst1q_f32(p, r);
    }

    friend NeonFloatVec
    operator+(const NeonFloatVec &a, const NeonFloatVec &b)
    {
        return {vaddq_f32(a.r, b.r)};
    }

    friend NeonFloatVec
    operator-(const NeonFloatVec &a, const NeonFloatVec &b)
    {
        return {vsubq_f32(a.r, b.r)};
    }

    friend NeonFloatVec
    operator*(const NeonFloatVec &a, const NeonFloatVec &b)
    {
        return {vmulq_f32(a.r, b.r)};
    }

    NeonFloatVec
    abs() const
    {
        return {vabsq_f32(r)};
    }

    struct Mask
    {
        uint32x4_t m;
    };

    static Mask
    lessThan(const NeonFloatVec &a, const NeonFloatVec &b)
    {
        return {vcltq_f32(a.r, b.r)};
    }

    static NeonFloatVec
    select(const Mask &m, const NeonFloatVec &t, const NeonFloatVec &f)
    {
        return {vbslq_f32(m.m, t.r, f.r)};
    }
};

#endif // __ARM_NEON

/**
 * The widest vector types this translation unit targets: AVX2 in the
 * -mavx2 per-ISA translation units, NEON on AArch64, ArrayVec (at
 * AVX2 widths) everywhere else.
 */
#if defined(__AVX2__)
using DoubleVec = Avx2DoubleVec;
using FloatVec = Avx2FloatVec;
#elif defined(__ARM_NEON)
using DoubleVec = NeonDoubleVec;
using FloatVec = NeonFloatVec;
#else
using DoubleVec = ArrayVec<double, 4>;
using FloatVec = ArrayVec<float, 8>;
#endif

namespace detail
{

/**
 * The one horizontal-max step of the striped LSE: `b > a ? b : a`,
 * the same NaN-skipping idiom as the scalar max pass. Every backend
 * combines stripe maxima with exactly this function in exactly the
 * pairwiseMax tree order — that is what makes logSumExpSimd
 * ISA-invariant.
 */
template <typename T>
inline T
max2(T a, T b)
{
    return b > a ? b : a;
}

/** Fixed pairwise tree over S stripe values: ((v0,v1),(v2,v3))... */
template <typename T, int S>
inline T
pairwiseMax(const T *v)
{
    if constexpr (S == 1) {
        return v[0];
    } else {
        return max2(pairwiseMax<T, S / 2>(v),
                    pairwiseMax<T, S / 2>(v + S / 2));
    }
}

/** Fixed pairwise sum tree: ((v0+v1)+(v2+v3))... */
template <typename T, int S>
inline T
pairwiseSum(const T *v)
{
    if constexpr (S == 1) {
        return v[0];
    } else {
        return pairwiseSum<T, S / 2>(v) +
               pairwiseSum<T, S / 2>(v + S / 2);
    }
}

/** AVX2 backends (defined in simd_avx2.cc, built with -mavx2). */
double logSumExpAvx2(std::span<const double> lvals);
float logSumExpAvx2(std::span<const float> lvals);

} // namespace detail

} // namespace pstat::simd

#endif // PSTAT_CORE_SIMD_HH
