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
 *     abs, compare-lt + select; min, max, gather, gatherLowBits and
 *     shiftBitsLeft on ArrayVec and Avx2DoubleVec, for the analytic
 *     bounds' read pass and the in-house exp, log1p and LSE), and
 *     every operation is lane-wise — no horizontal instruction ever
 *     mixes lanes — so a kernel templated over a wrapper executes,
 *     per lane, exactly the scalar kernel's IEEE operation sequence.
 *     That is the whole bit-identity argument for the SoA tile
 *     kernels (pbd::pvalueBatchSimd, hmm::forwardSimd): lane c of
 *     the vector run performs the same multiplies and adds, in the
 *     same order, as a scalar run of column c. (-ffp-contract=off
 *     project-wide keeps compilers from fusing any of those into
 *     FMAs.)
 *
 *  2. Runtime ISA dispatch: Isa names a backend, activeIsa() resolves
 *     the PSTAT_SIMD knob (auto|scalar|avx2|neon, strict-parsed like
 *     the other engine knobs) against what this build and CPU
 *     support, once, and caches it. Isa::Scalar always means the
 *     original per-column scalar kernels — the forced-scalar CI leg
 *     runs the legacy code paths, not a 1-lane emulation.
 *
 *  3. Three bit-level lane operations, gather (a table lookup by
 *     integer-valued lanes), gatherLowBits (a lookup by the low bits
 *     of a lane's bit pattern) and shiftBitsLeft (a lane's bit
 *     pattern shifted), which with min and max is all that
 *     core/exp_kernel.hh needs beyond arithmetic to write one
 *     branch-free exp, log1p and binary LSE over these wrappers.
 *     All are exact, so those kernels, too, run the same IEEE
 *     operations per lane on every backend: the scalar LSEs of
 *     core/logspace.hh (LogDouble's add and the n-ary logSumExp)
 *     share their bits with the vector log-space forward tile
 *     (hmm::forwardLogNarySimd) and the `log` p-value tile
 *     (pbd::pvalueBatchSimd<LogDouble>).
 */

#ifndef PSTAT_CORE_SIMD_HH
#define PSTAT_CORE_SIMD_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
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

    /** Lane-wise `a > b ? a : b`: the rule of x86 maxpd, as min. */
    static ArrayVec
    max(const ArrayVec &a, const ArrayVec &b)
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
        return out;
    }

    /**
     * Lane-wise table[index]. Every index lane must hold a
     * non-negative integer (in T) that indexes the table.
     */
    static ArrayVec
    gather(const T *table, const ArrayVec &index)
    {
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = table[static_cast<int>(index.lane[i])];
        return out;
    }

    /**
     * Lane-wise table[i], i the low N bits of the index lane's bit
     * pattern: a lookup whose row is already in the lane's bits (a
     * value rounded by a shifter), with no float-to-integer
     * conversion.
     */
    template <int N>
    static ArrayVec
    gatherLowBits(const T *table, const ArrayVec &index)
    {
        using Bits = std::conditional_t<sizeof(T) == 8, uint64_t,
                                        uint32_t>;
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = table[std::bit_cast<Bits>(index.lane[i]) &
                                ((Bits(1) << N) - 1)];
        return out;
    }

    /** Each lane's bit pattern shifted left by N, zeros shifted in. */
    template <int N>
    ArrayVec
    shiftBitsLeft() const
    {
        using Bits = std::conditional_t<sizeof(T) == 8, uint64_t,
                                        uint32_t>;
        ArrayVec out;
        for (int i = 0; i < W; ++i)
            out.lane[i] = std::bit_cast<T>(
                static_cast<Bits>(std::bit_cast<Bits>(lane[i]) << N));
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

    static Avx2DoubleVec
    max(const Avx2DoubleVec &a, const Avx2DoubleVec &b)
    {
        return {_mm256_max_pd(a.r, b.r)};
    }

    static Avx2DoubleVec
    gather(const double *table, const Avx2DoubleVec &index)
    {
        // The masked form with every lane enabled: GCC's unmasked
        // _mm256_i32gather_pd warns on its undefined source operand.
        return {_mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), table, _mm256_cvttpd_epi32(index.r),
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8)};
    }

    template <int N>
    static Avx2DoubleVec
    gatherLowBits(const double *table, const Avx2DoubleVec &index)
    {
        const __m256i row =
            _mm256_and_si256(_mm256_castpd_si256(index.r),
                             _mm256_set1_epi64x((int64_t(1) << N) - 1));
        return {_mm256_mask_i64gather_pd(
            _mm256_setzero_pd(), table, row,
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8)};
    }

    template <int N>
    Avx2DoubleVec
    shiftBitsLeft() const
    {
        return {_mm256_castsi256_pd(
            _mm256_slli_epi64(_mm256_castpd_si256(r), N))};
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

} // namespace detail

} // namespace pstat::simd

#endif // PSTAT_CORE_SIMD_HH
