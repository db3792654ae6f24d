#include "core/simd.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "engine/env.hh"

namespace pstat::simd
{

namespace
{

/**
 * The reference striped LSE: S independent stripe maxima / partial
 * sums (element i belongs to stripe i % S) combined in the fixed
 * pairwise tree of detail::pairwiseMax / pairwiseSum. This scalar
 * loop DEFINES the result of logSumExpSimd; every vector backend is
 * tested bit-for-bit against it. Edge cases deliberately mirror
 * logSumExp(span): NaN terms are skipped by the `v > m` max idiom,
 * an empty or all--infinity input returns -infinity before any
 * exp(-inf - -inf) = NaN can form, and a NaN or +infinity term
 * poisons the exponential sum into NaN.
 */
template <typename T, int S>
T
logSumExpStriped(std::span<const T> lvals)
{
    constexpr T neg_inf = -std::numeric_limits<T>::infinity();
    T m[S];
    for (int j = 0; j < S; ++j)
        m[j] = neg_inf;
    for (size_t i = 0; i < lvals.size(); ++i) {
        const T v = lvals[i];
        T &mj = m[i % S];
        mj = v > mj ? v : mj;
    }
    const T mm = detail::pairwiseMax<T, S>(m);
    if (std::isinf(mm) && mm < T(0))
        return neg_inf;

    T s[S];
    for (int j = 0; j < S; ++j)
        s[j] = T(0);
    for (size_t i = 0; i < lvals.size(); ++i)
        s[i % S] += std::exp(lvals[i] - mm);
    return mm + std::log(detail::pairwiseSum<T, S>(s));
}

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Avx2:
        return "avx2";
    case Isa::Neon:
        return "neon";
    case Isa::Scalar:
        break;
    }
    return "scalar";
}

bool
isaCompiled(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return true;
    case Isa::Avx2:
#if defined(PSTAT_SIMD_HAS_AVX2)
        return true;
#else
        return false;
#endif
    case Isa::Neon:
#if defined(PSTAT_SIMD_HAS_NEON)
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
isaSupported(Isa isa)
{
    if (!isaCompiled(isa))
        return false;
    if (isa == Isa::Avx2) {
#if defined(PSTAT_SIMD_HAS_AVX2) && defined(__GNUC__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    // Scalar always runs; NEON is baseline on every AArch64 this
    // builds for, so compiled-in implies executable.
    return true;
}

Isa
bestSupportedIsa()
{
    if (isaSupported(Isa::Avx2))
        return Isa::Avx2;
    if (isaSupported(Isa::Neon))
        return Isa::Neon;
    return Isa::Scalar;
}

std::vector<Isa>
supportedIsas()
{
    std::vector<Isa> out{Isa::Scalar};
    if (isaSupported(Isa::Avx2))
        out.push_back(Isa::Avx2);
    if (isaSupported(Isa::Neon))
        out.push_back(Isa::Neon);
    return out;
}

Isa
activeIsa()
{
    static const Isa isa = [] {
        const char *env = std::getenv("PSTAT_SIMD");
        if (env == nullptr || env[0] == '\0')
            return bestSupportedIsa();
        const auto token = engine::parseToken(
            env, {"auto", "scalar", "avx2", "neon"});
        if (!token) {
            std::fprintf(stderr,
                         "pstat: ignoring invalid PSTAT_SIMD=\"%s\" "
                         "(want auto/scalar/avx2/neon)\n",
                         env);
            return bestSupportedIsa();
        }
        if (*token == "auto")
            return bestSupportedIsa();
        if (*token == "scalar")
            return Isa::Scalar;
        const Isa want = *token == "avx2" ? Isa::Avx2 : Isa::Neon;
        if (!isaSupported(want)) {
            const Isa fallback = bestSupportedIsa();
            std::fprintf(stderr,
                         "pstat: PSTAT_SIMD=%s is not %s by this "
                         "build/CPU; falling back to %s\n",
                         isaName(want),
                         isaCompiled(want) ? "executable"
                                           : "compiled in",
                         isaName(fallback));
            return fallback;
        }
        return want;
    }();
    return isa;
}

double
logSumExpSimd(std::span<const double> lvals, Isa isa)
{
#if defined(PSTAT_SIMD_HAS_AVX2)
    if (isa == Isa::Avx2 && isaSupported(Isa::Avx2))
        return detail::logSumExpAvx2(lvals);
#endif
    // Scalar, NEON (whose 2 x double registers cannot carry the
    // fixed 4-stripe order directly; the exp calls dominate anyway),
    // and any unsupported request all run the reference — which is
    // bit-identical to every backend by contract, so falling back
    // never changes a result.
    (void)isa;
    return logSumExpStriped<double, lse_stripes_f64>(lvals);
}

float
logSumExpSimd(std::span<const float> lvals, Isa isa)
{
#if defined(PSTAT_SIMD_HAS_AVX2)
    if (isa == Isa::Avx2 && isaSupported(Isa::Avx2))
        return detail::logSumExpAvx2(lvals);
#endif
    (void)isa;
    return logSumExpStriped<float, lse_stripes_f32>(lvals);
}

double
logSumExpSimd(std::span<const double> lvals)
{
    return logSumExpSimd(lvals, activeIsa());
}

float
logSumExpSimd(std::span<const float> lvals)
{
    return logSumExpSimd(lvals, activeIsa());
}

} // namespace pstat::simd
