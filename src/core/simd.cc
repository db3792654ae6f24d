#include "core/simd.hh"

#include <cstdio>
#include <cstdlib>

#include "core/exp_kernel.hh"
#include "engine/env.hh"

namespace pstat::simd
{

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

namespace detail
{

void
expKernelBatch(std::span<const double> x, std::span<double> out,
               Isa isa)
{
    size_t i = 0;
#if defined(PSTAT_SIMD_HAS_AVX2)
    if (isa == Isa::Avx2 && isaSupported(Isa::Avx2))
        i = expKernelBatchAvx2(x, out);
#endif
    // The tail, Scalar, NEON and any unsupported request run the
    // one-lane kernel, which every backend matches bit for bit.
    (void)isa;
    for (; i < x.size(); ++i)
        out[i] = expKernel(x[i]);
}

void
logSumExpBatch(std::span<const double> a, std::span<const double> b,
               std::span<double> out, Isa isa)
{
    size_t i = 0;
#if defined(PSTAT_SIMD_HAS_AVX2)
    if (isa == Isa::Avx2 && isaSupported(Isa::Avx2))
        i = logSumExpBatchAvx2(a, b, out);
#endif
    (void)isa;
    for (; i < a.size(); ++i)
        out[i] = logSumExp(a[i], b[i]);
}

} // namespace detail

} // namespace pstat::simd
