#include "hmm/forward_simd.hh"

#include "hmm/forward_simd_tile.hh"

namespace pstat::hmm
{

template <typename T>
ForwardOutcome<T>
forwardSimd(const Model &model, std::span<const int> obs,
            simd::Isa isa)
{
    if (simd::isaSupported(isa)) {
        switch (isa) {
        case simd::Isa::Avx2:
#if defined(PSTAT_SIMD_HAS_AVX2)
            if constexpr (std::is_same_v<T, double>)
                return detail::forwardTileAvx2F64(model, obs);
            else
                return detail::forwardTileAvx2F32(model, obs);
#else
            break;
#endif
        case simd::Isa::Neon:
#if defined(PSTAT_SIMD_HAS_NEON)
            if constexpr (std::is_same_v<T, double>)
                return detail::forwardTileImpl<simd::NeonDoubleVec>(
                    model, obs);
            else
                return detail::forwardTileImpl<simd::NeonFloatVec>(
                    model, obs);
#else
            break;
#endif
        case simd::Isa::Scalar:
            break;
        }
    }
    // Scalar and every unsupported request run the legacy kernel —
    // bit-identical to the tiles by contract, so falling back never
    // changes a result.
    return forward<T>(model, obs, Reduction::Sequential);
}

template ForwardOutcome<double>
forwardSimd<double>(const Model &, std::span<const int>, simd::Isa);
template ForwardOutcome<float>
forwardSimd<float>(const Model &, std::span<const int>, simd::Isa);

ForwardOutcome<LogDouble>
forwardLogNarySimd(const Model &model, std::span<const int> obs,
                   simd::Isa isa)
{
#if defined(PSTAT_SIMD_HAS_AVX2)
    if (isa == simd::Isa::Avx2 && simd::isaSupported(isa))
        return detail::forwardLogNaryTileAvx2(model, obs);
#endif
    (void)isa;
    return forwardLogNary(model, obs);
}

namespace detail
{

ForwardOutcome<double>
forwardTilePortableF64(const Model &model, std::span<const int> obs)
{
    return forwardTileImpl<simd::ArrayVec<double, 4>>(model, obs);
}

ForwardOutcome<float>
forwardTilePortableF32(const Model &model, std::span<const int> obs)
{
    return forwardTileImpl<simd::ArrayVec<float, 8>>(model, obs);
}

ForwardOutcome<LogDouble>
forwardLogNaryTilePortable(const Model &model, std::span<const int> obs)
{
    return forwardLogNaryTileImpl<simd::ArrayVec<double, 4>>(model, obs);
}

} // namespace detail

} // namespace pstat::hmm
