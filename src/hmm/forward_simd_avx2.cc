/**
 * @file
 * AVX2 instantiations of the forward-pass state-tile kernels. Compiled
 * with -mavx2 (see CMakeLists); callable only when
 * simd::isaSupported(Isa::Avx2) said yes at runtime.
 */

#include "core/simd.hh"
#include "hmm/forward_simd.hh"
#include "hmm/forward_simd_tile.hh"

namespace pstat::hmm::detail
{

ForwardOutcome<double>
forwardTileAvx2F64(const Model &model, std::span<const int> obs)
{
    return forwardTileImpl<simd::Avx2DoubleVec>(model, obs);
}

ForwardOutcome<float>
forwardTileAvx2F32(const Model &model, std::span<const int> obs)
{
    return forwardTileImpl<simd::Avx2FloatVec>(model, obs);
}

ForwardOutcome<LogDouble>
forwardLogNaryTileAvx2(const Model &model, std::span<const int> obs)
{
    return forwardLogNaryTileImpl<simd::Avx2DoubleVec>(model, obs);
}

} // namespace pstat::hmm::detail
