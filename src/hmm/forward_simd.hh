/**
 * @file
 * SIMD entry points for the HMM forward pass.
 *
 * Both vectorize the state loop within one sequence
 * (forward_simd_tile.hh) and are bit-identical to their scalar
 * oracle on every ISA, so the engine routes through them without
 * moving any committed baseline. Isa::Scalar runs the oracle itself.
 *
 *  - forwardSimd<T> is forward<T>(Reduction::Sequential) for
 *    T = double / float: the Software dataflow of binary64 and
 *    binary32.
 *  - forwardLogNarySimd is forwardLogNary, the Listing-3 n-ary-LSE
 *    dataflow on `log`: the Accelerator dataflow, the default of
 *    every `log` forward plan. Its lanes share the in-house exp
 *    (core/exp_kernel.hh) with the scalar logSumExp(span). The
 *    binary32 carrier (`log32`) keeps its scalar libm forward.
 */

#ifndef PSTAT_HMM_FORWARD_SIMD_HH
#define PSTAT_HMM_FORWARD_SIMD_HH

#include <span>

#include "core/simd.hh"
#include "hmm/forward.hh"
#include "hmm/model.hh"

namespace pstat::hmm
{

/**
 * Listing-1 forward likelihood with the state loop vectorized;
 * bit-identical to forward<T>(model, obs, Reduction::Sequential).
 * T is double or float.
 */
template <typename T>
ForwardOutcome<T> forwardSimd(const Model &model,
                              std::span<const int> obs,
                              simd::Isa isa = simd::activeIsa());

extern template ForwardOutcome<double>
forwardSimd<double>(const Model &, std::span<const int>, simd::Isa);
extern template ForwardOutcome<float>
forwardSimd<float>(const Model &, std::span<const int>, simd::Isa);

/**
 * Listing-3 n-ary-LSE forward pass with the state loop vectorized;
 * bit-identical to forwardLogNary(model, obs). AVX2 runs the tile;
 * Scalar, NEON (NeonDoubleVec has no gather, so the tile is not
 * instantiated there) and any unsupported request run
 * forwardLogNary.
 */
ForwardOutcome<LogDouble>
forwardLogNarySimd(const Model &model, std::span<const int> obs,
                   simd::Isa isa = simd::activeIsa());

namespace detail
{

/** AVX2 tiles (forward_simd_avx2.cc, -mavx2; gate on isaSupported). */
ForwardOutcome<double> forwardTileAvx2F64(const Model &model,
                                          std::span<const int> obs);
ForwardOutcome<float> forwardTileAvx2F32(const Model &model,
                                         std::span<const int> obs);
ForwardOutcome<LogDouble>
forwardLogNaryTileAvx2(const Model &model, std::span<const int> obs);

/**
 * The portable ArrayVec tile at the AVX2 widths: the reference the
 * tests use to validate the state-tiling bit-identity on any host.
 */
ForwardOutcome<double>
forwardTilePortableF64(const Model &model, std::span<const int> obs);
ForwardOutcome<float>
forwardTilePortableF32(const Model &model, std::span<const int> obs);
ForwardOutcome<LogDouble>
forwardLogNaryTilePortable(const Model &model, std::span<const int> obs);

} // namespace detail

} // namespace pstat::hmm

#endif // PSTAT_HMM_FORWARD_SIMD_HH
