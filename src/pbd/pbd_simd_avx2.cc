/**
 * @file
 * AVX2 instantiations of the Listing-2 SoA tile kernels (binary64,
 * binary32, the ScaledDD oracle and `log`), of `log`'s row kernel,
 * and of the analytic bounds' read pass. Compiled with -mavx2 (see
 * CMakeLists); callable only when simd::isaSupported(Isa::Avx2) said
 * yes at runtime.
 */

#include "core/simd.hh"
#include "pbd/pbd_simd.hh"
#include "pbd/pbd_simd_tile.hh"
#include "pbd/read_pass.hh"

namespace pstat::pbd::detail
{

void
pvalueTileAvx2(const ColumnView *cols, double *out, bool compensated)
{
    pvalueTileRun<simd::Avx2DoubleVec>(cols, out, compensated);
}

void
pvalueTileAvx2(const ColumnView *cols, float *out, bool compensated)
{
    pvalueTileRun<simd::Avx2FloatVec>(cols, out, compensated);
}

void
pvalueTileAvx2(const ColumnView *cols, ScaledDD *out)
{
    pvalueTileLanesImpl<ScaledDDLanes<simd::Avx2DoubleVec>>(cols, out);
}

void
pvalueTileAvx2(const ColumnView *cols, LogDouble *out)
{
    pvalueTileLanesImpl<LnLanes<simd::Avx2DoubleVec>>(cols, out);
}

void
pvalueColumnRowsAvx2(const ColumnView &column, LogDouble *out)
{
    *out = pvalueColumnRowsLogImpl<simd::Avx2DoubleVec>(column);
}

void
pvalueColumnRowsAvx2(const ColumnView &column, double *out,
                     bool compensated)
{
    *out = pvalueColumnRowsRun<simd::Avx2DoubleVec>(column,
                                                    compensated);
}

void
pvalueColumnRowsAvx2(const ColumnView &column, float *out,
                     bool compensated)
{
    *out =
        pvalueColumnRowsRun<simd::Avx2FloatVec>(column, compensated);
}

ReadStats
readPassAvx2(std::span<const double> probs)
{
    return readPassRun<simd::Avx2DoubleVec>(probs);
}

} // namespace pstat::pbd::detail
