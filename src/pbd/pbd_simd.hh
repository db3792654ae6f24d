/**
 * @file
 * Multi-column SIMD batch entry points for the Listing-2 p-value DP.
 *
 * pvalueBatchSimd evaluates a whole batch of alignment columns by
 * transposing groups of Vec::width columns into structure-of-arrays
 * tiles (pbd_simd_tile.hh) and advancing all lanes per instruction.
 * Results are bit-identical, column by column, to the scalar
 * pvalue<T> / pvalueCompensated<T> oracles — the tests enforce this
 * for binary64, binary32, `log` and the ScaledDD oracle on ragged
 * batch shapes — so routing the engine's default paths through here
 * moves no committed baseline.
 *
 * Columns are internally processed in descending N*K (total DP work)
 * order so that a tile's lanes share DP depth (a tile always runs to
 * its longest lane's K and N; mixed tiles would burn the difference),
 * and results are scattered back to input order. Two vector forms
 * split the work by K: tiles handle groups up to a K cap (the L1
 * budget of the DP state, or for `log` a measured crossover), while
 * deeper columns (and sub-tile remainders) run a row-vectorized
 * single-column kernel that keeps the scalar kernel's compact 2*K
 * working set. Isa::Scalar runs the scalar kernel for every column —
 * the legacy path, not a 1-lane emulation.
 *
 * `log` (LogDouble) batches run a tile whose lanes carry ln values:
 * a multiply is a lane add and an add is the lane LSE of
 * core/exp_kernel.hh, the same LSE every scalar LogDouble add runs.
 */

#ifndef PSTAT_PBD_PBD_SIMD_HH
#define PSTAT_PBD_PBD_SIMD_HH

#include <span>
#include <vector>

#include "core/dd.hh"
#include "core/logspace.hh"
#include "core/simd.hh"
#include "pbd/dataset.hh"

namespace pstat::pbd
{

/**
 * Listing-2 p-values of every column under plain accumulation;
 * out[i] is bit-identical to pvalue<T>(columns[i]). T is double or
 * float (the formats with hardware lanes), or ScaledDD (the oracle)
 * or LogDouble (`log`): on AVX2 their columns run a SoA tile, and
 * every other ISA and every column with a probability outside
 * [0, 1] runs the scalar kernel. out.size() must equal
 * columns.size().
 */
template <typename T>
void pvalueBatchSimd(std::span<const ColumnView> columns,
                     std::span<T> out,
                     simd::Isa isa = simd::activeIsa());

/**
 * Listing-2 p-values under the Neumaier-compensated policy; out[i]
 * is bit-identical to pvalueCompensated<T>(columns[i]).
 */
template <typename T>
void pvalueBatchCompensatedSimd(std::span<const ColumnView> columns,
                                std::span<T> out,
                                simd::Isa isa = simd::activeIsa());

extern template void
pvalueBatchSimd<double>(std::span<const ColumnView>,
                        std::span<double>, simd::Isa);
extern template void
pvalueBatchSimd<float>(std::span<const ColumnView>, std::span<float>,
                       simd::Isa);
extern template void
pvalueBatchSimd<ScaledDD>(std::span<const ColumnView>,
                          std::span<ScaledDD>, simd::Isa);
extern template void
pvalueBatchSimd<LogDouble>(std::span<const ColumnView>,
                           std::span<LogDouble>, simd::Isa);
extern template void
pvalueBatchCompensatedSimd<double>(std::span<const ColumnView>,
                                   std::span<double>, simd::Isa);
extern template void
pvalueBatchCompensatedSimd<float>(std::span<const ColumnView>,
                                  std::span<float>, simd::Isa);

/**
 * The SoA tile a p-value batch of T runs on one ISA: its lane count,
 * and the largest K it takes (deeper columns run the row kernel, or
 * for the oracle the scalar kernel). width is 0 when T has no tile
 * there.
 */
struct TileShape
{
    size_t width = 0; //!< columns per tile; 0 when there is no tile
    size_t k_cap = 0; //!< the largest K a tile takes
};

/**
 * The tile shape of T's batches on @p isa; T is ScaledDD or
 * LogDouble, the lanes tiles.
 */
template <typename T>
TileShape pvalueTileShape(simd::Isa isa = simd::activeIsa());

extern template TileShape pvalueTileShape<ScaledDD>(simd::Isa);
extern template TileShape pvalueTileShape<LogDouble>(simd::Isa);

/** Borrowed views of owned columns (valid while the columns live). */
inline std::vector<ColumnView>
viewsOf(std::span<const Column> columns)
{
    std::vector<ColumnView> views;
    views.reserve(columns.size());
    for (const Column &column : columns)
        views.push_back(column.view());
    return views;
}

namespace detail
{

/**
 * One AVX2 SoA tile (4 x double / 8 x float lanes); defined in
 * pbd_simd_avx2.cc, callable only when isaSupported(Isa::Avx2).
 */
void pvalueTileAvx2(const ColumnView *cols, double *out,
                    bool compensated);
void pvalueTileAvx2(const ColumnView *cols, float *out,
                    bool compensated);

/**
 * One column with the DP rows vectorized (AVX2), for deep-tail K
 * where the SoA tile would outgrow L1; defined in pbd_simd_avx2.cc.
 */
void pvalueColumnRowsAvx2(const ColumnView &column, double *out,
                          bool compensated);
void pvalueColumnRowsAvx2(const ColumnView &column, float *out,
                          bool compensated);

/**
 * The portable ArrayVec tile at the AVX2 widths (4 x double /
 * 8 x float): the scalar-loop reference backend the tests use to
 * validate the SoA tiling (and its bit-identity argument) on any
 * host, with or without vector hardware.
 */
void pvalueTilePortable(const ColumnView *cols, double *out,
                        bool compensated);
void pvalueTilePortable(const ColumnView *cols, float *out,
                        bool compensated);

/**
 * One AVX2 ScaledDD or `log` tile (4 lanes, pvalueTileLanesImpl over
 * Avx2DoubleVec): the plain-sum p-values of 4 columns whose
 * probabilities all lie in [0, 1]; defined in pbd_simd_avx2.cc,
 * callable only when isaSupported(Isa::Avx2).
 */
void pvalueTileAvx2(const ColumnView *cols, ScaledDD *out);
void pvalueTileAvx2(const ColumnView *cols, LogDouble *out);

/**
 * The `log` row-vectorized column kernel (AVX2), for columns past
 * the `log` tile's cap whose probabilities all lie in [0, 1].
 */
void pvalueColumnRowsAvx2(const ColumnView &column, LogDouble *out);

/**
 * The two vector forms a `log` batch splits its columns between, on
 * @p isa: one tile of pvalueTileShape<LogDouble>(isa).width columns,
 * and one column through the row kernel, whatever their K. fig15
 * times them against each other to place the tile's K cap. Every
 * probability must lie in [0, 1]. Each returns false, and writes
 * nothing, when @p isa runs no `log` tile (width 0), so callers need
 * not know which ISAs are compiled in.
 */
bool pvalueTileLog(const ColumnView *cols, LogDouble *out,
                   simd::Isa isa);
bool pvalueColumnRowsLog(const ColumnView &column, LogDouble *out,
                         simd::Isa isa);

/**
 * The same ScaledDD and `log` tiles over ArrayVec<double, 4>: the
 * portable references the tests hold to the scalar kernels on any
 * host.
 */
void pvalueTilePortable(const ColumnView *cols, ScaledDD *out);
void pvalueTilePortable(const ColumnView *cols, LogDouble *out);

/** The portable ArrayVec row-vectorized column kernel (same role). */
void pvalueColumnRowsPortable(const ColumnView &column, double *out,
                              bool compensated);
void pvalueColumnRowsPortable(const ColumnView &column, float *out,
                              bool compensated);
void pvalueColumnRowsPortable(const ColumnView &column, LogDouble *out);

} // namespace detail

} // namespace pstat::pbd

#endif // PSTAT_PBD_PBD_SIMD_HH
