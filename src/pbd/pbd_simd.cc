#include "pbd/pbd_simd.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <utility>

#include "core/real_traits.hh"
#include "pbd/pbd.hh"
#include "pbd/pbd_simd_tile.hh"

namespace pstat::pbd
{

namespace
{

/**
 * The scalar oracle for one column under either policy. ScaledDD
 * batches are plain-sum only: the registry keeps the oracle's
 * Neumaier sum per column. LogDouble is not Compensable: both
 * policies are its plain sum.
 */
template <typename T>
T
scalarPValue(const ColumnView &column, bool compensated)
{
    if constexpr (std::is_same_v<T, ScaledDD>) {
        assert(!compensated);
        return pvalueOracle(column.success_probs, column.k);
    } else if constexpr (std::is_same_v<T, LogDouble>) {
        (void)compensated;
        return pvalue<LogDouble>(column.success_probs, column.k);
    } else {
        if (compensated)
            return pvalueCompensated<T>(column.success_probs, column.k);
        return pvalue<T>(column.success_probs, column.k);
    }
}

/**
 * One ISA's kernels for scalar type T: the SoA tile, the
 * row-vectorized single-column kernel for K beyond the tile's cap,
 * the lane count, and the cap: the largest group K the tile may run
 * with (k_tile_cap). For the IEEE carriers the cap keeps the tile's
 * double-buffered 2 * kmax * width DP state inside a 32 KiB L1
 * slice — past it the tile's loads fall out of L1 and lose to the
 * scalar kernel's compact buffers, so deep-tail columns go through
 * the row kernel instead. The measured AVX2 crossover sits near the
 * resulting K = 512 for both carriers. (`log` sets its cap by a
 * measured crossover: k_log_tile_cap.)
 */
template <typename T>
struct TileBackend
{
    void (*tile)(const ColumnView *, T *, bool) = nullptr;
    void (*column)(const ColumnView &, T *, bool) = nullptr;
    int width = 1;
    size_t k_tile_cap = 0;
};

constexpr size_t k_l1_budget_bytes = 32 * 1024;

#if defined(PSTAT_SIMD_HAS_NEON)

void
pvalueTileNeon(const ColumnView *cols, double *out, bool compensated)
{
    detail::pvalueTileRun<simd::NeonDoubleVec>(cols, out, compensated);
}

void
pvalueTileNeon(const ColumnView *cols, float *out, bool compensated)
{
    detail::pvalueTileRun<simd::NeonFloatVec>(cols, out, compensated);
}

void
pvalueColumnRowsNeon(const ColumnView &column, double *out,
                     bool compensated)
{
    *out = detail::pvalueColumnRowsRun<simd::NeonDoubleVec>(
        column, compensated);
}

void
pvalueColumnRowsNeon(const ColumnView &column, float *out,
                     bool compensated)
{
    *out = detail::pvalueColumnRowsRun<simd::NeonFloatVec>(
        column, compensated);
}

#endif // PSTAT_SIMD_HAS_NEON

template <typename T>
TileBackend<T>
tileBackendFor(simd::Isa isa)
{
    TileBackend<T> backend;
    if (!simd::isaSupported(isa))
        return backend; // unsupported request: scalar fallback
    switch (isa) {
    case simd::Isa::Avx2:
#if defined(PSTAT_SIMD_HAS_AVX2)
        backend.tile = [](const ColumnView *cols, T *out,
                          bool compensated) {
            detail::pvalueTileAvx2(cols, out, compensated);
        };
        backend.column = [](const ColumnView &column, T *out,
                            bool compensated) {
            detail::pvalueColumnRowsAvx2(column, out, compensated);
        };
        backend.width = std::is_same_v<T, double> ? 4 : 8;
#endif
        break;
    case simd::Isa::Neon:
#if defined(PSTAT_SIMD_HAS_NEON)
        backend.tile = [](const ColumnView *cols, T *out,
                          bool compensated) {
            pvalueTileNeon(cols, out, compensated);
        };
        backend.column = [](const ColumnView &column, T *out,
                            bool compensated) {
            pvalueColumnRowsNeon(column, out, compensated);
        };
        backend.width = std::is_same_v<T, double> ? 2 : 4;
#endif
        break;
    case simd::Isa::Scalar:
        break;
    }
    if (backend.tile != nullptr) {
        backend.k_tile_cap =
            k_l1_budget_bytes /
            (2 * static_cast<size_t>(backend.width) * sizeof(T));
    }
    return backend;
}

/**
 * The oracle's backend: the ScaledDD tile on AVX2, whose L1 cap
 * (24-byte lanes) is K <= 170, and the scalar oracle for every
 * column the tile does not take. The oracle has no row kernel and no
 * NEON tile.
 */
template <>
TileBackend<ScaledDD>
tileBackendFor<ScaledDD>(simd::Isa isa)
{
    TileBackend<ScaledDD> backend;
#if defined(PSTAT_SIMD_HAS_AVX2)
    if (isa == simd::Isa::Avx2 && simd::isaSupported(isa)) {
        backend.tile = [](const ColumnView *cols, ScaledDD *out, bool) {
            detail::pvalueTileAvx2(cols, out);
        };
        backend.column = [](const ColumnView &column, ScaledDD *out,
                            bool compensated) {
            *out = scalarPValue<ScaledDD>(column, compensated);
        };
        backend.width = 4;
        backend.k_tile_cap =
            k_l1_budget_bytes / (2 * 4 * sizeof(ScaledDD));
    }
#else
    (void)isa;
#endif
    return backend;
}

/**
 * The largest K the `log` tile takes: near the measured crossover
 * with the row kernel, not an L1 budget (the LSE, not the loads,
 * bounds both forms). fig15's (d) rows time both forms on equal-K
 * columns (N 150-250, one AVX2 thread; four runs, three at
 * PSTAT_SCALE=1 and one at 0.2, Xeon VM): the tile is 1.9-2.0x
 * faster at K = 2 and 1.3-1.45x at K = 8, where a step's few rows
 * leave the row kernel's vectors part empty; from K = 16 to 24 the
 * two forms are within 8% of each other either way (one run read
 * the tile 1.25x faster at 20), and from K = 32 the row kernel is
 * ahead (tile 0.76-0.99x). On lofreq-stream, caps of 16 and 24 ran
 * the same: 41.7k against 41.3k columns/s in 10 alternating pairs,
 * 24 ahead in 5. The cap takes 16, the low end of the even range,
 * because a real tile mixes Ks and runs every lane to the deepest.
 * The equal-K rows do not charge that cost; the argument is
 * reasoned, not measured.
 */
constexpr size_t k_log_tile_cap = 16;

/**
 * `log`'s backend: the ln-lanes tile and its row kernel on AVX2.
 * The NEON double wrapper has no gather, min or max, so `log` has no
 * NEON tile.
 */
template <>
TileBackend<LogDouble>
tileBackendFor<LogDouble>(simd::Isa isa)
{
    TileBackend<LogDouble> backend;
#if defined(PSTAT_SIMD_HAS_AVX2)
    if (isa == simd::Isa::Avx2 && simd::isaSupported(isa)) {
        backend.tile = [](const ColumnView *cols, LogDouble *out,
                          bool) { detail::pvalueTileAvx2(cols, out); };
        backend.column = [](const ColumnView &column, LogDouble *out,
                            bool) {
            detail::pvalueColumnRowsAvx2(column, out);
        };
        backend.width = 4;
        backend.k_tile_cap = k_log_tile_cap;
    }
#else
    (void)isa;
#endif
    return backend;
}

/**
 * Every probability in [0, 1] (NaN fails): the domain of the
 * ScaledDD and `log` tiles and of the `log` row kernel.
 */
bool
inLanesTileDomain(const ColumnView &column)
{
    for (const double p : column.success_probs) {
        if (!(p >= 0.0 && p <= 1.0))
            return false;
    }
    return true;
}

template <typename T>
void
pvalueBatchImpl(std::span<const ColumnView> columns, std::span<T> out,
                simd::Isa isa, bool compensated)
{
    assert(columns.size() == out.size());
    const size_t n = columns.size();
    const TileBackend<T> backend = tileBackendFor<T>(isa);
    const auto width = static_cast<size_t>(backend.width);
    if (backend.tile == nullptr) {
        for (size_t i = 0; i < n; ++i)
            out[i] = scalarPValue<T>(columns[i], compensated);
        return;
    }

    // K <= 0 columns are P(X >= K) = 1 by definition: the scalar
    // kernel answers them in O(1), so letting them occupy tile lanes
    // (a full inert DP run each) would hand back the whole win on
    // realistic calling scans, where most background columns saw no
    // noise read at all. Answer them here and tile only the rest.
    std::vector<uint32_t> order;
    order.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        if (columns[i].k > 0) {
            if constexpr (std::is_same_v<T, ScaledDD> ||
                          std::is_same_v<T, LogDouble>) {
                if (!inLanesTileDomain(columns[i])) {
                    out[i] = scalarPValue<T>(columns[i], compensated);
                    continue;
                }
            }
            order.push_back(i);
        } else {
            out[i] = RealTraits<T>::one();
        }
    }

    // Tile lanes run in lockstep to the deepest lane's K and N — a
    // tile costs about max(N) * max(K) regardless of the other
    // lanes — so sort indices by descending (K, N): equal-K columns
    // become adjacent (realistic calling batches are dominated by a
    // few tiny noise-K classes, so most tiles then hit the tile
    // kernel's shared-K fast path) and N is monotone within each K
    // class, bounding the padding. Columns too deep for the tile's
    // L1 budget sort to the front and peel off to the row kernel
    // tile group by tile group. Results scatter back to input
    // order; per-column bits are unaffected — a lane's operation
    // sequence depends only on its own column. The sort compares
    // packed one-word keys: comparator cost is pure overhead the
    // Isa::Scalar path does not pay.
    std::vector<uint64_t> keyed(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
        const ColumnView &col = columns[order[i]];
        const uint64_t len =
            std::min<size_t>(col.success_probs.size(), 0xffffffff);
        keyed[i] = (static_cast<uint64_t>(col.k) << 32) | len;
    }
    std::vector<uint32_t> rank(order.size());
    std::iota(rank.begin(), rank.end(), 0U);
    std::stable_sort(rank.begin(), rank.end(),
                     [&keyed](uint32_t a, uint32_t b) {
                         return keyed[a] > keyed[b];
                     });
    {
        std::vector<uint32_t> sorted(order.size());
        for (size_t i = 0; i < rank.size(); ++i)
            sorted[i] = order[rank[i]];
        order.swap(sorted);
    }

    constexpr size_t max_width = 8;
    assert(width <= max_width);
    ColumnView tile_cols[max_width];
    T tile_out[max_width];
    const size_t tiles = order.size() / width;
    for (size_t t = 0; t < tiles; ++t) {
        size_t group_kmax = 1;
        for (size_t c = 0; c < width; ++c) {
            const ColumnView &col = columns[order[t * width + c]];
            const auto kc = static_cast<size_t>(col.k);
            if (kc > group_kmax)
                group_kmax = kc;
        }
        if (group_kmax > backend.k_tile_cap) {
            // The tile's SoA DP state would spill L1: run each
            // column through the row-vectorized kernel instead.
            for (size_t c = 0; c < width; ++c) {
                const size_t i = order[t * width + c];
                backend.column(columns[i], &out[i], compensated);
            }
            continue;
        }
        for (size_t c = 0; c < width; ++c)
            tile_cols[c] = columns[order[t * width + c]];
        backend.tile(tile_cols, tile_out, compensated);
        for (size_t c = 0; c < width; ++c)
            out[order[t * width + c]] = tile_out[c];
    }
    for (size_t i = tiles * width; i < order.size(); ++i)
        backend.column(columns[order[i]], &out[order[i]],
                       compensated);
}

} // namespace

template <typename T>
TileShape
pvalueTileShape(simd::Isa isa)
{
    const TileBackend<T> backend = tileBackendFor<T>(isa);
    if (backend.tile == nullptr)
        return {};
    return {static_cast<size_t>(backend.width), backend.k_tile_cap};
}

template TileShape pvalueTileShape<ScaledDD>(simd::Isa);
template TileShape pvalueTileShape<LogDouble>(simd::Isa);

template <typename T>
void
pvalueBatchSimd(std::span<const ColumnView> columns, std::span<T> out,
                simd::Isa isa)
{
    pvalueBatchImpl<T>(columns, out, isa, false);
}

template <typename T>
void
pvalueBatchCompensatedSimd(std::span<const ColumnView> columns,
                           std::span<T> out, simd::Isa isa)
{
    pvalueBatchImpl<T>(columns, out, isa, true);
}

template void pvalueBatchSimd<double>(std::span<const ColumnView>,
                                      std::span<double>, simd::Isa);
template void pvalueBatchSimd<float>(std::span<const ColumnView>,
                                     std::span<float>, simd::Isa);
template void pvalueBatchSimd<ScaledDD>(std::span<const ColumnView>,
                                        std::span<ScaledDD>, simd::Isa);
template void pvalueBatchSimd<LogDouble>(std::span<const ColumnView>,
                                         std::span<LogDouble>, simd::Isa);
template void
pvalueBatchCompensatedSimd<double>(std::span<const ColumnView>,
                                   std::span<double>, simd::Isa);
template void
pvalueBatchCompensatedSimd<float>(std::span<const ColumnView>,
                                  std::span<float>, simd::Isa);

namespace detail
{

bool
pvalueTileLog(const ColumnView *cols, LogDouble *out, simd::Isa isa)
{
    const TileBackend<LogDouble> backend = tileBackendFor<LogDouble>(isa);
    if (backend.tile == nullptr)
        return false;
    backend.tile(cols, out, false);
    return true;
}

bool
pvalueColumnRowsLog(const ColumnView &column, LogDouble *out,
                    simd::Isa isa)
{
    const TileBackend<LogDouble> backend = tileBackendFor<LogDouble>(isa);
    if (backend.column == nullptr)
        return false;
    backend.column(column, out, false);
    return true;
}

void
pvalueTilePortable(const ColumnView *cols, double *out,
                   bool compensated)
{
    pvalueTileRun<simd::ArrayVec<double, 4>>(cols, out, compensated);
}

void
pvalueTilePortable(const ColumnView *cols, float *out,
                   bool compensated)
{
    pvalueTileRun<simd::ArrayVec<float, 8>>(cols, out, compensated);
}

void
pvalueTilePortable(const ColumnView *cols, ScaledDD *out)
{
    pvalueTileLanesImpl<ScaledDDLanes<simd::ArrayVec<double, 4>>>(cols,
                                                                  out);
}

void
pvalueTilePortable(const ColumnView *cols, LogDouble *out)
{
    pvalueTileLanesImpl<LnLanes<simd::ArrayVec<double, 4>>>(cols, out);
}

void
pvalueColumnRowsPortable(const ColumnView &column, double *out,
                         bool compensated)
{
    *out = pvalueColumnRowsRun<simd::ArrayVec<double, 4>>(column,
                                                          compensated);
}

void
pvalueColumnRowsPortable(const ColumnView &column, float *out,
                         bool compensated)
{
    *out = pvalueColumnRowsRun<simd::ArrayVec<float, 8>>(column,
                                                         compensated);
}

void
pvalueColumnRowsPortable(const ColumnView &column, LogDouble *out)
{
    *out = pvalueColumnRowsLogImpl<simd::ArrayVec<double, 4>>(column);
}

} // namespace detail

} // namespace pstat::pbd
