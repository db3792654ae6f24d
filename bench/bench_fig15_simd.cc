/**
 * @file
 * Figure 15 (extension): SIMD multi-column throughput of the
 * structure-of-arrays kernels, per ISA backend.
 *
 * (a) Listing-2 p-value batches: the SoA batch entry vs the scalar
 *     per-column loop, for binary64 and binary32 under both
 *     summation policies, and for the plain sums of the scaled_dd
 *     oracle (its ScaledDD tile) and of `log` (its ln-lanes tile on
 *     the in-house LSE) on the two scans, over three realistic
 *     batch shapes:
 *       - af_scan: the allele-fraction-threshold calling scan
 *         (K = 5% of coverage, a handful of small K classes) — the
 *         multi-column regime the SoA tiles are designed for, and
 *         the headline;
 *       - noise_scan: background-only columns whose K is observed
 *         noise (mostly 0-2; most columns short-circuit to 1);
 *       - mixed: the variant-heavy deep-tail spectrum, where the
 *         few giant-K columns dominate total work, run bandwidth-
 *         bound, and cap the achievable batch speedup — reported
 *         honestly, not claimed as the vector win. No scaled_dd or
 *         log rows: their K ~ 1500 columns would hold the scalar
 *         kernels for minutes.
 * (b) The shipped `log` Accelerator forward (Listing 3, n-ary LSE)
 *     with the state loop vectorized, hmm::forwardLogNarySimd, vs
 *     Isa::Scalar (forwardLogNary itself), on the forward models of
 *     (c).
 * (c) HMM forward with the state loop vectorized, vs the sequential
 *     scalar oracle.
 * (d) The `log` tile's K cap (AVX2): per K, batches of equal-K
 *     columns through the ln-lanes tile (4 columns a tile) and
 *     through the row-vectorized column kernel, the two forms the
 *     batch dispatcher chooses between. The tile wins while a step's
 *     few rows leave it latency-bound on one LSE chain per step; the
 *     row kernel wins once K rows fill its vectors. The dispatcher's
 *     compiled cap (pbd_simd.cc) sits at the crossover.
 *
 * Every vector result is checked bit-identical against the scalar
 * path (the simd.hh contract): those booleans are accuracy fields in
 * the JSON record and must hold on every backend. One record is
 * emitted per *supported* ISA — the sweep passes explicit Isa values,
 * so the record does not depend on the PSTAT_SIMD knob and the
 * forced-scalar CI leg produces the same schema and accuracy bits.
 * Timing fields ride the usual generous tolerance.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.hh"
#include "core/dd.hh"
#include "core/logspace.hh"
#include "core/simd.hh"
#include "hmm/forward.hh"
#include "hmm/forward_simd.hh"
#include "hmm/generator.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/pbd_simd.hh"
#include "stats/rng.hh"
#include "stats/table.hh"

namespace
{

using namespace pstat;

bool
bitsEqual(const void *a, const void *b, size_t bytes)
{
    return std::memcmp(a, b, bytes) == 0;
}

} // namespace

int
main()
{
    stats::printBanner(
        "Figure 15: SIMD multi-column (SoA) kernel throughput");

    const auto isas = simd::supportedIsas();
    std::printf("supported backends:");
    for (const simd::Isa isa : isas)
        std::printf(" %s", simd::isaName(isa));
    std::printf(" | active: %s\n", simd::isaName(simd::activeIsa()));

    const bench::WallTimer total_timer;
    bench::Json json;
    json.add("bench", "fig15_simd");

    // ---- (a) p-value batches: SoA batch entry vs the scalar loop
    std::printf("\n--- (a) Listing-2 p-value batches ---\n");
    pbd::DatasetConfig scan_config;
    scan_config.num_columns = bench::scaled(4096, 128);
    scan_config.median_coverage = 120.0;
    scan_config.coverage_sigma = 0.4;
    scan_config.seed = 1501;
    const auto af_scan =
        pbd::makeScanDataset(scan_config, 0.05, "af_scan");

    pbd::DatasetConfig noise_config = scan_config;
    noise_config.variant_fraction = 0.0;
    noise_config.seed = 1502;
    const auto noise_scan = pbd::makeDataset(noise_config, "noise_scan");

    pbd::DatasetConfig mixed_config;
    mixed_config.num_columns = bench::scaled(2048, 64);
    mixed_config.median_coverage = 120.0;
    mixed_config.coverage_sigma = 0.4;
    mixed_config.variant_fraction = 0.5;
    mixed_config.seed = 1503;
    const auto mixed = pbd::makeDataset(mixed_config, "mixed");

    const pbd::ColumnDataset *batches[] = {&af_scan, &noise_scan,
                                           &mixed};
    size_t columns_total = 0;
    std::vector<bench::Json> pbd_records;
    double headline_pbd_speedup = 0.0;
    bool all_bit_identical = true;
    {
        stats::TextTable table({"batch", "format", "policy", "isa",
                                "columns", "scalar ms", "simd ms",
                                "speedup", "bit-identical"});
        for (const pbd::ColumnDataset *dataset : batches) {
            const auto views = pbd::viewsOf(dataset->columns);
            const std::span<const pbd::ColumnView> batch(views);
            const size_t count = views.size();
            columns_total += count;

            for (const bool compensated : {false, true}) {
                const auto runBatch = [&](auto tag, simd::Isa isa,
                                          auto &out) {
                    using T = decltype(tag);
                    if constexpr (std::is_same_v<T, ScaledDD> ||
                                  std::is_same_v<T, LogDouble>)
                        pbd::pvalueBatchSimd<T>(batch, out, isa);
                    else if (compensated)
                        pbd::pvalueBatchCompensatedSimd<T>(batch, out,
                                                           isa);
                    else
                        pbd::pvalueBatchSimd<T>(batch, out, isa);
                };
                const auto sweep = [&](auto tag, const char *format) {
                    using T = decltype(tag);
                    std::vector<T> scalar_out(count);
                    const auto scalar_stats = bench::timeStats(
                        5, [&] {
                            runBatch(tag, simd::Isa::Scalar,
                                     scalar_out);
                        });
                    for (const simd::Isa isa : isas) {
                        if (isa == simd::Isa::Scalar)
                            continue;
                        std::vector<T> simd_out(count);
                        const auto simd_stats = bench::timeStats(
                            5,
                            [&] { runBatch(tag, isa, simd_out); });
                        const bool identical = bitsEqual(
                            simd_out.data(), scalar_out.data(),
                            count * sizeof(T));
                        all_bit_identical =
                            all_bit_identical && identical;
                        const double speedup =
                            simd_stats.min_ms > 0.0
                                ? scalar_stats.min_ms /
                                      simd_stats.min_ms
                                : 0.0;
                        if (!compensated &&
                            std::string(format) == "binary64" &&
                            dataset == &af_scan)
                            headline_pbd_speedup = speedup;
                        table.addRow(
                            {dataset->name, format,
                             compensated ? "compensated" : "plain",
                             simd::isaName(isa),
                             std::to_string(count),
                             stats::formatDouble(scalar_stats.min_ms,
                                                 2),
                             stats::formatDouble(simd_stats.min_ms,
                                                 2),
                             stats::formatDouble(speedup, 2),
                             identical ? "yes" : "NO"});
                        pbd_records.push_back(
                            bench::Json()
                                .add("batch", dataset->name)
                                .add("format", format)
                                .add("policy", compensated
                                                   ? "compensated"
                                                   : "plain")
                                .add("isa", simd::isaName(isa))
                                .add("columns", count)
                                .add("scalar_ms",
                                     scalar_stats.min_ms)
                                .add("simd_ms", simd_stats.min_ms)
                                .add("median_simd_ms",
                                     simd_stats.median_ms)
                                .add("speedup", speedup)
                                .add("bit_identical", identical));
                    }
                };
                sweep(double{}, "binary64");
                sweep(float{}, "binary32");
                if (!compensated && dataset != &mixed) {
                    sweep(ScaledDD{}, "scaled_dd");
                    sweep(LogDouble{}, "log");
                }
            }
        }
        table.print();
    }

    // The forward models of (b) and (c).
    struct ForwardCase
    {
        hmm::Model model;
        std::vector<int> obs;
    };
    std::vector<ForwardCase> forward_cases;
    stats::Rng mrng(1502);
    const size_t t_len =
        static_cast<size_t>(bench::scaled(2000, 200));
    for (const int h : {13, 32}) {
        ForwardCase c{hmm::makeDirichletModel(mrng, h, 16), {}};
        c.obs = hmm::sampleObservations(mrng, c.model, t_len);
        forward_cases.push_back(std::move(c));
    }

    // ---- (b) the log Accelerator forward, state loop vectorized
    std::printf("\n--- (b) log Accelerator forward (n-ary LSE) ---\n");
    std::vector<bench::Json> log_forward_records;
    double headline_log_forward_speedup = 0.0;
    {
        stats::TextTable table({"isa", "H", "T", "scalar ms",
                                "simd ms", "speedup",
                                "bit-identical"});
        for (const ForwardCase &c : forward_cases) {
            const int h = c.model.num_states;
            hmm::ForwardOutcome<LogDouble> scalar_outcome;
            const auto scalar_stats = bench::timeStats(3, [&] {
                scalar_outcome = hmm::forwardLogNarySimd(
                    c.model, c.obs, simd::Isa::Scalar);
            });
            for (const simd::Isa isa : isas) {
                if (isa == simd::Isa::Scalar)
                    continue;
                hmm::ForwardOutcome<LogDouble> simd_outcome;
                const auto simd_stats = bench::timeStats(3, [&] {
                    simd_outcome =
                        hmm::forwardLogNarySimd(c.model, c.obs, isa);
                });
                const double scalar_ln =
                    scalar_outcome.likelihood.lnValue();
                const double simd_ln = simd_outcome.likelihood.lnValue();
                const bool identical =
                    bitsEqual(&simd_ln, &scalar_ln, sizeof(double));
                all_bit_identical = all_bit_identical && identical;
                const double speedup =
                    simd_stats.min_ms > 0.0
                        ? scalar_stats.min_ms / simd_stats.min_ms
                        : 0.0;
                if (h == 13)
                    headline_log_forward_speedup = speedup;
                table.addRow(
                    {simd::isaName(isa), std::to_string(h),
                     std::to_string(t_len),
                     stats::formatDouble(scalar_stats.min_ms, 2),
                     stats::formatDouble(simd_stats.min_ms, 2),
                     stats::formatDouble(speedup, 2),
                     identical ? "yes" : "NO"});
                log_forward_records.push_back(
                    bench::Json()
                        .add("isa", simd::isaName(isa))
                        .add("states", h)
                        .add("sequence_length", t_len)
                        .add("scalar_ms", scalar_stats.min_ms)
                        .add("simd_ms", simd_stats.min_ms)
                        .add("speedup", speedup)
                        .add("bit_identical", identical));
            }
        }
        table.print();
    }

    // ---- (c) forward pass with the state loop vectorized
    std::printf("\n--- (c) vectorized forward pass ---\n");
    std::vector<bench::Json> forward_records;
    double headline_forward_speedup = 0.0;
    {
        stats::TextTable table({"format", "isa", "H", "T",
                                "scalar ms", "simd ms", "speedup",
                                "bit-identical"});
        for (const ForwardCase &c : forward_cases) {
            const hmm::Model &model = c.model;
            const std::vector<int> &obs = c.obs;
            const int h = model.num_states;

            const auto sweep = [&](auto tag, const char *format) {
                using T = decltype(tag);
                hmm::ForwardOutcome<T> scalar_outcome;
                const auto scalar_stats = bench::timeStats(3, [&] {
                    scalar_outcome = hmm::forward<T>(
                        model, obs, hmm::Reduction::Sequential);
                });
                for (const simd::Isa isa : isas) {
                    if (isa == simd::Isa::Scalar)
                        continue;
                    hmm::ForwardOutcome<T> simd_outcome;
                    const auto simd_stats = bench::timeStats(3, [&] {
                        simd_outcome =
                            hmm::forwardSimd<T>(model, obs, isa);
                    });
                    const bool identical =
                        bitsEqual(&simd_outcome.likelihood,
                                  &scalar_outcome.likelihood,
                                  sizeof(T)) &&
                        simd_outcome.first_underflow_step ==
                            scalar_outcome.first_underflow_step;
                    all_bit_identical =
                        all_bit_identical && identical;
                    const double speedup =
                        simd_stats.min_ms > 0.0
                            ? scalar_stats.min_ms /
                                  simd_stats.min_ms
                            : 0.0;
                    if (std::string(format) == "binary64" && h == 32)
                        headline_forward_speedup = speedup;
                    table.addRow(
                        {format, simd::isaName(isa),
                         std::to_string(h), std::to_string(t_len),
                         stats::formatDouble(scalar_stats.min_ms, 2),
                         stats::formatDouble(simd_stats.min_ms, 2),
                         stats::formatDouble(speedup, 2),
                         identical ? "yes" : "NO"});
                    forward_records.push_back(
                        bench::Json()
                            .add("format", format)
                            .add("isa", simd::isaName(isa))
                            .add("states", h)
                            .add("sequence_length", t_len)
                            .add("scalar_ms", scalar_stats.min_ms)
                            .add("simd_ms", simd_stats.min_ms)
                            .add("speedup", speedup)
                            .add("bit_identical", identical));
                }
            };
            sweep(double{}, "binary64");
            sweep(float{}, "binary32");
        }
        table.print();
    }

    // ---- (d) the log tile's K cap: tile vs row kernel per K
    std::printf("\n--- (d) log tile cap (avx2): tile vs row kernel "
                "---\n");
    std::vector<bench::Json> cap_records;
    const pbd::TileShape log_tile =
        pbd::pvalueTileShape<LogDouble>(simd::Isa::Avx2);
    const size_t log_tile_cap = log_tile.k_cap;
    if (log_tile.width > 0) {
        stats::TextTable table({"K", "columns", "tile ms", "rows ms",
                                "tile speedup", "bit-identical"});
        stats::Rng crng(1504);
        const size_t count = static_cast<size_t>(bench::scaled(64, 16));
        for (const int k : {2, 4, 8, 12, 16, 20, 24, 32, 48}) {
            std::vector<pbd::Column> owned(count);
            for (pbd::Column &col : owned) {
                col.success_probs.resize(150 + crng.below(100));
                for (double &p : col.success_probs)
                    p = crng.uniform(1e-3, 0.05);
                col.k = k;
            }
            const auto views = pbd::viewsOf(owned);
            std::vector<LogDouble> tile_out(count);
            std::vector<LogDouble> rows_out(count);
            const auto tile_stats = bench::timeStats(5, [&] {
                for (size_t i = 0; i + log_tile.width <= count;
                     i += log_tile.width)
                    pbd::detail::pvalueTileLog(&views[i], &tile_out[i],
                                               simd::Isa::Avx2);
            });
            const auto rows_stats = bench::timeStats(5, [&] {
                for (size_t i = 0; i < count; ++i)
                    pbd::detail::pvalueColumnRowsLog(
                        views[i], &rows_out[i], simd::Isa::Avx2);
            });
            const bool identical =
                bitsEqual(tile_out.data(), rows_out.data(),
                          count * sizeof(LogDouble));
            all_bit_identical = all_bit_identical && identical;
            const double speedup =
                tile_stats.min_ms > 0.0
                    ? rows_stats.min_ms / tile_stats.min_ms
                    : 0.0;
            table.addRow({std::to_string(k), std::to_string(count),
                          stats::formatDouble(tile_stats.min_ms, 2),
                          stats::formatDouble(rows_stats.min_ms, 2),
                          stats::formatDouble(speedup, 2),
                          identical ? "yes" : "NO"});
            cap_records.push_back(
                bench::Json()
                    .add("k", k)
                    .add("columns", count)
                    .add("tile_ms", tile_stats.min_ms)
                    .add("rows_ms", rows_stats.min_ms)
                    .add("tile_speedup", speedup)
                    .add("bit_identical", identical));
        }
        table.print();
        std::printf("compiled log tile cap: K <= %zu\n", log_tile_cap);
    }

    const double wall_ms = total_timer.elapsedMs();
    std::printf("\nheadline: p-value af-scan batch %.2fx, forward "
                "%.2fx, log forward %.2fx "
                "(best non-scalar backend vs scalar, single "
                "thread); all vector results bit-identical: %s\n",
                headline_pbd_speedup, headline_forward_speedup,
                headline_log_forward_speedup,
                all_bit_identical ? "yes" : "NO");
    std::printf("wall time: %.0f ms\n", wall_ms);

    bench::writeBenchJson(
        "fig15_simd",
        json.add("wall_ms", wall_ms)
            .add("columns_total", columns_total)
            .add("headline_pbd_simd_speedup", headline_pbd_speedup)
            .add("headline_forward_simd_speedup",
                 headline_forward_speedup)
            .add("headline_log_forward_simd_speedup",
                 headline_log_forward_speedup)
            .add("all_bit_identical", all_bit_identical)
            .add("pbd", pbd_records)
            .add("log_forward", log_forward_records)
            .add("forward", forward_records)
            .add("log_tile_cap_k", log_tile_cap)
            .add("log_tile_cap", cap_records));
    return all_bit_identical ? 0 : 1;
}
