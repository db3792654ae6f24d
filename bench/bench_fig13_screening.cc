/**
 * @file
 * Figure 13 (extension): the screened p-value fast path and the
 * chunk-grained engine scheduler — the first figure whose headline
 * is wall-clock, not accuracy.
 *
 * (a) Guard-band sweep: the two-stage pipeline (Cramér–Chernoff
 *     estimate -> exact Listing-2 DP only near the 2^-200 call
 *     threshold, pbd/screen.hh) swept over guard-band widths,
 *     reporting speedup over the unscreened batch, columns skipped,
 *     guard-band hits, and the false-skip audit against the oracle.
 *     Shrinking the band buys speed and risks missed calls; the
 *     sweep maps that trade-off.
 * (b) Format sweep: screened vs exact across the registered
 *     64/32-bit tier at the default guard band, with a per-column
 *     bit-identity check on every evaluated column.
 * (c) Scheduler: chunked index claiming (grain auto-sized to
 *     max(1, n / (lanes * 8)), PSTAT_GRAIN override) vs the old
 *     per-index claiming on a 100k-column batch of cheap columns,
 *     where the work mutex used to serialize the pool.
 *
 * Knobs: PSTAT_GUARD_BITS (default 64) sets the default guard band;
 * PSTAT_SCALE scales the workloads; PSTAT_THREADS the lanes.
 */

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/lofreq.hh"
#include "bench_util.hh"
#include "engine/eval_engine.hh"
#include "engine/plan.hh"
#include "pbd/screen.hh"
#include "stats/table.hh"

namespace
{

using namespace pstat;

/** The background-heavy screening workload (production profile). */
std::vector<pbd::ColumnDataset>
makeScreeningDatasets(int columns_per_dataset)
{
    // Deep coverage with mediocre quality: background columns carry
    // a noise K that scales with N (as at the paper's real coverage,
    // where N averages 309k reads), so the insignificant bulk is
    // genuinely expensive to evaluate exactly — the case screening
    // is for. Variant fraction mirrors the paper's 7.3% critical
    // share split across shallow and deep targets. On top of that, a
    // 20% slice of *borderline* columns targets 2^-150 .. 2^-260,
    // straddling the 2^-200 call threshold: the columns where the
    // estimate's few-percent error actually matters, so the guard
    // band has something real to trade against (a 0-bit band risks
    // false-skipping the ones just below the threshold).
    std::vector<pbd::ColumnDataset> out;
    for (int d = 0; d < 6; ++d) {
        pbd::DatasetConfig config;
        config.num_columns = columns_per_dataset;
        config.median_coverage = 1800.0 + 250.0 * d;
        config.coverage_sigma = 0.40;
        config.mean_phred = 22.0 + 1.0 * (d % 3);
        config.phred_sigma = 3.0;
        config.variant_fraction = 0.04;
        config.seed = 1303ULL + 97ULL * d;
        std::string name = "S";
        name += std::to_string(d);
        auto ds = pbd::makeDataset(config, name);
        stats::Rng rng(7907ULL + 31ULL * d);
        const int borderline = columns_per_dataset / 5;
        for (int i = 0; i < borderline; ++i)
            ds.columns.push_back(pbd::makeColumnWithTarget(
                rng, rng.uniform(150.0, 260.0)));
        out.push_back(std::move(ds));
    }
    return out;
}

/** Unscreened engine batches of every dataset, timed. */
struct ExactRun
{
    std::vector<std::vector<apps::PValueResult>> results;
    double wall_ms = 0.0;
};

ExactRun
runExact(const engine::FormatOps &format,
         const std::vector<pbd::ColumnDataset> &datasets,
         engine::EvalEngine &engine)
{
    ExactRun out;
    const bench::WallTimer timer;
    for (const auto &ds : datasets)
        out.results.push_back(apps::lofreqPValues(
            format, ds, engine, engine::SumPolicy::Plain));
    out.wall_ms = timer.elapsedMs();
    return out;
}

/** Screened batches of every dataset, timed and tallied. */
struct ScreenedRun
{
    std::vector<apps::ScreenedPValues> batches;
    pbd::ScreenStats stats; //!< summed over datasets
    size_t false_skips = 0;
    double wall_ms = 0.0;
};

ScreenedRun
runScreened(const engine::FormatOps &format,
            const std::vector<pbd::ColumnDataset> &datasets,
            const std::vector<std::vector<BigFloat>> &oracles,
            engine::EvalEngine &engine,
            const pbd::ScreenConfig &config)
{
    ScreenedRun out;
    const bench::WallTimer timer;
    for (const auto &ds : datasets)
        out.batches.push_back(apps::lofreqPValuesScreened(
            format, ds, engine, config, engine::SumPolicy::Plain));
    out.wall_ms = timer.elapsedMs();
    for (size_t d = 0; d < out.batches.size(); ++d) {
        const auto &b = out.batches[d];
        out.stats += b.stats;
        out.false_skips += apps::lofreqFalseSkips(b, oracles[d]);
    }
    return out;
}

/** Evaluated-column bit-identity of a screened run vs its exact run. */
size_t
countEvaluatedMismatches(const ScreenedRun &screened,
                         const ExactRun &exact)
{
    size_t mismatches = 0;
    for (size_t d = 0; d < screened.batches.size(); ++d) {
        const auto &b = screened.batches[d];
        for (size_t i = 0; i < b.results.size(); ++i) {
            if (b.skipped[i])
                continue;
            const auto &got = b.results[i];
            const auto &want = exact.results[d][i];
            if (!(got.value == want.value) ||
                got.invalid != want.invalid ||
                got.underflow != want.underflow)
                ++mismatches;
        }
    }
    return mismatches;
}

} // namespace

int
main()
{
    using namespace pstat;
    stats::printBanner("Figure 13 (extension): screened p-value fast "
                       "path + chunked engine scheduling");

    const bench::WallTimer total_timer;
    const double guard_bits =
        bench::envDouble("PSTAT_GUARD_BITS", 64.0);
    const int cols = bench::scaled(100, 30);
    const auto datasets = makeScreeningDatasets(cols);
    size_t columns_total = 0;
    for (const auto &ds : datasets)
        columns_total += ds.columns.size();
    std::printf("datasets: 6 x %d deep-coverage columns + %d "
                "borderline (PSTAT_SCALE to grow), guard band %g "
                "bits (PSTAT_GUARD_BITS)\n",
                cols, cols / 5, guard_bits);

    engine::EvalEngine engine;
    std::printf("eval lanes: %u\n", engine.threadCount());

    std::vector<std::vector<BigFloat>> oracles;
    for (const auto &ds : datasets)
        oracles.push_back(apps::lofreqOracle(ds, engine));

    const auto &registry = engine::FormatRegistry::instance();

    // ---- (a) guard-band sweep on the two log formats (one per tier)
    std::printf("\n--- (a) guard band vs speedup / false skips ---\n");
    std::vector<bench::Json> sweep_records;
    {
        stats::TextTable table({"format", "guard", "exact ms",
                                "screened ms", "speedup", "skipped",
                                "guard hits", "false skips"});
        for (const char *id : {"log", "log32"}) {
            const auto &format = registry.at(id);
            const auto exact = runExact(format, datasets, engine);
            for (double guard : {0.0, 16.0, 32.0, 64.0, 128.0, 256.0}) {
                pbd::ScreenConfig config;
                config.guard_band_log2 = guard;
                const auto screened = runScreened(
                    format, datasets, oracles, engine, config);
                const double speedup =
                    screened.wall_ms > 0.0
                        ? exact.wall_ms / screened.wall_ms
                        : 0.0;
                table.addRow(
                    {format.id(), stats::formatDouble(guard, 0),
                     stats::formatDouble(exact.wall_ms, 1),
                     stats::formatDouble(screened.wall_ms, 1),
                     stats::formatDouble(speedup, 2),
                     std::to_string(screened.stats.skipped),
                     std::to_string(screened.stats.guard_band_hits),
                     std::to_string(screened.false_skips)});
                sweep_records.push_back(
                    bench::Json()
                        .add("format", format.id())
                        .add("guard_bits", guard)
                        .add("exact_ms", exact.wall_ms)
                        .add("screened_ms", screened.wall_ms)
                        .add("speedup", speedup)
                        .add("skipped", screened.stats.skipped)
                        .add("skip_frac",
                             static_cast<double>(
                                 screened.stats.skipped) /
                                 static_cast<double>(columns_total))
                        .add("guard_band_hits",
                             screened.stats.guard_band_hits)
                        .add("false_skips", screened.false_skips)
                        .add("false_skip_frac",
                             static_cast<double>(
                                 screened.false_skips) /
                                 static_cast<double>(columns_total)));
            }
        }
        table.print();
        std::printf("(skipping is decided by the estimate alone, so "
                    "skip counts depend on the guard band, not the "
                    "format)\n");
    }

    // ---- (b) the registered 64/32-bit tier at the default guard
    std::printf("\n--- (b) screened vs exact across the format tier "
                "(guard %g bits) ---\n",
                guard_bits);
    pbd::ScreenConfig default_config;
    default_config.guard_band_log2 = guard_bits;
    std::vector<bench::Json> format_records;
    double headline_speedup = 0.0;
    size_t headline_false_skips = 0;
    bool all_bit_identical = true;
    {
        stats::TextTable table({"format", "exact ms", "screened ms",
                                "speedup", "skip %", "false skips",
                                "bit-identical"});
        for (const auto &[label, id] :
             std::initializer_list<
                 std::pair<const char *, const char *>>{
                 {"binary64", "binary64"},
                 {"Log", "log"},
                 {"posit(64,9)", "posit64_9"},
                 {"posit(64,12)", "posit64_12"},
                 {"posit(64,18)", "posit64_18"},
                 {"binary32", "binary32"},
                 {"log32", "log32"},
                 {"posit(32,2)", "posit32_2"},
                 {"bfloat16", "bfloat16"}}) {
            const auto &format = registry.at(id);
            const auto exact = runExact(format, datasets, engine);
            const auto screened = runScreened(
                format, datasets, oracles, engine, default_config);
            const double speedup =
                screened.wall_ms > 0.0
                    ? exact.wall_ms / screened.wall_ms
                    : 0.0;
            const size_t mismatches =
                countEvaluatedMismatches(screened, exact);
            all_bit_identical =
                all_bit_identical && mismatches == 0;
            if (std::string(id) == "log") {
                headline_speedup = speedup;
                headline_false_skips = screened.false_skips;
            }
            table.addRow(
                {label, stats::formatDouble(exact.wall_ms, 1),
                 stats::formatDouble(screened.wall_ms, 1),
                 stats::formatDouble(speedup, 2),
                 stats::formatPercent(
                     static_cast<double>(screened.stats.skipped) /
                         static_cast<double>(columns_total),
                     1),
                 std::to_string(screened.false_skips),
                 mismatches == 0 ? "yes" : "NO"});
            format_records.push_back(
                bench::Json()
                    .add("format", label)
                    .add("exact_ms", exact.wall_ms)
                    .add("screened_ms", screened.wall_ms)
                    .add("speedup", speedup)
                    .add("skipped", screened.stats.skipped)
                    .add("false_skips", screened.false_skips)
                    .add("evaluated_bit_identical",
                         mismatches == 0));
        }
        table.print();
    }

    // ---- per-dataset screening stats at the default guard
    std::printf("\n--- per-dataset screening stats (log, guard %g "
                "bits) ---\n",
                guard_bits);
    std::vector<bench::Json> dataset_records;
    {
        const auto screened =
            runScreened(registry.at("log"), datasets, oracles,
                        engine, default_config);
        stats::TextTable table({"dataset", "columns", "skipped",
                                "skip %", "guard hits",
                                "false skips"});
        for (size_t d = 0; d < datasets.size(); ++d) {
            const auto &b = screened.batches[d];
            const size_t false_skips =
                apps::lofreqFalseSkips(b, oracles[d]);
            table.addRow(
                {datasets[d].name, std::to_string(b.stats.columns),
                 std::to_string(b.stats.skipped),
                 stats::formatPercent(
                     static_cast<double>(b.stats.skipped) /
                         static_cast<double>(b.stats.columns),
                     1),
                 std::to_string(b.stats.guard_band_hits),
                 std::to_string(false_skips)});
            dataset_records.push_back(
                bench::Json()
                    .add("dataset", datasets[d].name)
                    .add("columns", b.stats.columns)
                    .add("skipped", b.stats.skipped)
                    .add("guard_band_hits", b.stats.guard_band_hits)
                    .add("false_skips", false_skips));
        }
        table.print();
    }

    // ---- (c) chunked vs per-index claiming on a 100k-column batch
    std::printf("\n--- (c) chunked vs per-index work claiming ---\n");
    pbd::DatasetConfig cheap;
    cheap.num_columns = bench::scaled(100000, 10000);
    cheap.median_coverage = 40.0;
    cheap.coverage_sigma = 0.25;
    cheap.mean_phred = 38.0;
    cheap.variant_fraction = 0.0;
    cheap.seed = 4241;
    const auto cheap_ds = pbd::makeDataset(cheap, "cheap");
    const auto &b64 = registry.at("binary64");

    // The comparison needs real lanes: a 1-lane engine takes the
    // serial fast path and never touches the work mutex, so on a
    // 1-core box we still spin up 4 contending lanes (which is also
    // the regime where per-index claiming hurts most).
    const unsigned sched_lanes =
        std::max(4u, std::thread::hardware_concurrency());
    engine::EvalEngine chunked(sched_lanes); // auto grain/PSTAT_GRAIN
    engine::EvalEngine per_index(sched_lanes, 1); // old scheduler

    // Both engines execute the same plan — the scheduler is engine
    // state (grain), not plan state, so the comparison isolates it.
    engine::EvalPlan sched_plan;
    sched_plan.kernel = engine::PlanKernel::PValue;
    sched_plan.source = engine::PlanSource::Memory;
    sched_plan.policy = engine::PlanPolicy::Fixed;
    sched_plan.format_id = b64.id();
    engine::PlanInputs sched_inputs;
    sched_inputs.columns = cheap_ds.columns;
    const double per_index_ms =
        bench::timeStats(3, [&] {
            per_index.run(sched_plan, sched_inputs);
        }).min_ms;
    const double chunked_ms =
        bench::timeStats(3, [&] {
            chunked.run(sched_plan, sched_inputs);
        }).min_ms;
    const size_t grain =
        chunked.grainForBatch(cheap_ds.columns.size());
    const double sched_speedup =
        chunked_ms > 0.0 ? per_index_ms / chunked_ms : 0.0;
    std::printf("%zu cheap columns, %u lanes: per-index %.1f ms, "
                "chunked %.1f ms (grain %zu) -> %.2fx\n",
                cheap_ds.columns.size(), chunked.threadCount(),
                per_index_ms, chunked_ms, grain, sched_speedup);

    const double wall_ms = total_timer.elapsedMs();
    std::printf("\nheadline: screening %.2fx on log at guard %g "
                "bits with %zu false skips; chunked claiming %.2fx "
                "on %zu columns\n",
                headline_speedup, guard_bits, headline_false_skips,
                sched_speedup, cheap_ds.columns.size());
    std::printf("wall time: %.0f ms\n", wall_ms);

    bench::writeBenchJson(
        "fig13_screening",
        bench::Json()
            .add("bench", "fig13_screening")
            .add("wall_ms", wall_ms)
            .add("eval_lanes",
                 static_cast<int>(engine.threadCount()))
            .add("columns_total", columns_total)
            .add("default_guard_bits", guard_bits)
            .add("headline_screen_speedup", headline_speedup)
            .add("headline_false_skips", headline_false_skips)
            .add("all_evaluated_bit_identical", all_bit_identical)
            .add("guard_sweep", sweep_records)
            .add("formats", format_records)
            .add("datasets", dataset_records)
            .add("scheduler",
                 bench::Json()
                     .add("columns", cheap_ds.columns.size())
                     .add("per_index_ms", per_index_ms)
                     .add("chunked_ms", chunked_ms)
                     .add("grain", grain)
                     .add("speedup", sched_speedup)));
    return 0;
}
