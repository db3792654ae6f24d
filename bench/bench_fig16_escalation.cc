/**
 * @file
 * Figure 16 (extension): adaptive precision escalation across the
 * format ladder (engine/escalate.hh) on the fig13 screening workload.
 *
 * (a) Fixed-tier certification: each registry tier as a single-tier
 *     ladder under the 2^-200 decision certification — what it
 *     costs, how many columns it can certify, and (audited against
 *     the BigFloat oracle) that no certificate is wrong. The cheap
 *     tiers are fast but certify only the easy bulk; ScaledDD
 *     certifies everything at the highest cost.
 * (b) The adaptive ladder: analytic bounds first, then
 *     bfloat16 -> binary32 -> binary64 -> log -> ScaledDD only for
 *     the columns whose interval still straddles the threshold.
 *     Full certified coverage at a fraction of the fixed
 *     ScaledDD/log tiers' cost.
 * (c) Screen composition: the estimate-based skip in front of the
 *     ladder (skip mask wins; skipped columns are never escalated).
 *     This is the headline vs plain binary64: full decision
 *     coverage (certified or screened with zero false skips)
 *     cheaper than the uncertified binary64 batch itself.
 * (d) Escalation-rate sweep over read quality: lower Phred pushes
 *     more columns into the threshold band, so more of them climb —
 *     the knob that moves the adaptive/fixed trade-off.
 *
 * Knobs: PSTAT_SCALE scales the workloads, PSTAT_THREADS the lanes,
 * PSTAT_COMPENSATED the summation policy of every plan;
 * PSTAT_LADDER/PSTAT_CERT_TOL are deliberately *not* read here — the
 * bench pins the default ladder so the baseline is stable.
 */

#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "engine/escalate.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "engine/plan.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/screen.hh"
#include "stats/table.hh"

namespace
{

using namespace pstat;

constexpr double kThresholdLog2 = -200.0;

/** The fig13 screening workload: deep coverage + borderline slice. */
std::vector<pbd::Column>
makeEscalationColumns(int columns_per_dataset, double mean_phred,
                      uint64_t seed)
{
    std::vector<pbd::Column> out;
    for (int d = 0; d < 6; ++d) {
        pbd::DatasetConfig config;
        config.num_columns = columns_per_dataset;
        config.median_coverage = 1800.0 + 250.0 * d;
        config.coverage_sigma = 0.40;
        config.mean_phred = mean_phred + 1.0 * (d % 3);
        config.phred_sigma = 3.0;
        config.variant_fraction = 0.04;
        config.seed = seed + 97ULL * d;
        auto ds = pbd::makeDataset(config, "E" + std::to_string(d));
        stats::Rng rng(seed * 31ULL + 7907ULL + d);
        const int borderline = columns_per_dataset / 5;
        for (int i = 0; i < borderline; ++i)
            ds.columns.push_back(pbd::makeColumnWithTarget(
                rng, rng.uniform(150.0, 260.0)));
        for (auto &column : ds.columns)
            out.push_back(std::move(column));
    }
    return out;
}

/** A plain fixed-format batch as a PValue x Memory plan. */
std::vector<engine::EvalResult>
runFixedPlan(engine::EvalEngine &engine,
             const engine::FormatOps &format,
             std::span<const pbd::Column> columns)
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = format.id();
    plan.sum = bench::sumPolicy();
    engine::PlanInputs inputs;
    inputs.columns = columns;
    return engine.run(plan, inputs).results;
}

/** An adaptive (optionally screened) batch as an EvalPlan. */
engine::AdaptiveBatch
runAdaptivePlan(engine::EvalEngine &engine,
                const engine::Ladder &ladder,
                std::span<const pbd::Column> columns,
                const engine::CertConfig &cert,
                const std::optional<pbd::ScreenConfig> &screen =
                    std::nullopt)
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = screen ? engine::PlanPolicy::ScreenedAdaptive
                         : engine::PlanPolicy::Adaptive;
    plan.cert = cert;
    if (screen)
        plan.screen = *screen;
    for (const engine::FormatOps *tier : ladder.tiers)
        plan.ladder_ids.push_back(tier->id());
    plan.sum = bench::sumPolicy();
    engine::PlanInputs inputs;
    inputs.columns = columns;
    return engine.run(plan, inputs).adaptive;
}

/** Exact oracle p-values over the engine pool. */
std::vector<BigFloat>
oraclePValues(engine::EvalEngine &engine,
              const std::vector<pbd::Column> &columns)
{
    std::vector<BigFloat> out(columns.size());
    engine.parallelFor(columns.size(), [&](size_t i) {
        out[i] = pbd::pvalue<BigFloat>(columns[i].success_probs,
                                       columns[i].k);
    });
    return out;
}

/**
 * Certified-decision audit: a column certified below (above) the
 * threshold whose oracle is on the other side. Must be zero — the
 * bench-regression guard compares it exactly.
 */
size_t
countDecisionMismatches(const engine::AdaptiveBatch &batch,
                        const std::vector<BigFloat> &oracle)
{
    size_t mismatches = 0;
    for (size_t i = 0; i < batch.results.size(); ++i) {
        const auto &r = batch.results[i];
        if (!r.certified)
            continue;
        const bool oracle_below =
            oracle[i].isZero() ||
            oracle[i].log2Abs() < kThresholdLog2;
        if (r.interval.hi_log2 < kThresholdLog2) {
            mismatches += oracle_below ? 0 : 1;
        } else if (r.interval.lo_log2 >= kThresholdLog2) {
            mismatches += oracle_below ? 1 : 0;
        }
    }
    return mismatches;
}

} // namespace

int
main()
{
    using namespace pstat;
    stats::printBanner("Figure 16 (extension): adaptive precision "
                       "escalation across the format ladder");

    const bench::WallTimer total_timer;
    const int cols = bench::scaled(100, 30);
    const auto columns = makeEscalationColumns(cols, 22.0, 1303ULL);
    std::printf("workload: 6 datasets, %zu columns total (fig13 "
                "profile + borderline slice, PSTAT_SCALE to grow), "
                "decision threshold 2^%g\n",
                columns.size(), kThresholdLog2);

    engine::EvalEngine engine;
    std::printf("eval lanes: %u\n", engine.threadCount());
    const auto oracle = oraclePValues(engine, columns);

    engine::CertConfig cert;
    cert.threshold_log2 = kThresholdLog2;
    const auto &registry = engine::FormatRegistry::instance();

    // ---- (a) fixed single-tier certification
    std::printf("\n--- (a) fixed-tier certification at 2^-200 ---\n");
    std::vector<bench::Json> fixed_records;
    double binary64_plain_ms = 0.0;
    double scaled_dd_tier_ms = 0.0;
    {
        stats::TextTable table({"tier", "plain ms", "certify ms",
                                "certified", "uncertified",
                                "mismatches"});
        for (const char *id :
             {"bfloat16", "binary32", "binary64", "log",
              "scaled_dd"}) {
            const auto &format = registry.at(id);
            const double plain_ms =
                bench::timeStats(3, [&] {
                    runFixedPlan(engine, format, columns);
                }).min_ms;
            const auto ladder = engine::parseLadder(id);
            engine::AdaptiveBatch batch;
            const double certify_ms =
                bench::timeStats(3, [&] {
                    batch = runAdaptivePlan(engine, *ladder,
                                            columns, cert);
                }).min_ms;
            const size_t mismatches =
                countDecisionMismatches(batch, oracle);
            if (std::string(id) == "binary64")
                binary64_plain_ms = plain_ms;
            if (std::string(id) == "scaled_dd")
                scaled_dd_tier_ms = certify_ms;
            table.addRow({id, stats::formatDouble(plain_ms, 1),
                          stats::formatDouble(certify_ms, 1),
                          std::to_string(batch.certified),
                          std::to_string(batch.uncertified),
                          std::to_string(mismatches)});
            fixed_records.push_back(
                bench::Json()
                    .add("tier", id)
                    .add("plain_ms", plain_ms)
                    .add("certify_ms", certify_ms)
                    .add("certified", batch.certified)
                    .add("uncertified", batch.uncertified)
                    .add("decision_mismatches", mismatches));
        }
        table.print();
    }

    // ---- (b) the adaptive ladder
    std::printf("\n--- (b) adaptive default ladder ---\n");
    engine::AdaptiveBatch adaptive;
    const double adaptive_ms =
        bench::timeStats(3, [&] {
            adaptive = runAdaptivePlan(
                engine, engine::defaultLadder(), columns, cert);
        }).min_ms;
    const size_t adaptive_mismatches =
        countDecisionMismatches(adaptive, oracle);
    std::vector<bench::Json> tier_records;
    {
        stats::TextTable table({"tier", "evaluated", "certified",
                                "bypassed", "ms"});
        for (const auto &tier : adaptive.tiers) {
            table.addRow({tier.format_id,
                          std::to_string(tier.evaluated),
                          std::to_string(tier.certified),
                          std::to_string(tier.bypassed),
                          stats::formatDouble(tier.wall_ms, 1)});
            tier_records.push_back(
                bench::Json()
                    .add("tier", tier.format_id)
                    .add("evaluated", tier.evaluated)
                    .add("certified", tier.certified)
                    .add("bypassed", tier.bypassed)
                    .add("wall_ms", tier.wall_ms));
        }
        table.print();
    }
    const double speedup_vs_binary64 =
        adaptive_ms > 0.0 ? binary64_plain_ms / adaptive_ms : 0.0;
    const double speedup_vs_scaled_dd =
        adaptive_ms > 0.0 ? scaled_dd_tier_ms / adaptive_ms : 0.0;
    std::printf("adaptive: %.1f ms, %zu certified, %zu uncertified, "
                "%zu mismatches -> %.2fx vs plain binary64, %.2fx "
                "vs the ScaledDD tier\n",
                adaptive_ms, adaptive.certified, adaptive.uncertified,
                adaptive_mismatches, speedup_vs_binary64,
                speedup_vs_scaled_dd);

    // ---- (c) screen composition in front of the ladder
    std::printf("\n--- (c) screen + ladder ---\n");
    const pbd::ScreenConfig screen;
    engine::AdaptiveBatch screened;
    const double screened_ms =
        bench::timeStats(3, [&] {
            screened = runAdaptivePlan(engine,
                                       engine::defaultLadder(),
                                       columns, cert, screen);
        }).min_ms;
    const size_t screened_false_skips = pbd::countFalseSkips(
        screened.skipped, oracle, screen.threshold_log2);
    const size_t screened_mismatches =
        countDecisionMismatches(screened, oracle);
    const double screened_speedup_vs_binary64 =
        screened_ms > 0.0 ? binary64_plain_ms / screened_ms : 0.0;
    std::printf("screened adaptive: %.1f ms, %zu skipped, %zu "
                "certified, %zu false skips, %zu mismatches -> "
                "%.2fx vs plain binary64 at full decision "
                "coverage\n",
                screened_ms, screened.screen_stats.skipped,
                screened.certified, screened_false_skips,
                screened_mismatches, screened_speedup_vs_binary64);

    // ---- (d) escalation rate vs read quality
    std::printf("\n--- (d) escalation rate vs mean Phred ---\n");
    std::vector<bench::Json> sweep_records;
    {
        stats::TextTable table({"phred", "columns", "analytic %",
                                "escalated %", "certified %"});
        for (const double phred : {18.0, 22.0, 26.0, 30.0, 34.0}) {
            const auto sweep_columns = makeEscalationColumns(
                bench::scaled(60, 20), phred, 2707ULL);
            const auto batch = runAdaptivePlan(
                engine, engine::defaultLadder(), sweep_columns,
                cert);
            size_t analytic = 0;
            size_t escalated = 0;
            for (const auto &r : batch.results) {
                if (r.tier == engine::kTierAnalytic)
                    ++analytic;
                else if (r.tier > 0)
                    ++escalated;
            }
            const double n =
                static_cast<double>(sweep_columns.size());
            table.addRow(
                {stats::formatDouble(phred, 0),
                 std::to_string(sweep_columns.size()),
                 stats::formatPercent(analytic / n, 1),
                 stats::formatPercent(escalated / n, 1),
                 stats::formatPercent(batch.certified / n, 1)});
            sweep_records.push_back(
                bench::Json()
                    .add("mean_phred", phred)
                    .add("columns", sweep_columns.size())
                    .add("analytic_certified", analytic)
                    .add("escalated", escalated)
                    .add("certified", batch.certified)
                    .add("uncertified", batch.uncertified));
        }
        table.print();
    }

    const double wall_ms = total_timer.elapsedMs();
    std::printf("\nheadline: screened adaptive %.2fx vs plain "
                "binary64 at full decision coverage; adaptive "
                "%.2fx vs the fixed ScaledDD tier; %zu mismatches "
                "across %zu certified columns\n",
                screened_speedup_vs_binary64, speedup_vs_scaled_dd,
                adaptive_mismatches, adaptive.certified);
    std::printf("wall time: %.0f ms\n", wall_ms);

    bench::writeBenchJson(
        "fig16_escalation",
        bench::Json()
            .add("bench", "fig16_escalation")
            .add("wall_ms", wall_ms)
            .add("eval_lanes", static_cast<int>(engine.threadCount()))
            .add("columns_total", columns.size())
            .add("threshold_log2", kThresholdLog2)
            .add("fixed_tiers", fixed_records)
            .add("adaptive",
                 bench::Json()
                     .add("adaptive_ms", adaptive_ms)
                     .add("certified", adaptive.certified)
                     .add("uncertified", adaptive.uncertified)
                     .add("decision_mismatches", adaptive_mismatches)
                     .add("tiers", tier_records))
            .add("screened",
                 bench::Json()
                     .add("screened_ms", screened_ms)
                     .add("skipped", screened.screen_stats.skipped)
                     .add("certified", screened.certified)
                     .add("uncertified", screened.uncertified)
                     .add("false_skips", screened_false_skips)
                     .add("decision_mismatches", screened_mismatches))
            .add("headline_adaptive_speedup_vs_binary64",
                 speedup_vs_binary64)
            .add("headline_adaptive_speedup_vs_scaled_dd",
                 speedup_vs_scaled_dd)
            .add("headline_screened_speedup_vs_binary64",
                 screened_speedup_vs_binary64)
            .add("noise_sweep", sweep_records));
    return 0;
}
