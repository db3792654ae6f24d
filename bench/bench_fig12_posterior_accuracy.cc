/**
 * @file
 * Figure 12 (reproduction extension): accuracy of HMM posterior
 * state marginals and Viterbi path agreement across the full format
 * tier — the missing half of the paper's HMM kernel family.
 *
 * The paper measures the forward likelihood only, but decoding and
 * training run backward/posterior/Viterbi over the same products of
 * small probabilities. Posterior marginals are evaluated twice per
 * format: raw recursions (the paper's Listing-1 regime, where narrow
 * linear formats underflow mid-sequence and the marginals collapse)
 * and with per-step renormalization (the classic software defense,
 * which rescues range but not precision — bfloat16 stays coarse).
 * Viterbi needs no sums, so its failure mode is pure range: once
 * delta flushes to zero the decoded path degenerates, which the
 * agreement table quantifies against the ScaledDD oracle path.
 *
 * Every format is resolved from the FormatRegistry; every batch
 * (oracle included) runs on the EvalEngine worker pool and is
 * bit-identical to the serial per-job FormatOps calls (checked here
 * for the first job of every format, enforced for all in
 * tests/test_engine.cc).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "apps/vicar.hh"
#include "bench_util.hh"
#include "core/accuracy.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

namespace
{

using namespace pstat;

struct Series
{
    std::string label;
    const engine::FormatOps *format;
};

std::vector<Series>
figure12Series()
{
    const auto &registry = engine::FormatRegistry::instance();
    return {
        {"binary64", &registry.at("binary64")},
        {"Log", &registry.at("log")},
        {"lns64", &registry.at("lns64")},
        {"posit(64,9)", &registry.at("posit64_9")},
        {"posit(64,12)", &registry.at("posit64_12")},
        {"posit(64,18)", &registry.at("posit64_18")},
        {"binary32", &registry.at("binary32")},
        {"log32", &registry.at("log32")},
        {"posit(32,2)", &registry.at("posit32_2")},
        {"bfloat16", &registry.at("bfloat16")},
    };
}

/** One format x mode posterior sweep folded into a tally. */
engine::AccuracyTally
tallyPosterior(engine::EvalEngine &engine, const Series &series,
               std::span<const engine::ForwardJob> jobs,
               std::span<const engine::PosteriorResult> oracle,
               bool renormalize)
{
    engine::AccuracyTally tally(series.label,
                                series.format->rangeFloorLog2());
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::Posterior;
    plan.format_id = series.format->id();
    plan.renormalize = renormalize;
    engine::PlanInputs inputs;
    inputs.jobs = jobs;
    const auto results = engine.run(plan, inputs).posteriors;
    for (size_t i = 0; i < results.size(); ++i) {
        for (size_t k = 0; k < results[i].gamma.size(); ++k)
            tally.add(oracle[i].gamma[k].value, results[i].gamma[k]);
    }
    return tally;
}

/** Serial-vs-batched bit-identity spot check on the first job. */
bool
batchedMatchesSerial(engine::EvalEngine &engine, const Series &series,
                     std::span<const engine::ForwardJob> jobs)
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::Posterior;
    plan.format_id = series.format->id();
    engine::PlanInputs inputs;
    inputs.jobs = jobs.subspan(0, 1);
    const auto batched = engine.run(plan, inputs).posteriors;
    const auto serial = series.format->hmmPosterior(
        *jobs[0].model, jobs[0].obs, engine::Dataflow::Accelerator,
        false);
    if (batched[0].gamma.size() != serial.gamma.size())
        return false;
    for (size_t k = 0; k < serial.gamma.size(); ++k) {
        if (!(batched[0].gamma[k].value == serial.gamma[k].value))
            return false;
    }
    return true;
}

bench::Json
runSetting(engine::EvalEngine &engine, const char *label,
           size_t t_len, double decay_bits)
{
    struct Plan
    {
        int h;
        int runs;
    };
    const Plan plans[] = {{6, bench::scaled(2, 1)},
                          {13, bench::scaled(1, 1)}};

    std::vector<apps::VicarWorkload> workloads;
    for (const auto &plan : plans) {
        for (int r = 0; r < plan.runs; ++r) {
            workloads.push_back(apps::makeVicarWorkload(
                7000 + plan.h * 10 + r, plan.h, t_len, decay_bits));
        }
    }
    std::vector<engine::ForwardJob> jobs;
    for (const auto &w : workloads)
        jobs.push_back({&w.model, w.obs});

    engine::PlanInputs oracle_inputs;
    oracle_inputs.jobs = jobs;
    const auto oracle_posteriors =
        engine
            .run(engine::oraclePlan(engine::PlanKernel::Posterior),
                 oracle_inputs)
            .posteriors;
    const auto oracle_decodes =
        engine
            .run(engine::oraclePlan(engine::PlanKernel::Viterbi),
                 oracle_inputs)
            .decodes;
    const auto oracle_likelihoods =
        engine
            .run(engine::oraclePlan(engine::PlanKernel::Backward),
                 oracle_inputs)
            .results;

    double mean_magnitude = 0.0;
    for (const auto &l : oracle_likelihoods)
        mean_magnitude += l.value.log2Abs();
    mean_magnitude /= static_cast<double>(jobs.size());

    size_t gamma_samples = 0;
    for (const auto &p : oracle_posteriors)
        gamma_samples += p.gamma.size();

    std::printf("\n--- %s: %zu sequences (T=%zu), %zu gamma samples, "
                "mean P(O) 2^%.0f ---\n",
                label, jobs.size(), t_len, gamma_samples,
                mean_magnitude);

    const auto series = figure12Series();
    bool all_bit_identical = true;
    stats::TextTable table({"format", "mode", "median", "p95",
                            "<=1e-6", "underflow", "huge"});
    std::vector<bench::Json> format_records;
    std::vector<double> viterbi_agreement(series.size(), 0.0);

    for (const auto &s : series) {
        all_bit_identical =
            all_bit_identical && batchedMatchesSerial(engine, s, jobs);

        bench::Json record;
        record.add("format", s.label);
        for (bool renorm : {false, true}) {
            const auto tally = tallyPosterior(
                engine, s, jobs, oracle_posteriors, renorm);
            const stats::Cdf cdf(tally.errors());
            table.addRow(
                {s.label, renorm ? "renorm" : "raw",
                 stats::formatDouble(cdf.quantile(0.5), 2),
                 stats::formatDouble(cdf.quantile(0.95), 2),
                 stats::formatPercent(cdf.fractionBelow(-6.0), 1),
                 std::to_string(tally.underflows()),
                 std::to_string(tally.hugeErrors())});
            const char *prefix = renorm ? "renorm" : "raw";
            record.add(std::string(prefix) + "_median_log10_err",
                       cdf.quantile(0.5))
                .add(std::string(prefix) + "_frac_below_1e-6",
                     cdf.fractionBelow(-6.0))
                .add(std::string(prefix) + "_underflows",
                     tally.underflows())
                .add(std::string(prefix) + "_huge_errors",
                     tally.hugeErrors());
        }
        format_records.push_back(record);
    }
    table.print();
    std::printf("batched == serial (first job, every format): %s\n",
                all_bit_identical ? "bit-identical" : "MISMATCH");

    // Viterbi path agreement against the oracle path.
    std::printf("\nViterbi path agreement vs oracle "
                "(%% positions, + sequences whose delta flushed):\n");
    for (size_t f = 0; f < series.size(); ++f) {
        engine::EvalPlan vit_plan;
        vit_plan.kernel = engine::PlanKernel::Viterbi;
        vit_plan.format_id = series[f].format->id();
        engine::PlanInputs vit_inputs;
        vit_inputs.jobs = jobs;
        const auto paths = engine.run(vit_plan, vit_inputs).decodes;
        size_t agree = 0;
        size_t total = 0;
        int flushed = 0;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const std::vector<int> &oracle_path =
                oracle_decodes[i].path;
            for (size_t t = 0; t < oracle_path.size(); ++t)
                agree += paths[i].path[t] == oracle_path[t] ? 1 : 0;
            total += oracle_path.size();
            flushed += paths[i].first_underflow_step >= 0 ? 1 : 0;
        }
        viterbi_agreement[f] =
            static_cast<double>(agree) / static_cast<double>(total);
        std::printf("  %-13s %6.1f%%  (%d/%zu flushed)\n",
                    series[f].label.c_str(),
                    100.0 * viterbi_agreement[f], flushed,
                    jobs.size());
        format_records[f].add("viterbi_agreement",
                              viterbi_agreement[f]);
    }

    return bench::Json()
        .add("label", label)
        .add("sequences", jobs.size())
        .add("gamma_samples", gamma_samples)
        .add("mean_log2_magnitude", mean_magnitude)
        .add("batched_bit_identical", all_bit_identical)
        .add("formats", format_records);
}

} // namespace

int
main()
{
    using namespace pstat;
    stats::printBanner("Figure 12 (extension): posterior-marginal "
                       "accuracy and Viterbi agreement");

    const bench::WallTimer timer;
    const size_t t_len =
        static_cast<size_t>(bench::scaled(160, 40));

    engine::EvalEngine engine;
    std::printf("%u eval lanes; posterior evaluated raw and with "
                "per-step renormalization (PSTAT_SCALE to grow)\n",
                engine.threadCount());

    std::vector<bench::Json> settings;
    // (a) Likelihood ~2^-160: below binary32/bfloat16 range, inside
    // binary64's.
    settings.push_back(
        runSetting(engine, "(a) moderate decay (~1 bit/site)", t_len,
                   1.0));
    // (b) Likelihood ~2^-1600: below binary64's range too — only
    // renormalization, log-domain range, or tapered 64-bit posits
    // keep the marginals alive.
    settings.push_back(
        runSetting(engine, "(b) deep decay (~10 bits/site)", t_len,
                   10.0));

    std::printf("\nexpectations: raw-mode linear formats collapse "
                "once P(O) leaves their range (binary32/bfloat16 in "
                "(a), binary64 too in (b)); renormalization rescues "
                "range but not precision (bfloat16 stays ~2 digits); "
                "log32 decodes every path the oracle does.\n");

    const double wall_ms = timer.elapsedMs();
    std::printf("wall time: %.0f ms\n", wall_ms);
    bench::writeBenchJson(
        "fig12_posterior_accuracy",
        bench::Json()
            .add("bench", "fig12_posterior_accuracy")
            .add("wall_ms", wall_ms)
            .add("eval_lanes", static_cast<int>(engine.threadCount()))
            .add("settings", settings));
    return 0;
}
