/**
 * @file
 * Phylogenetics scenario (the paper's VICAR case study): estimate an
 * HMM likelihood over genome sites where the true value is around
 * 2^-100,000, compare every number system, decode the hidden state
 * sequence (posterior marginals + Viterbi as EvalEngine::run
 * plans), and consult the FPGA model for what an
 * accelerator build of this pipeline would cost.
 *
 * Usage: phylogenetics [H] [T] [decay_bits_per_site]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/vicar.hh"
#include "core/accuracy.hh"
#include "engine/eval_engine.hh"
#include "fpga/accelerator.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace pstat;
    const int h = argc > 1 ? std::atoi(argv[1]) : 13;
    const size_t t_len =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 1200;
    const double decay = argc > 3 ? std::atof(argv[3]) : 90.0;

    stats::printBanner("Phylogenetics (VICAR-style) likelihood study");
    std::printf("H=%d hidden trees, T=%zu sites, ~%.0f bits lost per "
                "site\n\n",
                h, t_len, decay);

    const auto workload = apps::makeVicarWorkload(42, h, t_len, decay);
    const BigFloat oracle = apps::vicarOracle(workload);
    std::printf("oracle likelihood: 2^%.2f\n\n", oracle.log2Abs());

    stats::TextTable table({"number system", "result (log2)",
                            "rel err vs oracle (log10)", "verdict"});
    auto report = [&](const std::string &name,
                      const apps::VicarResult &r) {
        const double err = accuracy::relErrLog10(oracle, r.value);
        table.addRow(
            {name,
             r.underflow ? "0 (underflow)"
                         : stats::formatDouble(r.value.log2Abs(), 1),
             r.underflow ? "-" : stats::formatDouble(err, 1),
             r.underflow  ? "unusable"
             : err < -9.0 ? "excellent"
             : err < -6.0 ? "good"
                          : "poor"});
    };
    report("binary64", apps::vicarLikelihood<double>(workload));
    report("log-space (Listing 3)", apps::vicarLikelihoodLog(workload));
    report("posit(64,9)",
           apps::vicarLikelihood<Posit<64, 9>>(workload));
    report("posit(64,12)",
           apps::vicarLikelihood<Posit<64, 12>>(workload));
    report("posit(64,18)",
           apps::vicarLikelihood<Posit<64, 18>>(workload));
    table.print();

    // Decode the hidden state sequence through the engine: posterior
    // marginals (renormalized, so narrow formats survive the depth)
    // and the Viterbi path, against the ScaledDD oracle.
    engine::EvalEngine engine;
    const engine::ForwardJob job{&workload.model, workload.obs};
    engine::PlanInputs inputs;
    inputs.jobs = std::span<const engine::ForwardJob>(&job, 1);
    const auto oracle_gamma =
        engine.run(engine::oraclePlan(engine::PlanKernel::Posterior),
                   inputs)
            .posteriors[0]
            .gamma;
    const auto oracle_path =
        engine.run(engine::oraclePlan(engine::PlanKernel::Viterbi),
                   inputs)
            .decodes[0]
            .path;

    std::printf("\ndecoding (posterior marginals renormalized per "
                "step; Viterbi in-format):\n");
    stats::TextTable decode_table({"number system",
                                   "worst gamma err (log10)",
                                   "viterbi agreement"});
    const auto &registry = engine::FormatRegistry::instance();
    for (const char *id :
         {"binary64", "log", "posit64_18", "log32", "binary32",
          "bfloat16"}) {
        const auto &format = registry.at(id);
        engine::EvalPlan post_plan;
        post_plan.kernel = engine::PlanKernel::Posterior;
        post_plan.format_id = id;
        post_plan.renormalize = true;
        engine::EvalPlan vit_plan;
        vit_plan.kernel = engine::PlanKernel::Viterbi;
        vit_plan.format_id = id;
        inputs.format = &format;
        const auto post = engine.run(post_plan, inputs).posteriors;
        const auto vit = engine.run(vit_plan, inputs).decodes[0];
        double worst = -400.0;
        for (size_t k = 0; k < oracle_gamma.size(); ++k) {
            const double err = accuracy::relErrLog10(
                oracle_gamma[k].value, post[0].gamma[k].value);
            worst = err > worst ? err : worst;
        }
        size_t agree = 0;
        for (size_t t = 0; t < oracle_path.size(); ++t)
            agree += vit.path[t] == oracle_path[t] ? 1 : 0;
        decode_table.addRow(
            {format.name(), stats::formatDouble(worst, 1),
             stats::formatPercent(static_cast<double>(agree) /
                                      static_cast<double>(
                                          oracle_path.size()),
                                  1)});
    }
    decode_table.print();

    // What would an accelerator for this workload cost?
    std::printf("\naccelerator model for H=%d (T=500,000 run):\n", h);
    for (const auto format : {fpga::Format::Log, fpga::Format::Posit}) {
        const auto design = fpga::makeForwardUnit(format, h);
        std::printf("  %-28s %6.0f CLBs, %7.0f LUTs, %4.0f DSPs, "
                    "%.3f s\n",
                    design.name.c_str(), design.clb(), design.res.lut,
                    design.res.dsp,
                    fpga::forwardSeconds(format, h, 500000));
    }
    return 0;
}
