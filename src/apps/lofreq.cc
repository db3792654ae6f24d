#include "apps/lofreq.hh"

namespace pstat::apps
{

std::vector<BigFloat>
lofreqOracle(const pbd::ColumnDataset &dataset)
{
    std::vector<BigFloat> out;
    out.reserve(dataset.columns.size());
    for (const auto &column : dataset.columns) {
        out.push_back(
            pbd::pvalueOracle(column.success_probs, column.k)
                .toBigFloat());
    }
    return out;
}

std::vector<PValueResult>
lofreqPValues(const engine::FormatOps &format,
              const pbd::ColumnDataset &dataset,
              engine::EvalEngine &engine, engine::SumPolicy sum)
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = format.id();
    plan.sum = sum;
    engine::PlanInputs inputs;
    inputs.columns = dataset.columns;
    return engine.run(plan, inputs).results;
}

std::vector<BigFloat>
lofreqOracle(const pbd::ColumnDataset &dataset,
             engine::EvalEngine &engine)
{
    engine::PlanInputs inputs;
    inputs.columns = dataset.columns;
    const engine::PlanRun run =
        engine.run(engine::oraclePlan(engine::PlanKernel::PValue), inputs);
    std::vector<BigFloat> out;
    out.reserve(run.results.size());
    for (const engine::EvalResult &result : run.results)
        out.push_back(result.value);
    return out;
}

ScreenedPValues
lofreqPValuesScreened(const engine::FormatOps &format,
                      const pbd::ColumnDataset &dataset,
                      engine::EvalEngine &engine,
                      const pbd::ScreenConfig &config,
                      engine::SumPolicy sum)
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Screened;
    plan.format_id = format.id();
    plan.screen = config;
    plan.sum = sum;
    engine::PlanInputs inputs;
    inputs.columns = dataset.columns;
    return engine.run(plan, inputs).screened;
}

size_t
lofreqFalseSkips(const ScreenedPValues &screened,
                 const std::vector<BigFloat> &oracle)
{
    return pbd::countFalseSkips(screened.skipped, oracle,
                                screened.config.threshold_log2);
}

std::vector<bool>
callVariants(const std::vector<BigFloat> &pvalues)
{
    const BigFloat threshold = lofreqThreshold();
    std::vector<bool> out;
    out.reserve(pvalues.size());
    for (const auto &p : pvalues)
        out.push_back(p.isFinite() && p < threshold);
    return out;
}

} // namespace pstat::apps
