#include "apps/vicar.hh"

namespace pstat::apps
{

VicarWorkload
makeVicarWorkload(uint64_t seed, int num_states, size_t sequence_len,
                  double decay_bits)
{
    stats::Rng rng(seed);
    hmm::PhyloConfig config;
    config.num_states = num_states;
    config.decay_bits_per_site = decay_bits;

    VicarWorkload out;
    out.model = hmm::makePhyloModel(rng, config);
    out.obs = hmm::sampleUniformObservations(
        rng, config.num_symbols, sequence_len);
    return out;
}

VicarResult
vicarLikelihoodLog(const VicarWorkload &workload)
{
    return engine::evalResultOf(
        hmm::forwardLogNary(workload.model, workload.obs).likelihood);
}

BigFloat
vicarOracle(const VicarWorkload &workload)
{
    return hmm::forwardOracle(workload.model, workload.obs)
        .likelihood.toBigFloat();
}

namespace
{

std::vector<engine::ForwardJob>
toJobs(std::span<const VicarWorkload> workloads)
{
    std::vector<engine::ForwardJob> jobs;
    jobs.reserve(workloads.size());
    for (const auto &w : workloads)
        jobs.push_back({&w.model, w.obs});
    return jobs;
}

} // namespace

std::vector<VicarResult>
vicarLikelihoodBatch(const engine::FormatOps &format,
                     std::span<const VicarWorkload> workloads,
                     engine::EvalEngine &engine,
                     engine::Dataflow dataflow)
{
    const std::vector<engine::ForwardJob> jobs = toJobs(workloads);
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::Forward;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = format.id();
    plan.dataflow = dataflow;
    engine::PlanInputs inputs;
    inputs.jobs = jobs;
    return engine.run(plan, inputs).results;
}

std::vector<BigFloat>
vicarOracleBatch(std::span<const VicarWorkload> workloads,
                 engine::EvalEngine &engine)
{
    const std::vector<engine::ForwardJob> jobs = toJobs(workloads);
    engine::PlanInputs inputs;
    inputs.jobs = jobs;
    const engine::PlanRun run =
        engine.run(engine::oraclePlan(engine::PlanKernel::Forward), inputs);
    std::vector<BigFloat> out;
    out.reserve(run.results.size());
    for (const engine::EvalResult &result : run.results)
        out.push_back(result.value);
    return out;
}

} // namespace pstat::apps
