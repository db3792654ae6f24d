/**
 * @file
 * The VICAR-style phylogenetics application (HMM forward algorithm).
 *
 * VICAR analyzes evolutionary parameters of species trees with an
 * HMM over genome sites; its numeric core is the forward algorithm
 * whose likelihoods reach 2^-2,900,000 on T = 500,000 HCG sites. The
 * workload here is the synthetic coalescent-style generator from
 * src/hmm (see DESIGN.md §1 for the substitution rationale); the
 * runner evaluates the likelihood in any scalar format plus the
 * oracle, returning exact (BigFloat) values for accuracy analysis.
 */

#ifndef PSTAT_APPS_VICAR_HH
#define PSTAT_APPS_VICAR_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bigfloat/bigfloat.hh"
#include "engine/eval_engine.hh"
#include "hmm/forward.hh"
#include "hmm/generator.hh"
#include "hmm/model.hh"

namespace pstat::apps
{

/** A ready-to-run VICAR input: model (A, B) plus observations. */
struct VicarWorkload
{
    hmm::Model model;
    std::vector<int> obs;
};

/**
 * Build a workload.
 *
 * @param seed           generator seed (one workload per A/B matrix)
 * @param num_states     H (paper: 13, 32, 64, 128)
 * @param sequence_len   T
 * @param decay_bits     per-site likelihood decay (see PhyloConfig)
 */
VicarWorkload makeVicarWorkload(uint64_t seed, int num_states,
                                size_t sequence_len,
                                double decay_bits);

/**
 * Result of one likelihood evaluation, exact-valued for analysis
 * (underflow means result 0; the true likelihood is never 0).
 */
using VicarResult = engine::EvalResult;

/**
 * Likelihood in scalar format T using the accelerator dataflow
 * (tree-reduced inner sums).
 */
template <typename T>
VicarResult
vicarLikelihood(const VicarWorkload &workload)
{
    return engine::evalResultOf(
        hmm::forward<T>(workload.model, workload.obs,
                        hmm::Reduction::Tree)
            .likelihood);
}

/** Likelihood via the log-space accelerator dataflow (Listing 3). */
VicarResult vicarLikelihoodLog(const VicarWorkload &workload);

/** Oracle likelihood (ScaledDD forward). */
BigFloat vicarOracle(const VicarWorkload &workload);

/**
 * Batched likelihoods in a runtime-selected format over the engine
 * pool, in workload order. The Accelerator dataflow reproduces the
 * static paths exactly: tree-reduced forward<T> for linear formats,
 * the Listing-3 n-ary LSE for the log format.
 */
std::vector<VicarResult>
vicarLikelihoodBatch(const engine::FormatOps &format,
                     std::span<const VicarWorkload> workloads,
                     engine::EvalEngine &engine,
                     engine::Dataflow dataflow =
                         engine::Dataflow::Accelerator);

/** Batched oracle likelihoods over the engine pool. */
std::vector<BigFloat>
vicarOracleBatch(std::span<const VicarWorkload> workloads,
                 engine::EvalEngine &engine);

} // namespace pstat::apps

#endif // PSTAT_APPS_VICAR_HH
