/**
 * @file
 * The four workloads of the pstat benchmark and their output checks.
 *
 * Each workload builds its inputs from the seed, runs them through the
 * library's public entry points (EvalEngine::run on an EvalPlan, or the
 * `pstat serve` Server and Client), checks every output, and fills a
 * Report: end-to-end metrics in an untraced run, per-layer metrics in
 * a traced one. The checks are free functions so the self-test can
 * feed them corrupted results.
 */

#ifndef PSTATBENCH_WORKLOADS_HH
#define PSTATBENCH_WORKLOADS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/escalate.hh"
#include "engine/format_registry.hh"
#include "measure.hh"
#include "serve/frame.hh"

namespace pstatbench
{

/** One benchmark invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where a traced run writes its spans (empty: nowhere). */
    std::string trace_out;
    /** Evaluation lanes (at most the machine's processor count). */
    unsigned lanes = 1;
};

/** Run one workload into @p report; throws on a setup failure. */
void runWorkload(const Options &options, Report &report);

/** The LoFreq call threshold, log2 (p < 2^-200 is a variant call). */
inline constexpr double kThresholdLog2 = -200.0;

/**
 * lofreq-stream check: columns flagged invalid or underflow, or whose
 * 2^-200 call differs from the reference call (ref_below[i] != 0 when
 * the reference p-value is below the threshold).
 */
size_t callFailures(std::span<const pstat::engine::EvalResult> results,
                    const std::vector<uint8_t> &ref_below);

/**
 * adaptive-decide check: columns left uncertified, and certified
 * decisions on the wrong side of the threshold.
 */
size_t decisionFailures(const pstat::engine::AdaptiveBatch &batch,
                        const std::vector<uint8_t> &ref_below);

/** serve-openloop check: false unless Ok with the expected records. */
bool responseMatches(const pstat::serve::ServeResponse &response,
                     const std::vector<pstat::serve::ResponseRecord>
                         &expected);

/** Stated error bound of phylo-forward: log10 relative error vs ref. */
inline constexpr double kForwardBoundLog10 = -9.0;

/**
 * phylo-forward check: likelihoods that are invalid, zero or
 * non-finite, or whose relative error against the reference exceeds
 * 10^kForwardBoundLog10.
 */
size_t likelihoodFailures(
    std::span<const pstat::engine::EvalResult> results,
    const std::vector<pstat::BigFloat> &reference);

} // namespace pstatbench

#endif // PSTATBENCH_WORKLOADS_HH
