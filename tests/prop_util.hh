/**
 * @file
 * Seeded randomized differential-testing utilities.
 *
 * The adaptive escalation subsystem promises that a certified answer
 * is never wrong; the only way to trust that promise is to fire
 * adversarial inputs at it and audit every certificate against the
 * exact BigFloat oracle. This header supplies the shared pieces:
 * deterministic per-case seeds, a PSTAT_DIFF_CASES case-count knob,
 * adversarial column generators (near-threshold, subnormal-heavy,
 * exact-zero/one factor, K ~ N), exact-oracle helpers, the
 * in-memory plan-run shorthand (plus the adaptive plan it usually
 * runs), and the scalar screened reference. Every failure message
 * carries the reproducing seed, so a red CI line is one local run
 * away from a debugger.
 */

#ifndef PSTAT_TESTS_PROP_UTIL_HH
#define PSTAT_TESTS_PROP_UTIL_HH

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bigfloat/bigfloat.hh"
#include "core/real_traits.hh"
#include "engine/env.hh"
#include "engine/eval_engine.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "stats/rng.hh"

namespace pstat::prop
{

/**
 * Differential case count: PSTAT_DIFF_CASES when validly set (a
 * positive integer), else the fallback. CI sanitizer legs lower it;
 * the default meets the 10k-columns acceptance bar.
 */
inline size_t
diffCases(size_t fallback = 10000)
{
    if (const char *env = std::getenv("PSTAT_DIFF_CASES")) {
        const auto parsed = engine::parseLong(env);
        if (parsed && *parsed > 0)
            return static_cast<size_t>(*parsed);
    }
    return fallback;
}

/**
 * The per-case seed of a sweep: deterministic, printable, and unique
 * per (sweep, case) pair so a failing case reproduces in isolation.
 */
inline uint64_t
caseSeed(uint64_t sweep_seed, size_t index)
{
    uint64_t s = sweep_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    return stats::splitmix64(s);
}

/**
 * A column whose p-value magnitude lands near the 2^-200 decision
 * threshold — the adversarial band where a sloppy bound would flip a
 * call. Reuses the dataset generator's magnitude targeting.
 */
inline pbd::Column
nearThresholdColumn(stats::Rng &rng)
{
    return pbd::makeColumnWithTarget(rng, rng.uniform(150.0, 260.0));
}

/**
 * A subnormal-heavy column: per-read probabilities so small that the
 * binary64 DP intermediates live in (or below) the subnormal range,
 * stressing the flush-mass side of the linear bound.
 */
inline pbd::Column
subnormalHeavyColumn(stats::Rng &rng)
{
    pbd::Column col;
    const int n = static_cast<int>(rng.range(10, 80));
    col.success_probs.reserve(n);
    for (int i = 0; i < n; ++i)
        col.success_probs.push_back(
            std::exp2(rng.uniform(-340.0, -240.0)));
    col.k = static_cast<int>(rng.range(1, 4));
    return col;
}

/**
 * A column stuffed with exact-zero and exact-one probabilities (the
 * all-(-inf)-factor regime of the log carriers), plus a few generic
 * reads so every structural branch is reachable: exact-zero tails,
 * exact-one products, and the reserved log-zero encodings.
 */
inline pbd::Column
exactFactorColumn(stats::Rng &rng)
{
    pbd::Column col;
    const int n = static_cast<int>(rng.range(4, 40));
    int ones = 0;
    for (int i = 0; i < n; ++i) {
        const double roll = rng.uniform();
        if (roll < 0.4) {
            col.success_probs.push_back(0.0);
        } else if (roll < 0.6) {
            col.success_probs.push_back(1.0);
            ++ones;
        } else {
            col.success_probs.push_back(rng.uniform(1e-9, 0.99));
        }
    }
    // K around the guaranteed-success count hits both the exact-one
    // tail (K <= ones: p-value 1-ish) and the impossible band.
    col.k = static_cast<int>(
        rng.range(0, static_cast<int64_t>(n) + 2));
    (void)ones;
    return col;
}

/** A K ~ N column: high success probabilities, near-full tails. */
inline pbd::Column
kNearNColumn(stats::Rng &rng)
{
    pbd::Column col;
    const int n = static_cast<int>(rng.range(5, 120));
    col.success_probs.reserve(n);
    for (int i = 0; i < n; ++i)
        col.success_probs.push_back(rng.uniform(0.3, 1.0 - 1e-9));
    col.k = n - static_cast<int>(rng.range(0, 2));
    return col;
}

/** A realistic background column: Phred-style noise, tiny K. */
inline pbd::Column
backgroundColumn(stats::Rng &rng)
{
    pbd::Column col;
    const int n = static_cast<int>(rng.range(30, 300));
    col.success_probs.reserve(n);
    for (int i = 0; i < n; ++i) {
        const double phred = rng.uniform(15.0, 45.0);
        col.success_probs.push_back(std::pow(10.0, -phred / 10.0));
    }
    col.k = static_cast<int>(rng.range(0, 4));
    return col;
}

/** A fully generic random column (no structural slant). */
inline pbd::Column
genericColumn(stats::Rng &rng)
{
    pbd::Column col;
    const int n = static_cast<int>(rng.range(1, 150));
    col.success_probs.reserve(n);
    for (int i = 0; i < n; ++i)
        col.success_probs.push_back(
            std::pow(10.0, rng.uniform(-12.0, 0.0)));
    col.k = static_cast<int>(
        rng.range(0, static_cast<int64_t>(n) + 1));
    return col;
}

/**
 * A column from the screen's documented workload (pbd/screen.hh):
 * Phred-style background noise plus near-threshold variant columns.
 * The no-false-skip differential sweeps run here — the screening
 * estimate is a heuristic whose guard band is sized for this
 * near-homogeneous regime, not for the adversarial mixture below
 * (where a mean-based surrogate can be arbitrarily loose on
 * heterogeneous columns).
 */
inline pbd::Column
screeningColumn(stats::Rng &rng)
{
    return rng.uniform() < 0.7 ? backgroundColumn(rng)
                               : nearThresholdColumn(rng);
}

/**
 * One adversarial column, drawn from the mixture the escalation
 * sweeps run on. Weighted toward the regimes where certification is
 * hardest: near-threshold decisions and flush-prone magnitudes.
 */
inline pbd::Column
adversarialColumn(stats::Rng &rng)
{
    const double roll = rng.uniform();
    if (roll < 0.30)
        return nearThresholdColumn(rng);
    if (roll < 0.50)
        return backgroundColumn(rng);
    if (roll < 0.65)
        return subnormalHeavyColumn(rng);
    if (roll < 0.78)
        return kNearNColumn(rng);
    if (roll < 0.88)
        return exactFactorColumn(rng);
    return genericColumn(rng);
}

/**
 * The exact oracle p-value of one column: the same Listing-2 DP in
 * 256-bit BigFloat arithmetic (relative error ~2^-250 — far beyond
 * anything a certificate claims).
 */
inline BigFloat
oraclePValue(const pbd::Column &column)
{
    return pbd::pvalue<BigFloat>(column.success_probs, column.k);
}

/**
 * Exact oracles of a whole column set, computed over the engine's
 * pool (the BigFloat DP is the expensive part of every sweep).
 */
inline std::vector<BigFloat>
oraclePValues(engine::EvalEngine &engine,
              std::span<const pbd::Column> columns)
{
    std::vector<BigFloat> out(columns.size());
    engine.parallelFor(columns.size(), [&](size_t i) {
        out[i] = oraclePValue(columns[i]);
    });
    return out;
}

/**
 * One in-memory EvalEngine::run over `columns` — the tests' shorthand
 * where the plan's policy, not its source, is under test.
 */
inline engine::PlanRun
runMemory(engine::EvalEngine &engine, const engine::EvalPlan &plan,
          std::span<const pbd::Column> columns)
{
    engine::PlanInputs inputs;
    inputs.columns = columns;
    return engine.run(plan, inputs);
}

/** runMemory over HMM jobs (forward, backward, posterior, Viterbi). */
inline engine::PlanRun
runMemory(engine::EvalEngine &engine, const engine::EvalPlan &plan,
          std::span<const engine::ForwardJob> jobs)
{
    engine::PlanInputs inputs;
    inputs.jobs = jobs;
    return engine.run(plan, inputs);
}

/**
 * An adaptive pvalue plan certifying `cert` on the ladder
 * `ladder_ids` (empty: the default ladder); a `screen` makes it
 * screened-adaptive.
 */
inline engine::EvalPlan
adaptivePlan(const engine::CertConfig &cert,
             std::vector<std::string> ladder_ids = {},
             const std::optional<pbd::ScreenConfig> &screen =
                 std::nullopt)
{
    engine::EvalPlan plan;
    plan.policy = screen ? engine::PlanPolicy::ScreenedAdaptive
                         : engine::PlanPolicy::Adaptive;
    plan.ladder_ids = std::move(ladder_ids);
    plan.cert = cert;
    if (screen)
        plan.screen = *screen;
    return plan;
}

/**
 * The scalar reference of a screened batch, composed from its
 * independent pieces: pbd::pvalueLog2Estimate per column,
 * pbd::applyScreen for the mask and stats, the format's per-item
 * pbdPValue on every evaluated column, and the 2^round(estimate)
 * placeholder on every skipped one.
 */
inline engine::ScreenedPValueBatch
scalarScreened(const engine::FormatOps &format,
               std::span<const pbd::Column> columns,
               const pbd::ScreenConfig &config, engine::SumPolicy sum)
{
    engine::ScreenedPValueBatch out;
    out.config = config;
    for (const pbd::Column &column : columns)
        out.estimates_log2.push_back(
            pbd::pvalueLog2Estimate(column.success_probs, column.k));
    pbd::ScreenDecisions decisions =
        pbd::applyScreen(out.estimates_log2, config);
    out.skipped = std::move(decisions.skip);
    out.stats = decisions.stats;
    for (size_t i = 0; i < columns.size(); ++i) {
        if (out.skipped[i]) {
            engine::EvalResult placeholder;
            placeholder.value = BigFloat::twoPow(
                std::llround(out.estimates_log2[i]));
            out.results.push_back(placeholder);
        } else {
            out.results.push_back(format.pbdPValue(
                columns[i].success_probs, columns[i].k, sum));
        }
    }
    return out;
}

/**
 * log2 magnitude of an oracle value (-inf for zero). Only for
 * wide-interval comparisons — the double conversion itself wobbles
 * by ~|log2| * 2^-52, so never compare against razor-thin margins.
 */
inline double
oracleLog2(const BigFloat &oracle)
{
    if (oracle.isZero())
        return -std::numeric_limits<double>::infinity();
    return oracle.log2Abs();
}

} // namespace pstat::prop

#endif // PSTAT_TESTS_PROP_UTIL_HH
