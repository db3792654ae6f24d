/**
 * @file
 * The LoFreq-style genomics application (variant calling via PBD).
 *
 * LoFreq models each alignment column with a Poisson Binomial
 * Distribution over per-read error probabilities and calls a variant
 * when the upper-tail p-value drops below 2^-200. The runner
 * evaluates every column's p-value in a chosen scalar format,
 * returning exact (BigFloat) values plus per-column validity flags;
 * the caller compares against the oracle and the 2^-200 threshold.
 *
 * Formats can be chosen statically (lofreqPValues<T>) or at runtime
 * through the engine: the FormatOps overloads evaluate whole
 * datasets on the EvalEngine worker pool, one column per work item,
 * with results in column order (bit-identical to the scalar path).
 *
 * lofreqPValuesScreened is the production-style fast path: the
 * Cramér–Chernoff estimate screens every column first and the exact
 * O(N*K) dynamic program runs only on columns near the call
 * threshold (pbd/screen.hh), with per-dataset screening stats and a
 * false-skip audit against the oracle (lofreqFalseSkips).
 */

#ifndef PSTAT_APPS_LOFREQ_HH
#define PSTAT_APPS_LOFREQ_HH

#include <vector>

#include "bigfloat/bigfloat.hh"
#include "engine/eval_engine.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/screen.hh"

namespace pstat::apps
{

/** The variant-call significance threshold used by LoFreq. */
inline BigFloat
lofreqThreshold()
{
    return BigFloat::twoPow(-200);
}

/**
 * One column's p-value evaluation (value is exact; invalid flags
 * NaR/NaN, underflow flags a computed zero).
 */
using PValueResult = engine::EvalResult;

/** Evaluate every column of a dataset in scalar format T. */
template <typename T>
std::vector<PValueResult>
lofreqPValues(const pbd::ColumnDataset &dataset)
{
    std::vector<PValueResult> out;
    out.reserve(dataset.columns.size());
    for (const auto &column : dataset.columns)
        out.push_back(engine::evalResultOf(
            pbd::pvalue<T>(column.success_probs, column.k)));
    return out;
}

/**
 * Evaluate every column in a runtime-selected registry format,
 * batched over the engine's worker pool, under the given summation
 * policy (Plain unless the caller names another).
 */
std::vector<PValueResult>
lofreqPValues(const engine::FormatOps &format,
              const pbd::ColumnDataset &dataset,
              engine::EvalEngine &engine,
              engine::SumPolicy sum = engine::SumPolicy::Plain);

/**
 * One dataset's screened evaluation (two-stage pipeline of
 * pbd/screen.hh): exact-DP results where the screen dispatched the
 * DP, magnitude placeholders where it skipped, plus the skip mask,
 * per-column estimates, and screening stats.
 */
using ScreenedPValues = engine::ScreenedPValueBatch;

/**
 * Evaluate every column through the screened two-stage pipeline:
 * the O(N) Cramér–Chernoff estimate everywhere, the exact O(N*K)
 * DP only on columns within the screen's guard band of the call
 * threshold. Evaluated columns are bit-identical to the unscreened
 * lofreqPValues slot. The default config anchors the screen at the
 * LoFreq 2^-200 call threshold with a 64-bit guard band.
 */
ScreenedPValues
lofreqPValuesScreened(const engine::FormatOps &format,
                      const pbd::ColumnDataset &dataset,
                      engine::EvalEngine &engine,
                      const pbd::ScreenConfig &config = {},
                      engine::SumPolicy sum = engine::SumPolicy::Plain);

/**
 * False-skip audit of a screened evaluation against oracle
 * p-values (column order must match): the number of skipped
 * columns whose true p-value was below the screen's threshold —
 * i.e. variant calls the screen would have missed.
 */
size_t lofreqFalseSkips(const ScreenedPValues &screened,
                        const std::vector<BigFloat> &oracle);

/** Oracle p-values for every column. */
std::vector<BigFloat> lofreqOracle(const pbd::ColumnDataset &dataset);

/** Oracle p-values for every column, batched over the engine. */
std::vector<BigFloat> lofreqOracle(const pbd::ColumnDataset &dataset,
                                   engine::EvalEngine &engine);

/** Variant calls (p < 2^-200) from exact p-values. */
std::vector<bool> callVariants(const std::vector<BigFloat> &pvalues);

} // namespace pstat::apps

#endif // PSTAT_APPS_LOFREQ_HH
