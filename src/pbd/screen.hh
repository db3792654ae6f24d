/**
 * @file
 * Two-stage screened p-value pipeline: estimate, then exact DP.
 *
 * The variant-calling workload spends almost all of its time in the
 * exact O(N*K) Listing-2 dynamic program, yet the vast majority of
 * alignment columns are nowhere near the 2^-200 call threshold. The
 * screening stage runs the O(N) Cramér–Chernoff estimate
 * (pbd::pvalueLog2Estimate) on every column first and dispatches the
 * exact DP only on columns whose estimated log2 tail falls within a
 * configurable guard band of the threshold; everything clearly above
 * the band is skipped. This is the estimate-then-refine staging of
 * Sussman et al. (statistical/computational tradeoffs of estimation
 * procedures) applied to the paper's LoFreq workload.
 *
 * The estimate is deliberately conservative (a few percent of the
 * log); the guard band absorbs its error. Columns the screen does
 * evaluate go through the unmodified DP, so screened results are
 * bit-identical to the unscreened batch on every evaluated column.
 * ScreenStats records what the screen did, and countFalseSkips
 * audits the skip decisions against oracle p-values: a false skip is
 * a skipped column whose true p-value was below the threshold after
 * all (i.e. a missed variant call).
 */

#ifndef PSTAT_PBD_SCREEN_HH
#define PSTAT_PBD_SCREEN_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bigfloat/bigfloat.hh"
#include "pbd/dataset.hh"

namespace pstat::pbd
{

/** Configuration of the screening stage. */
struct ScreenConfig
{
    /**
     * log2 of the significance threshold the caller will apply to
     * the exact p-values (LoFreq calls a variant at p < 2^-200).
     */
    double threshold_log2 = -200.0;

    /**
     * Width of the guard band, in bits above the threshold. A column
     * is skipped only when its estimated log2 tail is above
     * threshold_log2 + guard_band_log2; estimates inside the band
     * still run the exact DP, absorbing the estimate's error. 0
     * trusts the estimate exactly at the threshold; larger bands
     * trade speedup for a smaller false-skip risk.
     */
    double guard_band_log2 = 64.0;
};

/** Per-dataset bookkeeping of what the screening stage did. */
struct ScreenStats
{
    size_t columns = 0;   //!< columns screened in total
    size_t skipped = 0;   //!< skipped: clearly above threshold + band
    size_t evaluated = 0; //!< exact DP dispatched
    /**
     * Evaluated columns whose estimate landed inside the guard band
     * (above the threshold but not above threshold + band): the
     * columns that only the band saved from being skipped. A high
     * hit count with zero false skips means the band is doing its
     * job; zero hits means it could be narrowed.
     */
    size_t guard_band_hits = 0;

    /**
     * Add another batch's tallies to these, field by field — the one
     * sum of screen tallies across shards or datasets.
     */
    ScreenStats &
    operator+=(const ScreenStats &other)
    {
        columns += other.columns;
        skipped += other.skipped;
        evaluated += other.evaluated;
        guard_band_hits += other.guard_band_hits;
        return *this;
    }
};

/**
 * true when the estimated log2 tail says the column is clearly
 * insignificant: above threshold + guard band, so the exact DP can
 * be skipped. (-infinity estimates — impossible events and deeply
 * critical columns — never skip.)
 */
inline bool
screenSkips(double estimate_log2, const ScreenConfig &config)
{
    return estimate_log2 >
           config.threshold_log2 + config.guard_band_log2;
}

/**
 * true when the estimate lies inside the guard band: above the
 * threshold (so a perfectly trusted estimate would have skipped) but
 * within the band (so the exact DP still runs).
 */
inline bool
screenGuardHit(double estimate_log2, const ScreenConfig &config)
{
    return estimate_log2 > config.threshold_log2 &&
           !screenSkips(estimate_log2, config);
}

/** Screening decisions of one batch, with their bookkeeping. */
struct ScreenDecisions
{
    /** 1 when the exact DP is skipped for that column, else 0. */
    std::vector<uint8_t> skip;
    ScreenStats stats; //!< tallies over the whole batch
};

/**
 * Apply the screen to precomputed per-column estimates (one
 * pvalueLog2Estimate value per column, in column order). Pure
 * decision logic — callers that parallelize the estimation stage
 * (EvalEngine::run's screened stage) share it with the serial path.
 */
ScreenDecisions applyScreen(std::span<const double> estimates_log2,
                            const ScreenConfig &config);

/**
 * A certified (mathematically rigorous) log2 enclosure of a
 * p-value: the exact P(X >= K) lies in [2^lo_log2, 2^hi_log2].
 * Either endpoint may be infinite (vacuous on that side); both are
 * -infinity exactly when the p-value is provably zero.
 */
struct PValueBoundsLog2
{
    double lo_log2 = 0.0; //!< certified lower endpoint (log2)
    double hi_log2 = 0.0; //!< certified upper endpoint (log2)
};

/**
 * O(N) certified enclosure of P(X >= K) — the analytic tier of the
 * adaptive escalation ladder (engine/escalate.hh), and the rigorous
 * counterpart of pvalueLog2Estimate: where the Cramér–Chernoff
 * estimate is accurate but heuristic, these bounds are loose but
 * *sound*, so a decision threshold (LoFreq's 2^-200) can be
 * certified without running any DP at all. No heap allocation, and
 * the libm calls run once per occupied binary octave of the
 * probabilities, not once per read.
 *
 * Reads with p = 0 never succeed and drop out; N' counts the rest.
 * Upper endpoint: the union bound P(X >= K) <= e_K(p) (the K-th
 * elementary symmetric polynomial) combined with Maclaurin's
 * inequality e_K <= C(N',K) * pbar^K, pbar the mean of the nonzero
 * probabilities.
 * Lower endpoint: binomial dominance. The m reads with p_i >= t
 * stochastically dominate Binomial(m, t): drive each read by its own
 * independent uniform U_i, and 1{U_i < p_i} >= 1{U_i < t}. So
 * P(X >= K) >= P(Binomial(m, t) >= K) >= C(m,K) t^K (1-t)^(m-K).
 * At t = 1 (at least K reads with p = 1) the event is sure and the
 * term is 1.
 *
 * Two stages compute it:
 *
 *  1. The read pass, one branch-free vectorized sweep (on the
 *     process's simd::activeIsa()), gathers validity, N', the sum of
 *     the reads and t_min, the least nonzero read. The sum runs in a
 *     fixed 4-stripe order — read i feeds stripe i % 4, the stripes
 *     combine pairwise, ((s0 + s1) + (s2 + s3)), then the n % 4 tail
 *     reads are added in index order — so every ISA returns the same
 *     bits. From these come the upper endpoint and the cheap lower
 *     endpoint, the single term m = N', t = t_min.
 *  2. The octave walk files each read into its binary octave (count
 *     and least probability only) and takes the best term over
 *     t = the least probability at or above each octave, which keeps
 *     the C(m,K) ways the event can happen instead of pricing one
 *     outcome. The t_min term is its bottom octave's, so the walk's
 *     lower endpoint is never below the cheap one.
 *
 * decide_log2, when given, is the caller's decision threshold: if
 * the cheap enclosure already lies on one side of it (hi below it,
 * or the cheap lower endpoint at or above it) the walk is skipped
 * and that enclosure is returned. Its upper endpoint is the same
 * bits either way, but its lower endpoint may be wider than the
 * walk's — it answers the decision, not the magnitude. Without a
 * threshold, or when the cheap enclosure straddles it, the walk
 * always runs.
 *
 * Both endpoints are padded by 2 bits plus a term covering every
 * libm rounding in their own evaluation and the summation error in
 * any order, so the enclosure holds for the exact real-arithmetic
 * p-value; the differential harness (tests/test_escalate.cc) audits
 * this against the BigFloat oracle over adversarial columns.
 *
 * Edge cases: K <= 0 gives the exact enclosure [1, 1]; K > N' (an
 * impossible event, including K > N and all-zero columns) gives the
 * exact [0, 0]; any invalid probability (NaN, outside [0, 1]) yields
 * the vacuous enclosure (-inf, +inf].
 */
PValueBoundsLog2
certifiedBoundsLog2(const ColumnView &column,
                    std::optional<double> decide_log2 = std::nullopt);

/**
 * False-skip audit: the number of skipped columns whose exact
 * (oracle) p-value is below the threshold — variants the screen
 * would have missed. oracle holds exact p-values in column order
 * and must be the same length as the skip mask (throws
 * std::invalid_argument otherwise — a truncated oracle would make
 * the audit vacuously clean); NaN oracle entries are ignored, exact
 * zeros count as below any threshold.
 */
size_t countFalseSkips(std::span<const uint8_t> skipped,
                       std::span<const BigFloat> oracle,
                       double threshold_log2);

} // namespace pstat::pbd

#endif // PSTAT_PBD_SCREEN_HH
