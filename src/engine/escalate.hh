/**
 * @file
 * Adaptive precision escalation across the format ladder.
 *
 * PR 4's screening insight — cheap estimate everywhere, exact work
 * only near the decision boundary — generalized from one kernel to
 * the whole FormatRegistry: every p-value is first bounded
 * analytically, then computed in the cheapest format tier, and a
 * running error analysis of the Listing-2 recurrence (parameterized
 * by each format's ErrorModel) derives a certified interval around
 * the computed value. Only columns whose
 * interval fails to certify the answer — relative to a caller
 * tolerance, a decision threshold (LoFreq's 2^-200 cutoff plugs in
 * directly), or both — escalate to the next tier of the ladder the
 * plan names (default bfloat16 -> binary32 -> binary64 -> log ->
 * ScaledDD).
 *
 * The correctness contract: a certified result is *never* wrong.
 * Every bound here is conservative (one-sidedness of nonnegative
 * arithmetic, doubled rounding counts, padded libm slop), and the
 * differential harness (tests/test_escalate.cc) audits certified
 * answers against the BigFloat oracle over seeded adversarial
 * columns; mis-certification is a test failure, not a tolerance.
 *
 * Interaction with screening (pbd/screen.hh): when a ScreenConfig is
 * supplied, screen-skipped columns keep their magnitude placeholder
 * and are *never* escalated — the skip mask takes precedence over
 * escalation, so a column cannot be both "skipped with placeholder"
 * and "escalated" (ctest-enforced).
 */

#ifndef PSTAT_ENGINE_ESCALATE_HH
#define PSTAT_ENGINE_ESCALATE_HH

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/format_registry.hh"
#include "pbd/dataset.hh"
#include "pbd/screen.hh"

namespace pstat::engine
{

/**
 * What "certified" means for one result. At least one criterion must
 * be set (validatePlan throws std::invalid_argument otherwise); when
 * both are set, both must hold.
 */
struct CertConfig
{
    /**
     * Value criterion: log2 of the maximum relative error of the
     * computed value vs the exact result (e.g. -20 asks for ~6
     * correct decimal digits). Must be negative when set.
     */
    std::optional<double> tol_rel_log2;

    /**
     * Decision criterion: log2 of a threshold the exact value is
     * compared against (LoFreq: -200). Certified when the result's
     * interval lies entirely on one side of 2^threshold, i.e. the
     * call/no-call decision is provably correct even if the value
     * itself is not tight. Must be finite when set.
     */
    std::optional<double> threshold_log2;
};

/**
 * The default p-value certification: the LoFreq decision threshold
 * 2^-200 and no value tolerance. A constant; it reads no environment
 * variable (`pstat` applies PSTAT_CERT_TOL when it builds a plan).
 */
CertConfig defaultPValueCert();

/**
 * A certified enclosure of one computed result, in log2. The exact
 * real-arithmetic result x of the kernel on the same double inputs
 * satisfies 2^lo_log2 <= x <= 2^hi_log2; rel_bound_log2 bounds the
 * relative error of the *computed* value y against x
 * (|y - x| <= x * 2^rel_bound_log2). Endpoints may be infinite:
 * (-inf, +inf) is the vacuous interval of an uncertifiable result;
 * [-inf, -inf] is the exact zero.
 */
struct ResultInterval
{
    /** Certified lower endpoint, log2 (-inf when vacuous or zero). */
    double lo_log2 = -std::numeric_limits<double>::infinity();
    /** Certified upper endpoint, log2 (+inf when vacuous). */
    double hi_log2 = std::numeric_limits<double>::infinity();
    /** log2 relative-error bound of the computed value (+inf: none). */
    double rel_bound_log2 = std::numeric_limits<double>::infinity();
};

/** An ordered escalation ladder of format tiers (cheapest first). */
struct Ladder
{
    /** Borrowed registry formats, evaluated in order. */
    std::vector<const FormatOps *> tiers;
};

/**
 * The default ladder bfloat16 -> binary32 -> binary64 -> log ->
 * scaled_dd. A constant; it reads no environment variable (`pstat`
 * applies PSTAT_LADDER when it builds a plan).
 */
const Ladder &defaultLadder();

/**
 * Parse a comma-separated ladder spec ("binary32,binary64,log")
 * against the format registry. Empty optional when the spec is empty
 * or any token is not a registered format.
 */
std::optional<Ladder> parseLadder(const std::string &spec);

/** Tier index of a screen-skipped column (never escalated). */
inline constexpr int kTierSkipped = -1;
/** Tier index of a column certified by the analytic bounds alone. */
inline constexpr int kTierAnalytic = -2;

/** Per-item outcome of an adaptive evaluation. */
struct EscalationResult
{
    /**
     * The value of the certifying tier — or of the top tier when
     * nothing certified, a magnitude placeholder for screen-skipped
     * columns, and an enclosure-midpoint placeholder for
     * analytically certified decisions (consult rel_bound_log2
     * before trusting the value itself).
     */
    EvalResult result;
    /**
     * Ladder index that produced the result, or kTierAnalytic /
     * kTierSkipped.
     */
    int tier = 0;
    /** true when the CertConfig criteria are provably satisfied. */
    bool certified = false;
    /** The certified enclosure (vacuous for skipped columns). */
    ResultInterval interval;
};

/** What one tier of an adaptive evaluation did, and for how long. */
struct TierStats
{
    std::string format_id;  //!< registry id, or "analytic"
    size_t evaluated = 0;   //!< items evaluated at this tier
    size_t certified = 0;   //!< items certified at this tier
    /** Items routed past this tier a priori (bound provably hopeless). */
    size_t bypassed = 0;
    double wall_ms = 0.0;   //!< wall time of the tier's stage
};

/**
 * Fold one batch's per-tier tallies into running totals: counts and
 * wall time add up per format_id, and a tier first seen here is
 * appended, so @p totals keeps first-seen order. The one tier merge
 * of a streamed PlanRun and of the CLI report.
 */
void mergeTiers(std::vector<TierStats> &totals,
                std::span<const TierStats> tiers);

/** Result of one adaptive batch evaluation. */
struct AdaptiveBatch
{
    /** Per-item outcomes, in item order. */
    std::vector<EscalationResult> results;
    /**
     * Per-tier tallies in execution order: the analytic tier first,
     * then every ladder tier that ran.
     */
    std::vector<TierStats> tiers;
    /** The certification the batch was evaluated under. */
    CertConfig cert;
    /** Items certified (any tier, including analytic). */
    size_t certified = 0;
    /** Items uncertified even at the top tier (excludes skipped). */
    size_t uncertified = 0;
    /**
     * Screen-skip mask (empty when screening was off). Skipped
     * columns keep their placeholder and are never escalated: the
     * mask takes precedence over the ladder.
     */
    std::vector<uint8_t> skipped;
    /** Per-column estimates when screening was on (else empty). */
    std::vector<double> estimates_log2;
    /** Screening tallies (zeroed when screening was off). */
    pbd::ScreenStats screen_stats;
};

/**
 * Running-error interval of one Listing-2 p-value computed in a
 * format with the given ErrorModel. For Domain::Linear the bound
 * combines per-path relative inflation (every path through the DP
 * rounds O(N) times) with the absolute error flushes can inject; for
 * Domain::Log it is the accumulated absolute wobble of the carried
 * ln x against the column's log-magnitude budget
 * (pbd::columnLogBudget). Domain::None and invalid results yield the
 * vacuous interval. Pure function, exposed for the differential
 * harness.
 */
ResultInterval pbdPValueInterval(const ErrorModel &model,
                                 const pbd::ColumnView &column,
                                 SumPolicy sum,
                                 const EvalResult &result);

/** The interval implied by the analytic bounds of pbd/screen.hh. */
ResultInterval analyticInterval(const pbd::PValueBoundsLog2 &bounds);

/**
 * true when the interval provably satisfies every criterion of the
 * certification (and at least one criterion is set).
 */
bool certifies(const ResultInterval &interval, const CertConfig &cert);

/**
 * A-priori feasibility of one ladder tier for one column: false when
 * the tier provably cannot certify the answer regardless of what it
 * computes (Domain::None; a value tolerance tighter than the tier's
 * a-priori rounding bound; a decision the tier's flush mass or the
 * column's analytic enclosure rules out). Used to route columns past
 * hopeless tiers — a perf policy only: bypassing never certifies
 * anything, and the final ladder tier is always evaluated.
 */
bool tierFeasible(const FormatOps &format,
                  const pbd::ColumnView &column,
                  const pbd::PValueBoundsLog2 &analytic,
                  const CertConfig &cert, SumPolicy sum);

} // namespace pstat::engine

#endif // PSTAT_ENGINE_ESCALATE_HH
