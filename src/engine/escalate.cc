#include "engine/escalate.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <utility>

#include "engine/eval_engine.hh"
#include "pbd/pbd.hh"

namespace pstat::engine
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** log2(2^a + 2^b), stable for any mix of finite and -inf inputs. */
double
log2Add(double a, double b)
{
    if (a == -kInf)
        return b;
    if (b == -kInf)
        return a;
    const double hi = std::max(a, b);
    const double lo = std::min(a, b);
    return hi + std::log1p(std::exp2(lo - hi)) / M_LN2;
}

/** log2(2^a - 2^b), or -inf when the difference is not positive. */
double
log2Sub(double a, double b)
{
    if (b == -kInf)
        return a;
    if (b >= a)
        return -kInf;
    // a + log2(1 - 2^(b-a)); the argument is in (-1, 0).
    return a + std::log1p(-std::exp2(b - a)) / M_LN2;
}

/** Wall clock of one escalation stage, in milliseconds. */
class StageTimer
{
  public:
    double
    ms() const
    {
        const auto dt = std::chrono::steady_clock::now() - t0_;
        return std::chrono::duration<double, std::milli>(dt).count();
    }

  private:
    std::chrono::steady_clock::time_point t0_ =
        std::chrono::steady_clock::now();
};

/**
 * Rounding-operation count on any value path of the Listing-2 DP in
 * a linear format, doubled for conservatism. Each surviving term's
 * path rounds at most five times per trial (two input conversions,
 * two multiplies, one add of the recurrence), and the running
 * p-value accumulation appends one rounding per remaining trial
 * under plain summation — or O(1) under Neumaier compensation, whose
 * error bound is independent of the term count (the compensation
 * term recovers what each add discards; see core/compensated.hh).
 */
double
pbdPathRoundings(size_t n, const ErrorModel &model, SumPolicy sum)
{
    const double nn = static_cast<double>(n);
    const double acc =
        sum == SumPolicy::Compensated && model.compensable
            ? 8.0
            : nn + 4.0;
    return 2.0 * (5.0 * nn + acc + 8.0);
}

/**
 * log2 of the total absolute error mass the Listing-2 DP's flushes
 * can inject in a linear format: the per-flush worst case times a
 * doubled count of every multiply/add the kernel performs (the DP
 * proper is <= 3*N*K operations, the tail accumulation <= 4*N).
 * -inf when the format cannot flush.
 */
double
pbdFlushMassLog2(size_t n, int k, const ErrorModel &model)
{
    if (!std::isfinite(model.flush_abs_log2))
        return -kInf;
    const double nn = static_cast<double>(n);
    const double kk = static_cast<double>(std::max(k, 1));
    return model.flush_abs_log2 +
           std::log2(2.0 * (3.0 * nn * kk + 4.0 * nn + 16.0));
}

/**
 * Absolute wobble of the carried ln x accumulated by the Listing-2
 * DP in a log-domain format: per-operation error <= 8*u*(L+4) (one
 * LSE costs a subtraction of two budget-bounded logs, an exp, a
 * log1p, and an add, each relatively accurate to u), times a doubled
 * 5-per-trial-plus-accumulation path count. L is the column's
 * log-magnitude budget with ln(N+1) headroom for the partial sums.
 */
double
pbdLogWobble(const pbd::ColumnView &column, const ErrorModel &model)
{
    const double nn =
        static_cast<double>(column.success_probs.size());
    const double c = 2.0 * (5.0 * nn + 16.0);
    const double budget =
        pbd::columnLogBudget(column.success_probs) +
        std::log(nn + 1.0) + 4.0;
    const double u = std::exp2(model.unit_roundoff_log2);
    return 8.0 * c * u * (budget + 4.0);
}

/**
 * The certified enclosure of a linear-domain computed value y: the
 * exact x satisfies y ∈ [x*(1-u)^c - A, x*(1+u)^c + A], so
 * x >= (y - A)/(1+u)^c and x <= (y + A)/(1-u)^c. All log2.
 */
ResultInterval
linearInterval(double y_log2, double roundings, double flush_log2,
               double unit_roundoff_log2, bool cap_at_one)
{
    const double u = std::exp2(unit_roundoff_log2);
    ResultInterval iv;
    // c*u blowing past 1 makes the deflation side meaningless; the
    // formulas below stay conservative either way (log1p(-u) is
    // finite for u < 1, and every certifiable format has u <= 2^-8).
    const double inflate_bits = roundings * std::log1p(u) / M_LN2;
    const double deflate_bits =
        roundings * -std::log1p(-u) / M_LN2;
    iv.lo_log2 = log2Sub(y_log2, flush_log2) - inflate_bits;
    iv.hi_log2 = log2Add(y_log2, flush_log2) + deflate_bits;
    if (cap_at_one) {
        iv.lo_log2 = std::min(iv.lo_log2, 0.0);
        iv.hi_log2 = std::min(iv.hi_log2, 0.0);
    }

    if (y_log2 == -kInf) {
        // Computed zero: exact when the enclosure pins zero, else no
        // relative claim at all.
        iv.rel_bound_log2 = iv.hi_log2 == -kInf ? -kInf : kInf;
        return iv;
    }
    if (iv.lo_log2 == -kInf) {
        iv.rel_bound_log2 = kInf;
        return iv;
    }
    // |y - x| <= x*(1 - (1-u)^c) + A <= x*expm1(-c*log1p(-u)) + A,
    // and A/x <= 2^(flush - lo). Computed directly — differencing
    // the log2 endpoints instead would cancel catastrophically when
    // the width is below one ulp of a deep magnitude (ScaledDD's
    // ~2^-94-bit widths at 2^-300 values round to zero width, which
    // would turn a ~2^-90 bound into a false "exact" claim).
    const double rel =
        std::expm1(roundings * -std::log1p(-u)) +
        (flush_log2 == -kInf
             ? 0.0
             : std::exp2(flush_log2 - iv.lo_log2));
    iv.rel_bound_log2 = rel > 0.0 ? std::log2(rel) : -kInf;
    return iv;
}

/**
 * The certified enclosure of a log-domain computed value: the
 * carried ln wobbles by at most delta_ln, so x ∈ y * e^{±delta_ln}.
 */
ResultInterval
logInterval(double y_log2, double delta_ln, bool cap_at_one)
{
    ResultInterval iv;
    if (y_log2 == -kInf) {
        // Log carriers reach zero only through exact-zero inputs
        // (the encoding is reserved, nothing flushes): exact.
        iv.lo_log2 = -kInf;
        iv.hi_log2 = -kInf;
        iv.rel_bound_log2 = -kInf;
        return iv;
    }
    const double delta_bits = delta_ln / M_LN2;
    iv.lo_log2 = y_log2 - delta_bits;
    iv.hi_log2 = y_log2 + delta_bits;
    if (cap_at_one) {
        iv.lo_log2 = std::min(iv.lo_log2, 0.0);
        iv.hi_log2 = std::min(iv.hi_log2, 0.0);
    }
    const double rel = std::expm1(delta_ln);
    iv.rel_bound_log2 = rel > 0.0 ? std::log2(rel) : -kInf;
    return iv;
}

/** Exact-value interval of a structurally exact result. */
ResultInterval
exactInterval(double value_log2)
{
    return ResultInterval{value_log2, value_log2, -kInf};
}

/**
 * log2 of a computed result's magnitude: -inf for zero, no value
 * (empty optional) for invalid or negative results, which get the
 * vacuous interval.
 */
std::optional<double>
resultLog2(const EvalResult &result)
{
    if (result.invalid)
        return std::nullopt;
    if (result.value.isZero())
        return -kInf;
    if (result.value < BigFloat::zero())
        return std::nullopt;
    return result.value.log2Abs();
}

/** Placeholder EvalResult for an analytically certified column. */
EvalResult
analyticResult(const pbd::PValueBoundsLog2 &bounds)
{
    EvalResult r;
    if (bounds.hi_log2 == -kInf) {
        r.value = BigFloat::zero();
        r.underflow = true;
        return r;
    }
    if (bounds.lo_log2 == 0.0 && bounds.hi_log2 == 0.0) {
        r.value = BigFloat::one();
        return r;
    }
    const double mid = bounds.lo_log2 == -kInf
                           ? bounds.hi_log2
                           : 0.5 * (bounds.lo_log2 + bounds.hi_log2);
    const double clamped = std::clamp(mid, -1.0e15, 1.0e15);
    r.value = BigFloat::twoPow(std::llround(clamped));
    return r;
}

} // namespace

CertConfig
defaultPValueCert()
{
    CertConfig cert;
    // The same decision boundary the screen defends (LoFreq 2^-200).
    cert.threshold_log2 = pbd::ScreenConfig{}.threshold_log2;
    return cert;
}

std::optional<Ladder>
parseLadder(const std::string &spec)
{
    const auto &registry = FormatRegistry::instance();
    Ladder ladder;
    size_t start = 0;
    for (;;) {
        const size_t comma = spec.find(',', start);
        std::string token =
            comma == std::string::npos
                ? spec.substr(start)
                : spec.substr(start, comma - start);
        // Trim surrounding whitespace; an empty token is malformed.
        const auto is_space = [](unsigned char ch) {
            return std::isspace(ch) != 0;
        };
        while (!token.empty() &&
               is_space(static_cast<unsigned char>(token.front())))
            token.erase(token.begin());
        while (!token.empty() &&
               is_space(static_cast<unsigned char>(token.back())))
            token.pop_back();
        if (token.empty())
            return std::nullopt;
        const FormatOps *ops = registry.find(token);
        if (ops == nullptr)
            return std::nullopt;
        ladder.tiers.push_back(ops);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return ladder;
}

const Ladder &
defaultLadder()
{
    static const Ladder cached = [] {
        Ladder ladder;
        const auto &registry = FormatRegistry::instance();
        for (const char *id :
             {"bfloat16", "binary32", "binary64", "log",
              "scaled_dd"})
            ladder.tiers.push_back(&registry.at(id));
        return ladder;
    }();
    return cached;
}

ResultInterval
analyticInterval(const pbd::PValueBoundsLog2 &bounds)
{
    ResultInterval iv;
    iv.lo_log2 = bounds.lo_log2;
    iv.hi_log2 = bounds.hi_log2;
    // The analytic bounds enclose the exact value but make no claim
    // about any computed value — except when they pin it exactly.
    iv.rel_bound_log2 =
        bounds.lo_log2 == bounds.hi_log2 ? -kInf : kInf;
    return iv;
}

bool
certifies(const ResultInterval &interval, const CertConfig &cert)
{
    if (!cert.tol_rel_log2 && !cert.threshold_log2)
        return false;
    if (cert.tol_rel_log2 &&
        !(interval.rel_bound_log2 <= *cert.tol_rel_log2))
        return false;
    if (cert.threshold_log2) {
        const double thr = *cert.threshold_log2;
        const bool below = interval.hi_log2 < thr;
        const bool at_or_above = interval.lo_log2 >= thr;
        if (!below && !at_or_above)
            return false;
    }
    return true;
}

ResultInterval
pbdPValueInterval(const ErrorModel &model,
                  const pbd::ColumnView &column, SumPolicy sum,
                  const EvalResult &result)
{
    ResultInterval vacuous;
    if (!certifiable(model))
        return vacuous;
    const size_t n = column.success_probs.size();
    const int k = column.k;
    // The kernels short-circuit these without arithmetic.
    if (k <= 0)
        return exactInterval(0.0);
    if (k > static_cast<int>(n))
        return exactInterval(-kInf);

    const auto y_log2 = resultLog2(result);
    if (!y_log2)
        return vacuous;

    if (model.domain == ErrorModel::Domain::Linear) {
        return linearInterval(*y_log2,
                              pbdPathRoundings(n, model, sum),
                              pbdFlushMassLog2(n, k, model),
                              model.unit_roundoff_log2,
                              /*cap_at_one=*/true);
    }
    return logInterval(*y_log2, pbdLogWobble(column, model),
                       /*cap_at_one=*/true);
}

bool
tierFeasible(const FormatOps &format, const pbd::ColumnView &column,
             const pbd::PValueBoundsLog2 &analytic,
             const CertConfig &cert, SumPolicy sum)
{
    const ErrorModel model = format.errorModel();
    if (!certifiable(model))
        return false;
    const size_t n = column.success_probs.size();
    const int k = column.k;
    // Structurally exact columns certify at any certifiable tier.
    if (k <= 0 || k > static_cast<int>(n))
        return true;

    // A-priori relative wobble (bits) and flush mass of this tier on
    // this column, independent of what it would compute.
    double wobble_bits;
    double flush_log2;
    if (model.domain == ErrorModel::Domain::Linear) {
        const double u = std::exp2(model.unit_roundoff_log2);
        wobble_bits = pbdPathRoundings(n, model, sum) *
                      std::log1p(u) / M_LN2;
        flush_log2 = pbdFlushMassLog2(n, k, model);
    } else {
        wobble_bits = pbdLogWobble(column, model) / M_LN2;
        flush_log2 = -kInf;
    }

    if (cert.tol_rel_log2) {
        const double rel = std::expm1(wobble_bits * M_LN2);
        const bool rel_ok =
            rel > 0.0
                ? std::log2(rel) <= *cert.tol_rel_log2
                : true;
        // The value must also sit far enough above the flush mass
        // for A/x to fit inside the tolerance (slack of 2 bits keeps
        // this permissive — bypassing is a routing policy, and a
        // wrongly kept tier only costs time).
        const bool representable =
            flush_log2 == -kInf ||
            analytic.hi_log2 >=
                flush_log2 - *cert.tol_rel_log2 - 2.0;
        if (rel_ok && representable)
            return true;
    }
    if (cert.threshold_log2) {
        const double thr = *cert.threshold_log2;
        // "Provably below": the computed upper endpoint is at least
        // the flush mass, so the tier can only show hi < thr when
        // its flush floor is below the threshold — and only when the
        // analytic enclosure leaves "below" possible at all.
        const bool below_possible =
            flush_log2 < thr && analytic.lo_log2 < thr;
        // "Provably not below": the computed lower endpoint subtracts
        // the flush mass and then trails the value by the wobble, and
        // the value realistically tracks the exact one, so the
        // enclosure's upper end must clear 2^thr + 2^flush by the
        // wobble.
        const bool at_or_above_possible =
            analytic.hi_log2 - wobble_bits >= log2Add(thr, flush_log2);
        if (below_possible || at_or_above_possible)
            return true;
    }
    return false;
}

AdaptiveBatch
EvalEngine::adaptiveEval(
    const Ladder &ladder, size_t n,
    const std::function<pbd::ColumnView(size_t)> &column,
    const CertConfig &cert,
    const std::optional<pbd::ScreenConfig> &screen, SumPolicy sum)
{
    AdaptiveBatch out;
    out.cert = cert;
    out.results.resize(n);

    std::vector<size_t> pending;
    pending.reserve(n);

    if (screen) {
        // Stage 0: the estimate screen. Skipped columns keep their
        // magnitude placeholder and are never escalated — the skip
        // mask takes precedence over the ladder.
        out.estimates_log2.resize(n);
        parallelFor(n, [&](size_t i) {
            const pbd::ColumnView view = column(i);
            out.estimates_log2[i] =
                pbd::pvalueLog2Estimate(view.success_probs, view.k);
        });
        auto decisions = pbd::applyScreen(out.estimates_log2, *screen);
        out.skipped = std::move(decisions.skip);
        out.screen_stats = decisions.stats;
        for (size_t i = 0; i < n; ++i) {
            if (out.skipped[i]) {
                out.results[i].result.value = BigFloat::twoPow(
                    std::llround(out.estimates_log2[i]));
                out.results[i].tier = kTierSkipped;
            } else {
                pending.push_back(i);
            }
        }
    } else {
        for (size_t i = 0; i < n; ++i)
            pending.push_back(i);
    }

    // Analytic tier: O(N) certified bounds on every live column —
    // both a certifier in its own right (decision-mode columns far
    // from the threshold never touch the DP) and the routing input
    // of the per-tier feasibility checks below. A threshold-only cert
    // lets a column stop at the cheap enclosure once it decides (a
    // decided column is never routed); analytic intervals never meet
    // a tolerance, so tolerance certs keep the full walk's bounds.
    std::vector<pbd::PValueBoundsLog2> bounds(n);
    const std::optional<double> decide_log2 =
        cert.tol_rel_log2 ? std::nullopt : cert.threshold_log2;
    {
        StageTimer timer;
        std::vector<uint8_t> done(n, 0);
        parallelFor(pending.size(), [&](size_t j) {
            const size_t i = pending[j];
            bounds[i] =
                pbd::certifiedBoundsLog2(column(i), decide_log2);
            const ResultInterval iv = analyticInterval(bounds[i]);
            if (certifies(iv, cert)) {
                out.results[i] =
                    EscalationResult{analyticResult(bounds[i]),
                                     kTierAnalytic, true, iv};
                done[i] = 1;
            }
        });
        TierStats stats;
        stats.format_id = "analytic";
        stats.evaluated = pending.size();
        std::vector<size_t> next;
        next.reserve(pending.size());
        for (const size_t i : pending) {
            if (done[i])
                ++stats.certified;
            else
                next.push_back(i);
        }
        stats.wall_ms = timer.ms();
        out.tiers.push_back(stats);
        pending.swap(next);
    }

    // The ladder, cheapest tier first. Every pending column is
    // resolved by the end: the final tier never bypasses.
    for (size_t t = 0; t < ladder.tiers.size() && !pending.empty();
         ++t) {
        const FormatOps &format = *ladder.tiers[t];
        const bool last = t + 1 == ladder.tiers.size();
        StageTimer timer;
        TierStats stats;
        stats.format_id = format.id();

        // Route hopeless columns past this tier (perf policy only).
        std::vector<uint8_t> feasible(pending.size(), 1);
        if (!last) {
            parallelFor(pending.size(), [&](size_t j) {
                feasible[j] = tierFeasible(format, column(pending[j]),
                                           bounds[pending[j]], cert,
                                           sum)
                                  ? 1
                                  : 0;
            });
        }
        std::vector<size_t> eval_idx;
        eval_idx.reserve(pending.size());
        for (size_t j = 0; j < pending.size(); ++j) {
            if (feasible[j])
                eval_idx.push_back(pending[j]);
        }
        stats.evaluated = eval_idx.size();
        stats.bypassed = pending.size() - eval_idx.size();

        // Evaluate this tier's share: each lane gathers its chunk's
        // columns into one batch call (the SIMD formats tile across
        // them) and scatters results back, exactly as screenedEval.
        const ErrorModel model = format.errorModel();
        std::vector<uint8_t> certified_flag(eval_idx.size(), 0);
        parallelForChunks(
            eval_idx.size(), [&](size_t begin, size_t end) {
                std::vector<pbd::ColumnView> views;
                views.reserve(end - begin);
                for (size_t j = begin; j < end; ++j)
                    views.push_back(column(eval_idx[j]));
                std::vector<EvalResult> evaluated(end - begin);
                format.pbdPValueBatch(views, sum, evaluated);
                for (size_t j = begin; j < end; ++j) {
                    const size_t i = eval_idx[j];
                    const ResultInterval iv = pbdPValueInterval(
                        model, views[j - begin], sum,
                        evaluated[j - begin]);
                    const bool ok = certifies(iv, cert);
                    out.results[i] = EscalationResult{
                        std::move(evaluated[j - begin]),
                        static_cast<int>(t), ok, iv};
                    certified_flag[j] = ok ? 1 : 0;
                }
            });

        std::vector<size_t> next;
        next.reserve(pending.size());
        size_t cursor = 0;
        for (size_t j = 0; j < pending.size(); ++j) {
            if (!feasible[j]) {
                next.push_back(pending[j]);
                continue;
            }
            if (certified_flag[cursor])
                ++stats.certified;
            else
                next.push_back(pending[j]);
            ++cursor;
        }
        stats.wall_ms = timer.ms();
        out.tiers.push_back(stats);
        pending.swap(next);
    }

    out.uncertified = pending.size();
    const size_t skipped_count = static_cast<size_t>(
        std::count(out.skipped.begin(), out.skipped.end(), 1));
    out.certified = n - skipped_count - out.uncertified;
    return out;
}

} // namespace pstat::engine
