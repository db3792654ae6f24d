/**
 * @file
 * Quick unit tests of the adaptive escalation subsystem: ladder
 * parsing, certification logic, interval edge cases, analytic-bound
 * containment, screen/skip precedence over escalation, tier
 * accounting, and the engine's argument validation. The heavyweight
 * differential sweeps live in tests/test_escalate.cc (labels
 * "diff;slow"); everything here is fast enough for the PR lane.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "engine/escalate.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/screen.hh"
#include "prop_util.hh"
#include "reference.hh"
#include "stats/rng.hh"

namespace
{

using namespace pstat;
using engine::CertConfig;
using engine::ResultInterval;

constexpr double kInf = std::numeric_limits<double>::infinity();

engine::EvalEngine &
sharedEngine()
{
    static engine::EvalEngine engine;
    return engine;
}

pbd::Column
iidColumn(int n, double p, int k)
{
    pbd::Column col;
    col.success_probs.assign(static_cast<size_t>(n), p);
    col.k = k;
    return col;
}

pbd::Column
makeColumn(std::vector<double> probs, int k)
{
    pbd::Column col;
    col.success_probs = std::move(probs);
    col.k = k;
    return col;
}

/**
 * A seeded heterogeneous column. Most are short, with probabilities
 * across twelve decades and some exact 0, exact 1 and subnormal
 * reads; the rest are deep Phred-scale columns with a small K.
 */
pbd::Column
heterogeneousColumn(stats::Rng &rng)
{
    pbd::Column col;
    if (rng.chance(0.3)) {
        const int n = static_cast<int>(rng.range(100, 600));
        for (int i = 0; i < n; ++i) {
            col.success_probs.push_back(
                std::pow(10.0, -rng.uniform(15.0, 45.0) / 10.0));
        }
        col.k = static_cast<int>(rng.below(40));
        return col;
    }
    const int n = 1 + static_cast<int>(rng.below(80));
    for (int i = 0; i < n; ++i) {
        const double roll = rng.uniform();
        if (roll < 0.05)
            col.success_probs.push_back(0.0);
        else if (roll < 0.10)
            col.success_probs.push_back(1.0);
        else if (roll < 0.15)
            col.success_probs.push_back(
                std::exp2(rng.uniform(-1074.0, -1022.0)));
        else
            col.success_probs.push_back(
                std::pow(10.0, rng.uniform(-12.0, 0.0)));
    }
    col.k = static_cast<int>(rng.below(static_cast<uint64_t>(n) + 2));
    return col;
}

/**
 * A decision threshold only lets certifiedBoundsLog2 stop early: the
 * upper endpoint keeps its bits, the lower one never rises, and the
 * threshold is decided the same way (below / at or above / neither)
 * as by the full walk. Thresholds sit at the default call, at the
 * column's own endpoints (both sides of each comparison) and at the
 * cheap lower endpoint, which an infinite threshold exposes: hi is
 * always below it, so the cheap enclosure is what comes back.
 */
void
expectEarlyExitAgrees(const pbd::Column &col)
{
    const pbd::PValueBoundsLog2 full =
        pbd::certifiedBoundsLog2(col.view());
    const double cheap_lo =
        pbd::certifiedBoundsLog2(col.view(), kInf).lo_log2;
    EXPECT_LE(cheap_lo, full.lo_log2);
    const auto side = [](const pbd::PValueBoundsLog2 &b, double thr) {
        return b.hi_log2 < thr ? -1 : b.lo_log2 >= thr ? 1 : 0;
    };
    for (const double thr :
         {-200.0, -20.0, full.lo_log2,
          std::nextafter(full.lo_log2, kInf), full.hi_log2,
          std::nextafter(full.hi_log2, kInf),
          0.5 * (full.lo_log2 + full.hi_log2), cheap_lo,
          std::nextafter(cheap_lo, -kInf)}) {
        if (!std::isfinite(thr))
            continue;
        const pbd::PValueBoundsLog2 early =
            pbd::certifiedBoundsLog2(col.view(), thr);
        SCOPED_TRACE(::testing::Message() << "thr=" << thr);
        EXPECT_EQ(std::bit_cast<uint64_t>(early.hi_log2),
                  std::bit_cast<uint64_t>(full.hi_log2));
        EXPECT_LE(early.lo_log2, full.lo_log2);
        EXPECT_EQ(side(early, thr), side(full, thr));
        // A lower endpoint below the walk's means the walk was
        // skipped, which only a decided threshold allows.
        if (early.lo_log2 != full.lo_log2) {
            EXPECT_NE(side(early, thr), 0);
        }
    }
}

/**
 * The analytic enclosure of a column holds its exact DP p-value: the
 * exact [0, 0] for an impossible event, else finite endpoints
 * around it.
 */
void
expectEnclosesExact(const pbd::Column &col)
{
    expectEarlyExitAgrees(col);
    const pbd::PValueBoundsLog2 bounds =
        pbd::certifiedBoundsLog2(col.view());
    const BigFloat exact =
        pbd::pvalue<BigFloat>(col.success_probs, col.k);
    if (exact.isZero()) {
        EXPECT_EQ(bounds.lo_log2, -kInf);
        EXPECT_EQ(bounds.hi_log2, -kInf);
        return;
    }
    EXPECT_TRUE(std::isfinite(bounds.lo_log2));
    EXPECT_LE(bounds.lo_log2, exact.log2Abs() + 1e-9);
    EXPECT_GE(bounds.hi_log2, exact.log2Abs() - 1e-9);
}

TEST(Ladder, ParsesSpecsAgainstTheRegistry)
{
    const auto ladder =
        engine::parseLadder(" binary32 , binary64 ,log");
    ASSERT_TRUE(ladder.has_value());
    ASSERT_EQ(ladder->tiers.size(), 3u);
    EXPECT_EQ(ladder->tiers[0]->id(), "binary32");
    EXPECT_EQ(ladder->tiers[1]->id(), "binary64");
    EXPECT_EQ(ladder->tiers[2]->id(), "log");

    EXPECT_FALSE(engine::parseLadder("").has_value());
    EXPECT_FALSE(engine::parseLadder("binary64,").has_value());
    EXPECT_FALSE(engine::parseLadder("binary64,,log").has_value());
    EXPECT_FALSE(engine::parseLadder("binary63").has_value());
    EXPECT_FALSE(
        engine::parseLadder("binary64 binary32").has_value());
}

TEST(Ladder, DefaultClimbsFromCheapToCertain)
{
    const engine::Ladder &ladder = engine::defaultLadder();
    ASSERT_EQ(ladder.tiers.size(), 5u);
    EXPECT_EQ(ladder.tiers.front()->id(), "bfloat16");
    EXPECT_EQ(ladder.tiers.back()->id(), "scaled_dd");
}

TEST(Certifies, HonorsToleranceThresholdAndBoth)
{
    ResultInterval tight;
    tight.lo_log2 = -230.0;
    tight.hi_log2 = -229.0;
    tight.rel_bound_log2 = -30.0;

    CertConfig tol_only;
    tol_only.tol_rel_log2 = -20.0;
    EXPECT_TRUE(engine::certifies(tight, tol_only));
    tol_only.tol_rel_log2 = -40.0;
    EXPECT_FALSE(engine::certifies(tight, tol_only));

    CertConfig thr_only;
    thr_only.threshold_log2 = -200.0;
    EXPECT_TRUE(engine::certifies(tight, thr_only)); // below
    thr_only.threshold_log2 = -229.5;
    EXPECT_FALSE(engine::certifies(tight, thr_only)); // straddles
    thr_only.threshold_log2 = -230.0;
    EXPECT_TRUE(engine::certifies(tight, thr_only)); // at/above

    CertConfig both;
    both.tol_rel_log2 = -20.0;
    both.threshold_log2 = -200.0;
    EXPECT_TRUE(engine::certifies(tight, both));
    both.tol_rel_log2 = -40.0; // tolerance now fails -> both fail
    EXPECT_FALSE(engine::certifies(tight, both));

    // A vacuous interval certifies nothing; an empty cert rejects.
    EXPECT_FALSE(engine::certifies(ResultInterval{}, both));
    EXPECT_FALSE(engine::certifies(tight, CertConfig{}));
}

TEST(Intervals, StructuralAndVacuousCases)
{
    const auto &registry = engine::FormatRegistry::instance();
    const engine::ErrorModel b64 =
        registry.at("binary64").errorModel();
    const pbd::Column generic = iidColumn(20, 0.01, 3);
    engine::EvalResult result;
    result.value = BigFloat::fromDouble(1.0);

    // K <= 0: the exact p-value 1, no matter the computed value.
    pbd::Column trivial = iidColumn(20, 0.01, 0);
    const ResultInterval one = engine::pbdPValueInterval(
        b64, trivial.view(), engine::SumPolicy::Plain, result);
    EXPECT_EQ(one.lo_log2, 0.0);
    EXPECT_EQ(one.hi_log2, 0.0);
    EXPECT_EQ(one.rel_bound_log2, -kInf);

    // K > N: the exact zero.
    pbd::Column impossible = iidColumn(20, 0.01, 21);
    engine::EvalResult zero;
    zero.value = BigFloat::zero();
    zero.underflow = true;
    const ResultInterval none = engine::pbdPValueInterval(
        b64, impossible.view(), engine::SumPolicy::Plain, zero);
    EXPECT_EQ(none.lo_log2, -kInf);
    EXPECT_EQ(none.hi_log2, -kInf);
    EXPECT_EQ(none.rel_bound_log2, -kInf);

    // Invalid results and uncertifiable formats get the vacuous
    // interval.
    engine::EvalResult invalid;
    invalid.invalid = true;
    const ResultInterval vac = engine::pbdPValueInterval(
        b64, generic.view(), engine::SumPolicy::Plain, invalid);
    EXPECT_EQ(vac.lo_log2, -kInf);
    EXPECT_EQ(vac.hi_log2, kInf);
    EXPECT_EQ(vac.rel_bound_log2, kInf);

    const engine::ErrorModel posit =
        registry.at("posit32").errorModel();
    EXPECT_FALSE(engine::certifiable(posit));
    const ResultInterval vac2 = engine::pbdPValueInterval(
        posit, generic.view(), engine::SumPolicy::Plain, result);
    EXPECT_EQ(vac2.rel_bound_log2, kInf);

    // A computed zero in a flushing format keeps the flush mass as
    // its upper endpoint and makes no relative claim.
    const ResultInterval flushed = engine::pbdPValueInterval(
        b64, generic.view(), engine::SumPolicy::Plain, zero);
    EXPECT_EQ(flushed.lo_log2, -kInf);
    EXPECT_TRUE(std::isfinite(flushed.hi_log2));
    EXPECT_LT(flushed.hi_log2, -1000.0);
    EXPECT_EQ(flushed.rel_bound_log2, kInf);
}

TEST(Intervals, LinearIntervalEnclosesExactIidTail)
{
    const auto &registry = engine::FormatRegistry::instance();
    const engine::FormatOps &b64 = registry.at("binary64");
    const pbd::Column col = iidColumn(80, 3e-3, 4);
    engine::EvalPlan plan;
    plan.format_id = "binary64";
    const auto results =
        prop::runMemory(sharedEngine(), plan,
                        std::vector<pbd::Column>{col})
            .results;
    ASSERT_EQ(results.size(), 1u);
    const ResultInterval iv = engine::pbdPValueInterval(
        b64.errorModel(), col.view(), engine::SumPolicy::Plain,
        results[0]);
    const BigFloat exact = pbd::binomialTailExact(80, 3e-3, 4);
    const double exact_log2 = exact.log2Abs();
    EXPECT_LE(iv.lo_log2, exact_log2);
    EXPECT_GE(iv.hi_log2, exact_log2);
    // binary64's running bound on an 80-read column is far tighter
    // than a bit yet never tighter than the format.
    EXPECT_LT(iv.rel_bound_log2, -30.0);
    EXPECT_GT(iv.rel_bound_log2, -53.0);
}

TEST(Intervals, AnalyticBoundsContainExactIidTail)
{
    stats::Rng rng(0xa11a5eedULL);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 1 + static_cast<int>(rng.below(60));
        const int k = static_cast<int>(rng.below(
            static_cast<uint64_t>(n) + 2));
        const double p = std::pow(10.0, rng.uniform(-8.0, 0.0));
        const pbd::Column col = iidColumn(n, p, k);
        expectEarlyExitAgrees(col);
        const pbd::PValueBoundsLog2 bounds =
            pbd::certifiedBoundsLog2(col.view());
        const BigFloat exact = pbd::binomialTailExact(n, p, k);
        if (exact.isZero()) {
            EXPECT_EQ(bounds.lo_log2, -kInf) << "trial " << trial;
            continue;
        }
        const double exact_log2 = exact.log2Abs();
        EXPECT_LE(bounds.lo_log2, exact_log2 + 1e-9)
            << "trial " << trial << " n=" << n << " k=" << k
            << " p=" << p;
        EXPECT_GE(bounds.hi_log2, exact_log2 - 1e-9)
            << "trial " << trial << " n=" << n << " k=" << k
            << " p=" << p;
    }
}

TEST(Intervals, AnalyticBoundsContainExactHeterogeneousTail)
{
    stats::Rng rng(0x4e7e20b0dULL);
    for (int trial = 0; trial < 300; ++trial) {
        const pbd::Column col = heterogeneousColumn(rng);
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " n="
                     << col.success_probs.size() << " k=" << col.k);
        expectEnclosesExact(col);
    }
}

TEST(Intervals, AnalyticBoundsEdgeReads)
{
    const auto boundsOf = [](std::vector<double> probs, int k) {
        return pbd::certifiedBoundsLog2(
            makeColumn(std::move(probs), k).view());
    };
    const double nan = std::nan("");

    // Structural exacts and invalid input.
    EXPECT_EQ(boundsOf({0.5, 0.25}, 0).lo_log2, 0.0);
    EXPECT_EQ(boundsOf({0.5, 0.25}, 0).hi_log2, 0.0);
    expectEnclosesExact(makeColumn({0.5, 0.25}, 3));
    for (const double bad : {nan, -0.25, 1.5}) {
        const pbd::PValueBoundsLog2 vac = boundsOf({0.5, bad}, 1);
        EXPECT_EQ(vac.lo_log2, -kInf) << bad;
        EXPECT_EQ(vac.hi_log2, kInf) << bad;
        expectEarlyExitAgrees(makeColumn({0.5, bad}, 1));
    }

    // Reads with p = 1: with fewer than K of them the bound is an
    // ordinary finite enclosure; with exactly K or more the event is
    // sure, and the lower endpoint is 1 less its pad.
    expectEnclosesExact(makeColumn({1.0, 1.0, 0.5, 0.25}, 3));
    for (const auto &probs :
         {std::vector<double>{1.0, 1.0, 0.5, 0.25},
          std::vector<double>{1.0, 1.0, 1.0, 0.5},
          std::vector<double>{1.0, 1.0, 1.0, 1.0}}) {
        expectEarlyExitAgrees(makeColumn(probs, 2));
        const pbd::PValueBoundsLog2 sure = boundsOf(probs, 2);
        EXPECT_EQ(sure.hi_log2, 0.0);
        EXPECT_LE(sure.lo_log2, -2.0);
        EXPECT_GT(sure.lo_log2, -2.01);
    }

    // Reads with p = 0 drop out: the enclosure is that of the other
    // reads, and K above their count is the exact zero.
    const pbd::PValueBoundsLog2 padded =
        boundsOf({0.0, 0.25, 0.0, 0.5, 0.0}, 2);
    const pbd::PValueBoundsLog2 bare = boundsOf({0.25, 0.5}, 2);
    EXPECT_EQ(padded.lo_log2, bare.lo_log2);
    EXPECT_EQ(padded.hi_log2, bare.hi_log2);
    expectEnclosesExact(makeColumn({0.0, 0.25, 0.0}, 2));
    expectEnclosesExact(makeColumn({0.0, 0.0, 0.0}, 1));

    // Subnormal probabilities, and K = 1 and K = N.
    const std::vector<double> subnormal{0x1p-1060, 0x1p-1070,
                                        0x1p-1074};
    expectEnclosesExact(makeColumn(subnormal, 1));
    expectEnclosesExact(makeColumn(subnormal, 3));
    const std::vector<double> mixed{0.9, 0.5, 1e-3, 1e-7, 0.25};
    expectEnclosesExact(makeColumn(mixed, 1));
    expectEnclosesExact(makeColumn(mixed, 5));
}

TEST(Adaptive, AnalyticTierCertifiesDeepBinomialColumn)
{
    // 2000 Phred-22 reads with K = 80: P(X >= 80) is about 2^-122,
    // far above the 2^-200 call. One outcome of the event (80 given
    // reads succeed, the rest fail) has probability about 2^-602:
    // it drops the C(2000, 80) ~ 2^480 ways the event can happen, so
    // a lower endpoint built on it left the enclosure straddling the
    // threshold and sent the column to a DP tier. The binomial term
    // keeps that factor and certifies the call with no kernel run.
    const double p = std::pow(10.0, -2.2);
    const pbd::Column col = iidColumn(2000, p, 80);
    const double one_outcome_log2 =
        80.0 * std::log2(p) + 1920.0 * std::log1p(-p) / M_LN2;
    ASSERT_LT(one_outcome_log2, -200.0);

    const pbd::PValueBoundsLog2 bounds =
        pbd::certifiedBoundsLog2(col.view());
    const double exact_log2 =
        pbd::binomialTailExact(2000, p, 80).log2Abs();
    EXPECT_LE(bounds.lo_log2, exact_log2);
    EXPECT_GE(bounds.hi_log2, exact_log2);
    EXPECT_GE(bounds.lo_log2, -200.0);

    // One read far below the bulk drags t_min to 1e-300, so the
    // cheap lower endpoint (all 2001 reads at t_min) sinks below the
    // call and the cheap enclosure straddles it. The octave walk
    // still finds the bulk's term, and must run to certify.
    pbd::Column dragged = col;
    dragged.success_probs.push_back(1e-300);
    const pbd::PValueBoundsLog2 dragged_full =
        pbd::certifiedBoundsLog2(dragged.view());
    const pbd::PValueBoundsLog2 dragged_cheap =
        pbd::certifiedBoundsLog2(dragged.view(), kInf);
    EXPECT_LT(dragged_cheap.lo_log2, -200.0);
    EXPECT_GE(dragged_full.hi_log2, -200.0);
    EXPECT_GE(dragged_full.lo_log2, -200.0);
    EXPECT_EQ(pbd::certifiedBoundsLog2(dragged.view(), -200.0).lo_log2,
              dragged_full.lo_log2);

    CertConfig cert;
    cert.threshold_log2 = -200.0;
    const engine::AdaptiveBatch batch =
        prop::runMemory(sharedEngine(), prop::adaptivePlan(cert),
                        std::vector<pbd::Column>{col, dragged})
            .adaptive;
    ASSERT_EQ(batch.results.size(), 2u);
    for (const engine::EscalationResult &result : batch.results) {
        EXPECT_EQ(result.tier, engine::kTierAnalytic);
        EXPECT_TRUE(result.certified);
    }
}

TEST(Adaptive, RejectsMalformedArguments)
{
    const std::vector<pbd::Column> columns{iidColumn(10, 0.1, 2)};
    const auto rejects = [&](const engine::EvalPlan &plan) {
        engine::PlanInputs inputs;
        inputs.columns = columns;
        EXPECT_THROW(sharedEngine().run(plan, inputs),
                     std::invalid_argument);
    };

    rejects(prop::adaptivePlan(CertConfig{}));

    CertConfig positive_tol;
    positive_tol.tol_rel_log2 = 0.5;
    rejects(prop::adaptivePlan(positive_tol));

    CertConfig nan_thr;
    nan_thr.threshold_log2 = std::nan("");
    rejects(prop::adaptivePlan(nan_thr));

    // A plan with no ladder tiers: validatePlan has no default to
    // fall back on.
    CertConfig ok;
    ok.threshold_log2 = -200.0;
    rejects(prop::adaptivePlan(ok, {}));
}

TEST(Adaptive, SkippedColumnsAreNeverEscalated)
{
    // A screening-heavy dataset: plenty of clearly insignificant
    // columns, a few deep ones.
    pbd::DatasetConfig config;
    config.num_columns = 400;
    config.median_coverage = 90.0;
    config.coverage_sigma = 0.5;
    config.variant_fraction = 0.08;
    config.seed = 4242;
    const auto dataset = pbd::makeDataset(config, "adaptive-screen");

    CertConfig cert;
    cert.threshold_log2 = -200.0;
    engine::EvalPlan plan = prop::adaptivePlan(cert);
    plan.policy = engine::PlanPolicy::ScreenedAdaptive;
    const engine::AdaptiveBatch batch =
        prop::runMemory(sharedEngine(), plan, dataset.columns).adaptive;

    ASSERT_EQ(batch.skipped.size(), dataset.columns.size());
    size_t skipped = 0;
    for (size_t i = 0; i < dataset.columns.size(); ++i) {
        if (!batch.skipped[i])
            continue;
        ++skipped;
        const engine::EscalationResult &r = batch.results[i];
        // The mask wins: a placeholder, never a certificate, and the
        // placeholder is the screen's magnitude estimate.
        EXPECT_EQ(r.tier, engine::kTierSkipped);
        EXPECT_FALSE(r.certified);
        EXPECT_TRUE(r.result.value ==
                    BigFloat::twoPow(std::llround(
                        batch.estimates_log2[i])));
    }
    ASSERT_GT(skipped, 0u) << "screen never fired - config too deep";
    EXPECT_EQ(batch.screen_stats.skipped, skipped);

    // The analytic tier only sees the survivors.
    ASSERT_FALSE(batch.tiers.empty());
    EXPECT_EQ(batch.tiers.front().format_id, "analytic");
    EXPECT_EQ(batch.tiers.front().evaluated,
              dataset.columns.size() - skipped);
    EXPECT_EQ(batch.certified + batch.uncertified + skipped,
              dataset.columns.size());
}

TEST(Adaptive, TierAccountingAddsUp)
{
    pbd::DatasetConfig config;
    config.num_columns = 300;
    config.median_coverage = 70.0;
    config.seed = 777;
    const auto dataset = pbd::makeDataset(config, "adaptive-tally");

    CertConfig cert;
    cert.threshold_log2 = -200.0;
    const engine::AdaptiveBatch batch =
        prop::runMemory(sharedEngine(), prop::adaptivePlan(cert),
                        dataset.columns)
            .adaptive;

    size_t tier_certified = 0;
    for (const engine::TierStats &ts : batch.tiers) {
        EXPECT_GE(ts.certified, 0u);
        EXPECT_GE(ts.wall_ms, 0.0);
        EXPECT_LE(ts.certified, ts.evaluated);
        tier_certified += ts.certified;
    }
    EXPECT_EQ(tier_certified, batch.certified);
    EXPECT_EQ(batch.certified + batch.uncertified,
              dataset.columns.size());

    // Ladder tiers in declared order after the analytic stage.
    ASSERT_GE(batch.tiers.size(), 1u);
    EXPECT_EQ(batch.tiers[0].format_id, "analytic");
}

TEST(Adaptive, FeasibilityRoutesPastHopelessTiers)
{
    const auto &registry = engine::FormatRegistry::instance();
    const pbd::Column col = iidColumn(100, 1e-3, 3);
    const pbd::PValueBoundsLog2 bounds =
        pbd::certifiedBoundsLog2(col.view());

    // bfloat16 cannot reach a 2^-20 value tolerance on 100 reads.
    CertConfig tight;
    tight.tol_rel_log2 = -20.0;
    EXPECT_FALSE(engine::tierFeasible(registry.at("bfloat16"),
                                      col.view(), bounds, tight,
                                      engine::SumPolicy::Plain));
    EXPECT_TRUE(engine::tierFeasible(registry.at("binary64"),
                                     col.view(), bounds, tight,
                                     engine::SumPolicy::Plain));

    // Uncertifiable formats are never feasible.
    CertConfig thr;
    thr.threshold_log2 = -200.0;
    EXPECT_FALSE(engine::tierFeasible(registry.at("posit32"),
                                      col.view(), bounds, thr,
                                      engine::SumPolicy::Plain));

    // "At or above" is flush-aware: binary32's computed lower
    // endpoint subtracts its flush mass (at least 2^-150) first, so
    // an enclosure topping out at 2^-170 leaves binary32 nothing to
    // certify, though 2^-170 clears 2^-200 by far more than the
    // wobble. binary64's flush mass lies far below the threshold.
    const engine::FormatOps &b32 = registry.at("binary32");
    const pbd::PValueBoundsLog2 under_flush{-230.0, -170.0};
    ASSERT_LT(under_flush.hi_log2, b32.errorModel().flush_abs_log2);
    EXPECT_FALSE(engine::tierFeasible(b32, col.view(), under_flush,
                                      thr, engine::SumPolicy::Plain));
    EXPECT_TRUE(engine::tierFeasible(registry.at("binary64"),
                                     col.view(), under_flush, thr,
                                     engine::SumPolicy::Plain));
    const pbd::PValueBoundsLog2 over_flush{-230.0, -100.0};
    EXPECT_TRUE(engine::tierFeasible(b32, col.view(), over_flush, thr,
                                     engine::SumPolicy::Plain));
}

TEST(Adaptive, RecordTiersAccumulatesAcrossBatches)
{
    std::vector<engine::TierStats> tiers;
    std::vector<engine::TierStats> first;
    first.push_back(engine::TierStats{"analytic", 10, 6, 0, 1.0});
    first.push_back(engine::TierStats{"binary64", 4, 4, 0, 2.0});
    std::vector<engine::TierStats> second;
    second.push_back(engine::TierStats{"analytic", 8, 5, 0, 0.5});
    second.push_back(engine::TierStats{"log", 3, 2, 1, 0.25});

    engine::mergeTiers(tiers, first);
    engine::mergeTiers(tiers, second);

    ASSERT_EQ(tiers.size(), 3u);
    EXPECT_EQ(tiers[0].format_id, "analytic");
    EXPECT_EQ(tiers[0].evaluated, 18u);
    EXPECT_EQ(tiers[0].certified, 11u);
    EXPECT_DOUBLE_EQ(tiers[0].wall_ms, 1.5);
    EXPECT_EQ(tiers[1].format_id, "binary64");
    EXPECT_EQ(tiers[1].evaluated, 4u);
    EXPECT_EQ(tiers[2].format_id, "log");
    EXPECT_EQ(tiers[2].bypassed, 1u);

    // A tier seen again adds every field, bypassed included.
    const std::vector<engine::TierStats> third{
        engine::TierStats{"log", 5, 1, 2, 0.75}};
    engine::mergeTiers(tiers, third);
    ASSERT_EQ(tiers.size(), 3u);
    EXPECT_EQ(tiers[2].format_id, "log");
    EXPECT_EQ(tiers[2].evaluated, 8u);
    EXPECT_EQ(tiers[2].certified, 3u);
    EXPECT_EQ(tiers[2].bypassed, 3u);
    EXPECT_DOUBLE_EQ(tiers[2].wall_ms, 1.0);
}

} // namespace
