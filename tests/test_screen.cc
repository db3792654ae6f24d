/**
 * @file
 * Screened p-value pipeline tests: the screen's decision logic and
 * bookkeeping, the false-skip audit, and — the load-bearing
 * guarantee — bit-identity of the screened plan with the scalar
 * per-column p-value on every column the screen evaluates, from
 * memory and from a shard stream, across every registered format.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "apps/lofreq.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/screen.hh"
#include "prop_util.hh"
#include "shard_fixture.hh"
#include "test_tmp.hh"

namespace
{

using namespace pstat;
using namespace pstat::pbd;

TEST(Screen, SkipAndGuardPredicates)
{
    ScreenConfig config;
    config.threshold_log2 = -200.0;
    config.guard_band_log2 = 64.0;

    // Clearly insignificant: above threshold + band.
    EXPECT_TRUE(screenSkips(-10.0, config));
    EXPECT_TRUE(screenSkips(-135.9, config));
    // Inside the band: evaluated, counted as a guard hit.
    EXPECT_FALSE(screenSkips(-136.0, config));
    EXPECT_TRUE(screenGuardHit(-136.0, config));
    EXPECT_TRUE(screenGuardHit(-199.9, config));
    // At or below the threshold: evaluated, not a guard hit.
    EXPECT_FALSE(screenSkips(-200.0, config));
    EXPECT_FALSE(screenGuardHit(-200.0, config));
    EXPECT_FALSE(screenSkips(-5000.0, config));
    EXPECT_FALSE(screenGuardHit(-5000.0, config));
    // Impossible events (-inf estimates) never skip.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(screenSkips(-inf, config));

    // A zero band trusts the estimate exactly at the threshold.
    config.guard_band_log2 = 0.0;
    EXPECT_TRUE(screenSkips(-199.9, config));
    EXPECT_FALSE(screenSkips(-200.0, config));
    EXPECT_FALSE(screenGuardHit(-199.9, config));
}

TEST(Screen, ApplyScreenTalliesAddUp)
{
    ScreenConfig config;
    config.threshold_log2 = -200.0;
    config.guard_band_log2 = 50.0;
    const std::vector<double> estimates = {
        0.0,     // skip
        -100.0,  // skip
        -151.0,  // guard hit (inside (-200, -150])
        -199.0,  // guard hit
        -201.0,  // plain evaluation
        -9000.0, // plain evaluation
        -std::numeric_limits<double>::infinity(), // plain evaluation
    };
    const auto decisions = applyScreen(estimates, config);
    ASSERT_EQ(decisions.skip.size(), estimates.size());
    const std::vector<uint8_t> want = {1, 1, 0, 0, 0, 0, 0};
    EXPECT_EQ(decisions.skip, want);
    EXPECT_EQ(decisions.stats.columns, estimates.size());
    EXPECT_EQ(decisions.stats.skipped, 2u);
    EXPECT_EQ(decisions.stats.evaluated, 5u);
    EXPECT_EQ(decisions.stats.guard_band_hits, 2u);
    EXPECT_EQ(decisions.stats.skipped + decisions.stats.evaluated,
              decisions.stats.columns);
}

TEST(Screen, CountFalseSkipsAuditsOnlySkippedColumns)
{
    const std::vector<uint8_t> skipped = {1, 0, 1, 1, 0, 1};
    const std::vector<BigFloat> oracle = {
        BigFloat::twoPow(-300), // skipped and truly critical: false
        BigFloat::twoPow(-400), // critical but evaluated: fine
        BigFloat::twoPow(-100), // skipped, genuinely insignificant
        BigFloat::zero(),       // skipped, exact zero: below any
                                // threshold, counts as false
        BigFloat::one(),        // evaluated
        BigFloat::nan(),        // skipped, NaN oracle: ignored
    };
    EXPECT_EQ(countFalseSkips(skipped, oracle, -200.0), 2u);
    // A deeper threshold: only the exact zero remains below it.
    EXPECT_EQ(countFalseSkips(skipped, oracle, -350.0), 1u);
    // No skips, no false skips.
    const std::vector<uint8_t> none(oracle.size(), 0);
    EXPECT_EQ(countFalseSkips(none, oracle, -200.0), 0u);
    // Mismatched lengths are a caller bug, not a clean audit.
    const std::vector<BigFloat> short_oracle(oracle.begin(),
                                             oracle.begin() + 2);
    EXPECT_THROW(countFalseSkips(skipped, short_oracle, -200.0),
                 std::invalid_argument);
    EXPECT_THROW(countFalseSkips(skipped, {}, -200.0),
                 std::invalid_argument);
}

/** Small mixed dataset shared by the engine-level screening tests. */
ColumnDataset
screeningDataset()
{
    DatasetConfig config;
    config.num_columns = 30;
    config.median_coverage = 150.0;
    config.variant_fraction = 0.25;
    config.seed = 73;
    auto ds = makeDataset(config, "screen");
    // A couple of borderline columns near the 2^-200 threshold so
    // the guard band has work to do.
    stats::Rng rng(79);
    for (int i = 0; i < 4; ++i)
        ds.columns.push_back(
            makeColumnWithTarget(rng, rng.uniform(160.0, 260.0)));
    return ds;
}

TEST(Screen, ScreenedBatchBitMatchesUnscreenedEveryFormat)
{
    // The screened plan, from memory and from a shard stream, against
    // the scalar reference: pvalueLog2Estimate and applyScreen decide
    // the mask, evaluated slots are the format's per-column
    // pbdPValue, skipped slots carry 2^round(estimate).
    const auto ds = screeningDataset();
    const std::string shard = test::tempPath("screen_identity.shard");
    io::writeColumnShard(shard, ds.columns);
    engine::EvalEngine engine(4);
    ScreenConfig config; // threshold -200, guard 64

    for (const engine::FormatOps *format :
         engine::FormatRegistry::instance().all()) {
        SCOPED_TRACE(format->id());
        const auto want = prop::scalarScreened(
            *format, ds.columns, config, engine::SumPolicy::Plain);
        // The mixed dataset exercises both sides of the screen.
        EXPECT_GT(want.stats.skipped, 0u);
        EXPECT_GT(want.stats.evaluated, 0u);

        engine::EvalPlan plan;
        plan.policy = engine::PlanPolicy::Screened;
        plan.format_id = format->id();
        plan.screen = config;
        engine::EvalPlan stream_plan = plan;
        stream_plan.source = engine::PlanSource::ShardStream;
        stream_plan.shard_paths = {shard};
        for (const auto &got :
             {prop::runMemory(engine, plan, ds.columns).screened,
              engine.run(stream_plan).screened}) {
            EXPECT_EQ(got.skipped, want.skipped);
            EXPECT_EQ(got.estimates_log2, want.estimates_log2);
            EXPECT_EQ(got.stats.columns, want.stats.columns);
            EXPECT_EQ(got.stats.skipped, want.stats.skipped);
            EXPECT_EQ(got.stats.evaluated, want.stats.evaluated);
            EXPECT_EQ(got.stats.guard_band_hits,
                      want.stats.guard_band_hits);
            ASSERT_EQ(got.results.size(), ds.columns.size());
            for (size_t i = 0; i < ds.columns.size(); ++i) {
                EXPECT_TRUE(got.results[i].value ==
                            want.results[i].value)
                    << "column " << i;
                EXPECT_EQ(got.results[i].invalid,
                          want.results[i].invalid);
                EXPECT_EQ(got.results[i].underflow,
                          want.results[i].underflow);
            }
        }
    }
}

TEST(Screen, ScreenedAdaptiveScreensLikeScreened)
{
    // ScreenedAdaptive runs the screen Screened runs, from memory and
    // from a shard stream: the scalar reference's estimates (bit for
    // bit), mask and tallies, and in every skipped slot the
    // placeholder of the Screened batch.
    const auto ds = screeningDataset();
    const std::string shard = test::tempPath("screen_adaptive.shard");
    io::writeColumnShard(shard, ds.columns);
    engine::EvalEngine engine(4);
    ScreenConfig config; // threshold -200, guard 64
    const auto want = prop::scalarScreened(
        engine::FormatRegistry::instance().at("binary64"), ds.columns,
        config, engine::SumPolicy::Plain);
    ASSERT_GT(want.stats.skipped, 0u);

    engine::EvalPlan screened_plan;
    screened_plan.policy = engine::PlanPolicy::Screened;
    screened_plan.format_id = "binary64";
    screened_plan.screen = config;
    const auto screened =
        prop::runMemory(engine, screened_plan, ds.columns).screened;

    const engine::EvalPlan plan = prop::adaptivePlan(
        engine::defaultPValueCert(), prop::defaultLadderIds(), config);
    engine::EvalPlan stream_plan = plan;
    stream_plan.source = engine::PlanSource::ShardStream;
    stream_plan.shard_paths = {shard};
    for (const auto &got :
         {prop::runMemory(engine, plan, ds.columns).adaptive,
          engine.run(stream_plan).adaptive}) {
        EXPECT_EQ(got.skipped, want.skipped);
        ASSERT_EQ(got.estimates_log2.size(), want.estimates_log2.size());
        for (size_t i = 0; i < want.estimates_log2.size(); ++i)
            EXPECT_EQ(std::bit_cast<uint64_t>(got.estimates_log2[i]),
                      std::bit_cast<uint64_t>(want.estimates_log2[i]))
                << "column " << i;
        EXPECT_EQ(got.screen_stats.columns, want.stats.columns);
        EXPECT_EQ(got.screen_stats.skipped, want.stats.skipped);
        EXPECT_EQ(got.screen_stats.evaluated, want.stats.evaluated);
        EXPECT_EQ(got.screen_stats.guard_band_hits,
                  want.stats.guard_band_hits);
        ASSERT_EQ(got.results.size(), ds.columns.size());
        for (size_t i = 0; i < ds.columns.size(); ++i) {
            if (!want.skipped[i])
                continue;
            const engine::EvalResult &placeholder = got.results[i].result;
            EXPECT_EQ(got.results[i].tier, engine::kTierSkipped);
            EXPECT_TRUE(placeholder.value == screened.results[i].value)
                << "column " << i;
            EXPECT_TRUE(placeholder.value == want.results[i].value)
                << "column " << i;
            EXPECT_EQ(placeholder.invalid, screened.results[i].invalid);
            EXPECT_EQ(placeholder.underflow,
                      screened.results[i].underflow);
        }
    }
}

TEST(Screen, FalseSkipAuditCleanOnGenerousGuardBand)
{
    const auto ds = screeningDataset();
    engine::EvalEngine engine(2);
    const auto &registry = engine::FormatRegistry::instance();
    ScreenConfig config;
    config.guard_band_log2 = 64.0;

    const auto screened = apps::lofreqPValuesScreened(
        registry.at("log"), ds, engine, config);
    const auto oracle = apps::lofreqOracle(ds, engine);
    EXPECT_EQ(apps::lofreqFalseSkips(screened, oracle), 0u);

    // Every truly critical column must have been evaluated, and its
    // exact result calls the variant exactly like the unscreened
    // pipeline would.
    const BigFloat threshold = apps::lofreqThreshold();
    size_t critical = 0;
    for (size_t i = 0; i < ds.columns.size(); ++i) {
        if (!oracle[i].isFinite() || oracle[i].isZero())
            continue;
        if (oracle[i] < threshold) {
            EXPECT_EQ(screened.skipped[i], 0) << i;
            ++critical;
        }
    }
    EXPECT_GT(critical, 0u);
}

TEST(Screen, SkippedSlotsCarryMagnitudePlaceholders)
{
    const auto ds = screeningDataset();
    engine::EvalEngine engine(2);
    engine::EvalPlan plan;
    plan.policy = engine::PlanPolicy::Screened;
    plan.format_id = "binary64";
    const auto screened =
        prop::runMemory(engine, plan, ds.columns).screened;
    for (size_t i = 0; i < ds.columns.size(); ++i) {
        if (!screened.skipped[i])
            continue;
        const auto &r = screened.results[i];
        EXPECT_FALSE(r.invalid) << i;
        EXPECT_FALSE(r.underflow) << i;
        ASSERT_FALSE(r.value.isZero()) << i;
        // The placeholder is 2^round(estimate).
        EXPECT_NEAR(r.value.log2Abs(),
                    screened.estimates_log2[i], 0.5)
            << i;
    }
}

} // namespace
