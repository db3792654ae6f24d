/**
 * @file
 * Differential certification harness of the adaptive escalation
 * subsystem (engine/escalate.hh): seeded adversarial columns are
 * evaluated through the ladder and every *certified* answer is
 * audited against the exact BigFloat oracle — a certified decision
 * must agree with the oracle at the threshold, a certified value
 * must sit within its claimed relative bound, and the certified
 * enclosure must contain the oracle. Mis-certification is a test
 * failure, never a tolerance; every failure message carries the
 * reproducing case seed.
 *
 * The same harness drives differential sweeps of the screened batch
 * (no false skips on the screen's documented workload, bit-identity
 * on evaluated columns everywhere, mask precedence), the posterior
 * kernel, and the streamed adaptive pipeline (bit-identical to the
 * in-memory batch). These sweeps are the slow tier of the test suite
 * (ctest labels "diff;slow"); PSTAT_DIFF_CASES scales the case count
 * down for sanitizer legs.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/escalate.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "hmm/generator.hh"
#include "hmm/model.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "pbd/screen.hh"
#include "prop_util.hh"
#include "stats/rng.hh"
#include "test_tmp.hh"

namespace
{

using namespace pstat;
using engine::AdaptiveBatch;
using engine::CertConfig;
using engine::EscalationResult;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Sweep seeds: fixed, so every CI run fires the same adversaries. */
constexpr uint64_t kColumnSweepSeed = 0xadc01d5eed5ULL;
constexpr uint64_t kScreenSweepSeed = 0x5c4ee75eed3ULL;
constexpr uint64_t kPosteriorSweepSeed = 0x9057e2105eedULL;

engine::EvalEngine &
sharedEngine()
{
    static engine::EvalEngine engine;
    return engine;
}

std::string
seedTag(size_t index, uint64_t seed)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "case %zu seed 0x%016" PRIx64,
                  index, seed);
    return buf;
}

/**
 * The shared adversarial column set: PSTAT_DIFF_CASES columns (10k by
 * default) with per-case seeds, plus their exact oracle p-values.
 * Built once per process and reused by every sweep, so each ladder
 * tier is fired at the full set.
 */
struct DiffSet
{
    std::vector<pbd::Column> columns;
    std::vector<uint64_t> seeds;
    std::vector<BigFloat> oracle;
};

const DiffSet &
diffSet()
{
    static const DiffSet *set = [] {
        auto *s = new DiffSet;
        const size_t n = prop::diffCases();
        s->columns.resize(n);
        s->seeds.resize(n);
        for (size_t i = 0; i < n; ++i) {
            s->seeds[i] = prop::caseSeed(kColumnSweepSeed, i);
            stats::Rng rng(s->seeds[i]);
            s->columns[i] = prop::adversarialColumn(rng);
        }
        s->oracle = prop::oraclePValues(sharedEngine(), s->columns);
        return s;
    }();
    return *set;
}

/**
 * The screening-regime column set: the workload pbd/screen.hh sizes
 * its guard band for (background noise + near-threshold variants).
 * The no-false-skip sweeps run here; the adversarial set above keeps
 * the mask-precedence and certification audits.
 */
const DiffSet &
screenSet()
{
    static const DiffSet *set = [] {
        auto *s = new DiffSet;
        const size_t n = prop::diffCases();
        s->columns.resize(n);
        s->seeds.resize(n);
        for (size_t i = 0; i < n; ++i) {
            s->seeds[i] = prop::caseSeed(kScreenSweepSeed, i);
            stats::Rng rng(s->seeds[i]);
            s->columns[i] = prop::screeningColumn(rng);
        }
        s->oracle = prop::oraclePValues(sharedEngine(), s->columns);
        return s;
    }();
    return *set;
}

/**
 * Audit every certificate of one adaptive batch against the oracle:
 * decisions exactly (BigFloat comparison at the integral threshold),
 * value claims via BigFloat::relativeError against the claimed
 * bound, and enclosure containment with a slack that only absorbs
 * the double log2 conversion wobble. Also checks skip-mask
 * precedence and the batch's certified/uncertified bookkeeping.
 */
void
auditBatch(const AdaptiveBatch &batch,
           std::span<const BigFloat> oracle,
           std::span<const uint64_t> seeds)
{
    ASSERT_EQ(batch.results.size(), oracle.size());
    std::optional<BigFloat> thr;
    if (batch.cert.threshold_log2) {
        const double t = *batch.cert.threshold_log2;
        ASSERT_EQ(t, std::floor(t))
            << "the exact audit needs an integral threshold";
        thr = BigFloat::twoPow(static_cast<int64_t>(t));
    }

    size_t certified = 0;
    size_t uncertified = 0;
    size_t skipped = 0;
    for (size_t i = 0; i < batch.results.size(); ++i) {
        const EscalationResult &r = batch.results[i];
        const std::string tag = seedTag(i, seeds[i]);
        if (!batch.skipped.empty() && batch.skipped[i]) {
            // Skip-mask precedence: a skipped column keeps its
            // placeholder and is never escalated or certified.
            ++skipped;
            EXPECT_EQ(r.tier, engine::kTierSkipped) << tag;
            EXPECT_FALSE(r.certified) << tag;
            continue;
        }
        if (!r.certified) {
            ++uncertified;
            continue;
        }
        ++certified;
        const engine::ResultInterval &iv = r.interval;

        // Containment: the exact value lies inside the certified
        // enclosure. The pad only covers the oracle's double log2
        // conversion (~|log2| * 2^-52), not the enclosure itself.
        if (oracle[i].isZero()) {
            EXPECT_EQ(iv.lo_log2, -kInf)
                << tag << ": oracle is zero but the certified lower "
                << "endpoint excludes it";
        } else {
            const double olog2 = oracle[i].log2Abs();
            const double pad = 1e-9 + std::abs(olog2) * 0x1p-45;
            EXPECT_LE(iv.lo_log2, olog2 + pad)
                << tag << ": oracle log2 " << olog2
                << " below certified lower endpoint";
            EXPECT_GE(iv.hi_log2, olog2 - pad)
                << tag << ": oracle log2 " << olog2
                << " above certified upper endpoint";
        }

        // Decision certificates: the interval picked a side, and the
        // oracle agrees with it — compared exactly in BigFloat.
        if (thr) {
            const double t = *batch.cert.threshold_log2;
            const bool below = iv.hi_log2 < t;
            const bool at_or_above = iv.lo_log2 >= t;
            EXPECT_TRUE(below || at_or_above)
                << tag << ": certified but the interval straddles "
                << "the threshold";
            if (below) {
                EXPECT_TRUE(oracle[i] < *thr)
                    << tag << ": certified below 2^" << t
                    << " but oracle log2 is "
                    << prop::oracleLog2(oracle[i]);
            } else if (at_or_above) {
                EXPECT_TRUE(oracle[i] >= *thr)
                    << tag << ": certified at/above 2^" << t
                    << " but oracle log2 is "
                    << prop::oracleLog2(oracle[i]);
            }
        }
        if (batch.cert.tol_rel_log2) {
            EXPECT_LE(iv.rel_bound_log2, *batch.cert.tol_rel_log2)
                << tag;
        }

        // Any relative claim (required by the cert or not) must hold
        // for the computed value, which EvalResult carries exactly.
        if (iv.rel_bound_log2 < kInf) {
            if (oracle[i].isZero()) {
                EXPECT_TRUE(r.result.value.isZero())
                    << tag << ": relative claim against a zero "
                    << "exact value";
            } else {
                const BigFloat measured = BigFloat::relativeError(
                    oracle[i], r.result.value);
                ASSERT_FALSE(measured.isNaN()) << tag;
                if (!measured.isZero()) {
                    EXPECT_LE(measured.log2Abs(),
                              iv.rel_bound_log2 + 1e-6)
                        << tag << ": measured relative error "
                        << "exceeds the certified bound";
                }
            }
        }
    }

    EXPECT_EQ(batch.certified, certified);
    EXPECT_EQ(batch.uncertified, uncertified);
    size_t tier_certified = 0;
    for (const engine::TierStats &ts : batch.tiers)
        tier_certified += ts.certified;
    EXPECT_EQ(tier_certified, certified);
}

void
expectSameResult(const engine::EvalResult &a,
                 const engine::EvalResult &b, const std::string &tag)
{
    EXPECT_EQ(a.invalid, b.invalid) << tag;
    EXPECT_EQ(a.underflow, b.underflow) << tag;
    if (!a.invalid && !b.invalid) {
        EXPECT_TRUE(a.value == b.value) << tag;
    }
}

TEST(DiffEscalate, DefaultLadderDecisionCertificatesAreSound)
{
    const DiffSet &set = diffSet();
    CertConfig cert;
    cert.threshold_log2 = -200.0;
    const AdaptiveBatch batch =
        prop::runMemory(sharedEngine(), prop::adaptivePlan(cert), set.columns)
            .adaptive;
    auditBatch(batch, set.oracle, set.seeds);
    // Decisions away from the threshold are easy; only a measure-zero
    // band around 2^-200 may legitimately stay uncertified.
    EXPECT_LE(batch.uncertified, set.columns.size() / 100);
    EXPECT_EQ(batch.certified + batch.uncertified,
              set.columns.size());
}

TEST(DiffEscalate, EveryTierDecisionCertificatesAreSound)
{
    const DiffSet &set = diffSet();
    CertConfig cert;
    cert.threshold_log2 = -200.0;
    // Each single-tier ladder fires the full adversarial set at that
    // tier: >= 10k columns per tier at the default case count.
    for (const char *id :
         {"bfloat16", "binary32", "binary64", "log", "scaled_dd"}) {
        SCOPED_TRACE(id);
        const AdaptiveBatch batch =
            prop::runMemory(sharedEngine(), prop::adaptivePlan(cert, {id}),
                            set.columns)
                .adaptive;
        auditBatch(batch, set.oracle, set.seeds);
    }
}

TEST(DiffEscalate, ValueCertificatesHonorClaimedBound)
{
    const DiffSet &set = diffSet();
    // -10 certifies early on the ladder; -40 is beyond binary64's
    // a-priori bound, so it exercises the log and ScaledDD tiers and
    // the feasibility routing in front of them.
    for (const double tol : {-10.0, -40.0}) {
        SCOPED_TRACE(tol);
        CertConfig cert;
        cert.tol_rel_log2 = tol;
        const AdaptiveBatch batch =
            prop::runMemory(sharedEngine(), prop::adaptivePlan(cert),
                            set.columns)
                .adaptive;
        auditBatch(batch, set.oracle, set.seeds);
        // ScaledDD's a-priori relative bound (~2^-90 at the deepest
        // coverage) certifies every column at the top tier.
        EXPECT_EQ(batch.uncertified, 0u);
    }
}

/**
 * One screened-adaptive sweep: run the default ladder behind the
 * screen, audit every certificate, and check the skip bookkeeping.
 * Returns the batch so callers can add regime-specific assertions.
 */
AdaptiveBatch
screenedAdaptiveSweep(const DiffSet &set)
{
    CertConfig cert;
    cert.threshold_log2 = -200.0;
    AdaptiveBatch batch =
        prop::runMemory(sharedEngine(),
                        prop::adaptivePlan(cert, prop::defaultLadderIds(),
                                           pbd::ScreenConfig{}),
                        set.columns)
            .adaptive;
    auditBatch(batch, set.oracle, set.seeds);

    EXPECT_EQ(batch.skipped.size(), set.columns.size());
    EXPECT_EQ(batch.estimates_log2.size(), set.columns.size());
    EXPECT_EQ(batch.screen_stats.columns, set.columns.size());
    const size_t skipped = static_cast<size_t>(std::count(
        batch.skipped.begin(), batch.skipped.end(), uint8_t{1}));
    EXPECT_EQ(batch.screen_stats.skipped, skipped);
    EXPECT_EQ(batch.certified + batch.uncertified + skipped,
              set.columns.size());
    return batch;
}

TEST(DiffEscalate, ScreenedAdaptiveNeverFalseSkipsOnItsWorkload)
{
    // The screen's no-false-skip contract holds on the workload its
    // guard band is sized for (pbd/screen.hh): background noise plus
    // near-threshold variant columns.
    const DiffSet &set = screenSet();
    const AdaptiveBatch batch = screenedAdaptiveSweep(set);
    EXPECT_EQ(pbd::countFalseSkips(batch.skipped, set.oracle,
                                   pbd::ScreenConfig{}.threshold_log2),
              0u);
}

TEST(DiffEscalate, ScreenedAdaptiveMaskWinsOnAdversaries)
{
    // On the adversarial mixture the mean-based screening estimate
    // may legitimately skip deep heterogeneous columns (it is a
    // heuristic, not a bound — see pbd.hh). What must survive any
    // input is the adaptive pipeline's own contract, checked by
    // auditBatch inside the sweep: a skipped column keeps its
    // placeholder, is never escalated, and is never certified — so
    // a mis-screened column can never become a mis-certified one.
    screenedAdaptiveSweep(diffSet());
}

TEST(DiffEscalate, ScreenedBatchDifferentialAgainstOracle)
{
    const pbd::ScreenConfig config;
    const struct
    {
        const DiffSet *set;
        bool no_false_skips;
        const char *name;
    } sweeps[] = {
        {&screenSet(), true, "screening-regime"},
        {&diffSet(), false, "adversarial"},
    };
    for (const char *id : {"binary64", "log"}) {
        for (const auto &sweep : sweeps) {
            SCOPED_TRACE(std::string(id) + " " + sweep.name);
            const DiffSet &set = *sweep.set;
            engine::EvalPlan fixed;
            fixed.format_id = id;
            engine::EvalPlan screened_plan = fixed;
            screened_plan.policy = engine::PlanPolicy::Screened;
            screened_plan.screen = config;
            const auto screened =
                prop::runMemory(sharedEngine(), screened_plan,
                                set.columns)
                    .screened;
            const auto plain =
                prop::runMemory(sharedEngine(), fixed, set.columns)
                    .results;
            ASSERT_EQ(screened.results.size(), set.columns.size());
            if (sweep.no_false_skips) {
                EXPECT_EQ(pbd::countFalseSkips(screened.skipped,
                                               set.oracle,
                                               config.threshold_log2),
                          0u);
            }
            // Evaluated columns are bit-identical to the unscreened
            // batch on any input, adversarial or not.
            for (size_t i = 0; i < set.columns.size(); ++i) {
                if (screened.skipped[i])
                    continue;
                expectSameResult(screened.results[i], plain[i],
                                 seedTag(i, set.seeds[i]));
            }
        }
    }
}

TEST(DiffEscalate, AdaptiveStreamMatchesBatch)
{
    const DiffSet &set = diffSet();
    const size_t total = std::min<size_t>(set.columns.size(), 2000);
    constexpr size_t kShards = 4;

    std::vector<std::vector<pbd::Column>> shard_columns(kShards);
    std::vector<std::string> paths;
    for (size_t s = 0; s < kShards; ++s) {
        const size_t begin = s * total / kShards;
        const size_t end = (s + 1) * total / kShards;
        shard_columns[s].assign(set.columns.begin() + begin,
                                set.columns.begin() + end);
        const std::string path = test::tempPath(
            "escalate_stream_" + std::to_string(s) + ".shard");
        io::writeColumnShard(path, shard_columns[s]);
        paths.push_back(path);
    }

    CertConfig cert;
    cert.threshold_log2 = -200.0;
    engine::EvalPlan stream_plan = prop::adaptivePlan(cert);
    stream_plan.source = engine::PlanSource::ShardStream;
    stream_plan.shard_paths = paths;
    const engine::PlanRun streamed = sharedEngine().run(stream_plan);
    EXPECT_EQ(streamed.stream.shards, kShards);
    EXPECT_EQ(streamed.stream.items, total);

    // The streamed batches, concatenated in shard order, against the
    // memory-source run over each shard's columns.
    size_t offset = 0;
    size_t certified = 0;
    size_t uncertified = 0;
    for (size_t s = 0; s < kShards; ++s) {
        const AdaptiveBatch ref =
            prop::runMemory(sharedEngine(), prop::adaptivePlan(cert),
                            shard_columns[s])
                .adaptive;
        ASSERT_LE(offset + ref.results.size(),
                  streamed.adaptive.results.size());
        for (size_t i = 0; i < ref.results.size(); ++i) {
            const std::string tag = "shard " + std::to_string(s) +
                                    " item " + std::to_string(i);
            const EscalationResult &a =
                streamed.adaptive.results[offset + i];
            const EscalationResult &b = ref.results[i];
            EXPECT_EQ(a.tier, b.tier) << tag;
            EXPECT_EQ(a.certified, b.certified) << tag;
            expectSameResult(a.result, b.result, tag);
            EXPECT_EQ(a.interval.lo_log2, b.interval.lo_log2) << tag;
            EXPECT_EQ(a.interval.hi_log2, b.interval.hi_log2) << tag;
            EXPECT_EQ(a.interval.rel_bound_log2,
                      b.interval.rel_bound_log2)
                << tag;
        }
        offset += ref.results.size();
        certified += ref.certified;
        uncertified += ref.uncertified;
    }
    EXPECT_EQ(offset, streamed.adaptive.results.size());
    EXPECT_EQ(streamed.adaptive.certified, certified);
    EXPECT_EQ(streamed.adaptive.uncertified, uncertified);
}

TEST(DiffEscalate, PosteriorDifferentialTracksOracle)
{
    const size_t count = std::clamp<size_t>(
        prop::diffCases() / 160, 16, 120);
    std::deque<hmm::Model> models;
    std::deque<std::vector<int>> sequences;
    std::vector<engine::ForwardJob> jobs;
    std::vector<uint64_t> seeds;
    for (size_t j = 0; j < count; ++j) {
        seeds.push_back(prop::caseSeed(kPosteriorSweepSeed, j));
        stats::Rng rng(seeds.back());
        models.push_back(hmm::makeDirichletModel(
            rng, 2 + static_cast<int>(rng.below(4)),
            3 + static_cast<int>(rng.below(6))));
        const size_t length = 2 + rng.below(39);
        sequences.push_back(
            hmm::sampleObservations(rng, models.back(), length));
        jobs.push_back(
            engine::ForwardJob{&models.back(), sequences.back()});
    }

    engine::EvalPlan posterior;
    posterior.kernel = engine::PlanKernel::Posterior;
    posterior.format_id = "binary64";
    const auto computed =
        prop::runMemory(sharedEngine(), posterior, jobs).posteriors;
    const auto oracle =
        prop::runMemory(sharedEngine(),
                        engine::oraclePlan(engine::PlanKernel::Posterior),
                        jobs)
            .posteriors;
    ASSERT_EQ(computed.size(), oracle.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        const std::string tag = seedTag(j, seeds[j]);
        const std::vector<engine::EvalResult> &gamma = oracle[j].gamma;
        ASSERT_EQ(computed[j].gamma.size(), gamma.size()) << tag;
        for (size_t e = 0; e < gamma.size(); ++e) {
            const engine::EvalResult &entry = computed[j].gamma[e];
            ASSERT_FALSE(entry.invalid) << tag << " entry " << e;
            if (gamma[e].value.isZero()) {
                EXPECT_TRUE(entry.value.isZero())
                    << tag << " entry " << e;
                continue;
            }
            const BigFloat err = BigFloat::relativeError(
                gamma[e].value, entry.value);
            ASSERT_FALSE(err.isNaN()) << tag << " entry " << e;
            if (!err.isZero()) {
                EXPECT_LE(err.log2Abs(), -30.0)
                    << tag << " entry " << e;
            }
        }
    }
}

} // namespace
