/**
 * @file
 * Engine subsystem tests: FormatRegistry completeness and lookup,
 * type-erased round-trips through the BigFloat oracle for every
 * registered format, bit-exact agreement of the batched
 * multi-threaded plans with the single-threaded scalar templates and
 * per-item FormatOps calls, parallelFor scheduling, and
 * AccuracyTally classification.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/lofreq.hh"
#include "apps/vicar.hh"
#include "core/accuracy.hh"
#include "engine/env.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "hmm/decode.hh"
#include "hmm/forward.hh"
#include "pbd/pbd.hh"
#include "pbd/pbd_simd.hh"
#include "prop_util.hh"
#include "stats/rng.hh"

// ThreadSanitizer detection (the tsan CI job runs these suites).
#if defined(__SANITIZE_THREAD__)
#define PSTAT_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSTAT_TEST_TSAN 1
#endif
#endif

namespace
{

using namespace pstat;
using namespace pstat::engine;

TEST(FormatRegistry, ContainsTheWholeRealTraitsFamily)
{
    const auto &registry = FormatRegistry::instance();
    const std::vector<std::string> expected = {
        "binary64", "log",       "lns64",    "posit64_9",
        "posit64_12", "posit64_18", "binary32", "log32",
        "posit32_2", "bfloat16", "scaled_dd", "bigfloat256"};
    EXPECT_EQ(registry.ids(), expected);
    EXPECT_EQ(registry.size(), expected.size());
}

TEST(FormatRegistry, EnumeratesTheReducedPrecisionTier)
{
    const auto &registry = FormatRegistry::instance();
    const auto ids = registry.ids();
    for (const char *id :
         {"binary32", "log32", "posit32_2", "bfloat16"}) {
        EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end())
            << id;
        EXPECT_NE(registry.find(id), nullptr) << id;
    }
}

TEST(FormatRegistry, LookupByIdNameAndAlias)
{
    const auto &registry = FormatRegistry::instance();
    EXPECT_EQ(registry.at("posit64_18").name(), "posit(64,18)");
    EXPECT_EQ(registry.at("posit(64,18)").id(), "posit64_18");
    EXPECT_EQ(registry.at("log").name(), "log(binary64)");
    EXPECT_EQ(registry.at("oracle").id(), "scaled_dd");
    EXPECT_EQ(registry.at("float").id(), "binary32");
    EXPECT_EQ(registry.at("log32").name(), "log(binary32)");
    EXPECT_EQ(registry.at("posit32").name(), "posit(32,2)");
    EXPECT_EQ(registry.at("bf16").id(), "bfloat16");
    EXPECT_EQ(registry.find("no-such-format"), nullptr);
    EXPECT_THROW(registry.at("no-such-format"), std::out_of_range);
}

TEST(FormatRegistry, RangeFloorsMatchPositMinpos)
{
    const auto &registry = FormatRegistry::instance();
    EXPECT_EQ(registry.at("posit64_9").rangeFloorLog2(),
              static_cast<double>(Posit<64, 9>::scale_min));
    EXPECT_EQ(registry.at("posit64_18").rangeFloorLog2(),
              static_cast<double>(Posit<64, 18>::scale_min));
    EXPECT_EQ(registry.at("posit32_2").rangeFloorLog2(), -120.0);
    EXPECT_EQ(registry.at("binary64").rangeFloorLog2(), 0.0);
    EXPECT_EQ(registry.at("binary32").rangeFloorLog2(), 0.0);
    EXPECT_EQ(registry.at("bfloat16").rangeFloorLog2(), 0.0);
    EXPECT_EQ(registry.at("log").rangeFloorLog2(), 0.0);
}

TEST(FormatRegistry, EveryFormatRoundTripsThroughBigFloat)
{
    // fromDouble -> toBigFloat gives the exact value the format
    // holds; rounding that exact value back into the format
    // (fromBigFloat) must reproduce it bit for bit.
    const double samples[] = {1.0,   0.5,    0.125,  0.37, 3.0,
                              1e-10, 1e-300, 0.9999, 2.5e-7};
    for (const FormatOps *format : FormatRegistry::instance().all()) {
        for (double v : samples) {
            const BigFloat once = format->fromDouble(v);
            const BigFloat twice = format->fromBigFloat(once);
            EXPECT_TRUE(once == twice)
                << format->id() << " failed to round-trip " << v;
        }
    }
}

/** The invalid predicate of format T on its rounding of each probe. */
template <typename T>
std::vector<bool>
invalidRow(const std::vector<double> &probes)
{
    std::vector<bool> row;
    for (double v : probes)
        row.push_back(
            RealTraits<T>::isInvalid(RealTraits<T>::fromDouble(v)));
    return row;
}

TEST(FormatRegistry, InvalidPredicateTableCoversEveryFormat)
{
    // Probes: NaN, a negative value, zero, one, and 1e300, beyond the
    // 8-bit-exponent formats' range: binary32 overflows to an infinity
    // it still counts as a value, bfloat16 to one the oracle cannot
    // hold, and posits saturate. Posits turn NaN into NaR; the log
    // formats and LNS turn a negative value into NaN.
    const std::vector<double> probes = {
        std::numeric_limits<double>::quiet_NaN(), -1.0, 0.0, 1.0, 1e300};
    const bool T = true;
    const bool F = false;
    struct Row
    {
        const char *id;
        std::vector<bool> got;
        std::vector<bool> want;
    };
    const std::vector<Row> table = {
        {"binary64", invalidRow<double>(probes), {T, F, F, F, F}},
        {"log", invalidRow<LogDouble>(probes), {T, T, F, F, F}},
        {"lns64", invalidRow<Lns64>(probes), {T, T, F, F, F}},
        {"posit64_9", invalidRow<Posit<64, 9>>(probes), {T, F, F, F, F}},
        {"posit64_12", invalidRow<Posit<64, 12>>(probes), {T, F, F, F, F}},
        {"posit64_18", invalidRow<Posit<64, 18>>(probes), {T, F, F, F, F}},
        {"binary32", invalidRow<float>(probes), {T, F, F, F, F}},
        {"log32", invalidRow<LogFloat>(probes), {T, T, F, F, F}},
        {"posit32_2", invalidRow<Posit<32, 2>>(probes), {T, F, F, F, F}},
        {"bfloat16", invalidRow<BFloat16>(probes), {T, F, F, F, T}},
        {"scaled_dd", invalidRow<ScaledDD>(probes), {T, F, F, F, F}},
        {"bigfloat256", invalidRow<BigFloat>(probes), {T, F, F, F, F}},
    };
    std::vector<std::string> ids;
    for (const Row &row : table) {
        ids.push_back(row.id);
        EXPECT_EQ(row.got, row.want) << row.id;
    }
    EXPECT_EQ(ids, FormatRegistry::instance().ids());
}

TEST(EvalEngine, ParallelForCoversEveryIndexExactlyOnce)
{
    EvalEngine engine(4);
    EXPECT_EQ(engine.threadCount(), 4u);
    const size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    engine.parallelFor(n, [&](size_t i) { hits[i]++; });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(EvalEngine, GrainResolutionAutoSizesPerBatch)
{
    // Auto grain: max(1, n / (lanes * 8)) — about eight chunks per
    // lane; tiny batches degrade to per-index claiming.
    EvalEngine engine(4);
    EXPECT_EQ(engine.grainForBatch(10), 1u);
    EXPECT_EQ(engine.grainForBatch(64), 2u);
    EXPECT_EQ(engine.grainForBatch(100000), 3125u);
    // A constructor override pins the grain regardless of n.
    EvalEngine pinned(4, 7);
    EXPECT_EQ(pinned.grainForBatch(10), 7u);
    EXPECT_EQ(pinned.grainForBatch(100000), 7u);
}

TEST(EvalEngine, GrainEnvOverrideParsedStrictly)
{
    // A valid PSTAT_GRAIN pins the grain.
    ASSERT_EQ(setenv("PSTAT_GRAIN", "42", 1), 0);
    {
        EvalEngine engine(4);
        EXPECT_EQ(engine.grainForBatch(100000), 42u);
    }
    // Trailing garbage falls back to auto-sizing (with a warning)
    // instead of being silently misread.
    ASSERT_EQ(setenv("PSTAT_GRAIN", "42x", 1), 0);
    {
        EvalEngine engine(4);
        EXPECT_EQ(engine.grainForBatch(100000), 3125u);
    }
    // An explicit constructor grain beats the environment.
    ASSERT_EQ(setenv("PSTAT_GRAIN", "42", 1), 0);
    {
        EvalEngine engine(4, 5);
        EXPECT_EQ(engine.grainForBatch(100000), 5u);
    }
    ASSERT_EQ(unsetenv("PSTAT_GRAIN"), 0);
}

TEST(EvalEngine, ChunkedClaimingCoversEveryIndexExactlyOnce)
{
    // Chunk sizes that do and do not divide n, including a grain
    // bigger than the whole batch.
    for (size_t grain : {2u, 7u, 1000u, 100000u}) {
        EvalEngine engine(4, grain);
        const size_t n = 10001;
        std::vector<std::atomic<int>> hits(n);
        engine.parallelFor(n, [&](size_t i) { hits[i]++; });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "grain " << grain << " index " << i;
    }
}

TEST(EvalEngine, ParallelForPropagatesExceptions)
{
    EvalEngine engine(4);
    EXPECT_THROW(
        engine.parallelFor(100,
                           [&](size_t i) {
                               if (i == 57)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
    // The pool must still be usable afterwards.
    std::atomic<int> count{0};
    engine.parallelFor(64, [&](size_t) { count++; });
    EXPECT_EQ(count.load(), 64);
}

TEST(EvalEngine, ChunkedExceptionPropagationAndPoolReuse)
{
    // Multi-lane exception propagation with grain > 1: lanes fault
    // mid-chunk, exactly one exception surfaces, and the pool is
    // reusable for full-coverage batches afterwards.
    EvalEngine engine(8, 16);
    for (int round = 0; round < 3; ++round) {
        std::atomic<int> attempted{0};
        try {
            engine.parallelFor(3000, [&](size_t i) {
                attempted++;
                if (i % 5 == 3)
                    throw std::runtime_error("chunk boom " +
                                             std::to_string(i));
            });
            FAIL() << "expected a rethrown exception, round "
                   << round;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("chunk boom"),
                      std::string::npos);
        }
        EXPECT_GE(attempted.load(), 1);

        // A clean chunked batch right after covers every index.
        std::vector<std::atomic<int>> hits(1000);
        engine.parallelFor(hits.size(), [&](size_t i) { hits[i]++; });
        for (size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "round " << round;
    }
}

TEST(EvalEngine, ManyLanesThrowingInOneBatchPropagatesOne)
{
    // Every lane hits throwing items concurrently; exactly one
    // exception must surface on the calling thread, and the batch
    // must still drain cleanly.
    EvalEngine engine(8);
    std::atomic<int> attempted{0};
    try {
        engine.parallelFor(3000, [&](size_t i) {
            attempted++;
            if (i % 3 == 0)
                throw std::runtime_error("lane boom " +
                                         std::to_string(i));
        });
        FAIL() << "expected a rethrown exception";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("lane boom"),
                  std::string::npos);
    }
    EXPECT_GE(attempted.load(), 1);
}

TEST(EvalEngine, ReusableAcrossRepeatedRethrows)
{
    EvalEngine engine(4);
    for (int round = 0; round < 3; ++round) {
        EXPECT_THROW(engine.parallelFor(
                         256,
                         [&](size_t i) {
                             if (i % 7 == 0)
                                 throw std::invalid_argument("again");
                         }),
                     std::invalid_argument);
        // A clean batch right after every rethrow covers every index.
        std::vector<std::atomic<int>> hits(512);
        engine.parallelFor(hits.size(), [&](size_t i) { hits[i]++; });
        for (size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "round " << round;
    }
}

/** Scalar reference for one format's accelerator forward path. */
template <typename T>
BigFloat
scalarForwardAccel(const apps::VicarWorkload &w)
{
    return RealTraits<T>::toBigFloat(
        hmm::forward<T>(w.model, w.obs, hmm::Reduction::Tree)
            .likelihood);
}

TEST(EvalEngine, BatchedForwardBitMatchesScalarTemplates)
{
    std::vector<apps::VicarWorkload> workloads;
    for (int s = 0; s < 6; ++s)
        workloads.push_back(
            apps::makeVicarWorkload(500 + s, 5 + s % 3, 160, 25.0));

    EvalEngine engine(4);
    const auto &registry = FormatRegistry::instance();

    const auto b64 = apps::vicarLikelihoodBatch(
        registry.at("binary64"), workloads, engine);
    const auto p18 = apps::vicarLikelihoodBatch(
        registry.at("posit64_18"), workloads, engine);
    const auto lg = apps::vicarLikelihoodBatch(registry.at("log"),
                                               workloads, engine);
    const auto oracle = apps::vicarOracleBatch(workloads, engine);
    std::vector<ForwardJob> jobs;
    for (const auto &w : workloads)
        jobs.push_back({&w.model, w.obs});
    const auto oracle_plan =
        prop::runMemory(engine, oraclePlan(PlanKernel::Forward), jobs)
            .results;

    for (size_t i = 0; i < workloads.size(); ++i) {
        const auto &w = workloads[i];
        // The oracle plan is the serial ScaledDD forward loop.
        EXPECT_TRUE(oracle_plan[i].value ==
                    hmm::forwardOracle(w.model, w.obs)
                        .likelihood.toBigFloat())
            << i;
        EXPECT_TRUE(b64[i].value == scalarForwardAccel<double>(w))
            << i;
        EXPECT_TRUE((p18[i].value ==
                     scalarForwardAccel<Posit<64, 18>>(w)))
            << i;
        // The log accelerator path is Listing 3's n-ary LSE.
        EXPECT_TRUE(lg[i].value ==
                    apps::vicarLikelihoodLog(w).value)
            << i;
        EXPECT_TRUE(oracle[i] == apps::vicarOracle(w)) << i;
    }
}

TEST(EvalEngine, BatchedForwardBitMatchesScalarReducedTier)
{
    std::vector<apps::VicarWorkload> workloads;
    for (int s = 0; s < 4; ++s)
        workloads.push_back(
            apps::makeVicarWorkload(900 + s, 4 + s, 120, 0.8));

    EvalEngine engine(4);
    const auto &registry = FormatRegistry::instance();

    const auto b32 = apps::vicarLikelihoodBatch(
        registry.at("binary32"), workloads, engine);
    const auto p32 = apps::vicarLikelihoodBatch(
        registry.at("posit32_2"), workloads, engine);
    const auto bf16 = apps::vicarLikelihoodBatch(
        registry.at("bfloat16"), workloads, engine);
    const auto lg32 = apps::vicarLikelihoodBatch(
        registry.at("log32"), workloads, engine);

    for (size_t i = 0; i < workloads.size(); ++i) {
        const auto &w = workloads[i];
        EXPECT_TRUE(b32[i].value == scalarForwardAccel<float>(w))
            << i;
        EXPECT_TRUE((p32[i].value ==
                     scalarForwardAccel<Posit<32, 2>>(w)))
            << i;
        EXPECT_TRUE(bf16[i].value == scalarForwardAccel<BFloat16>(w))
            << i;
        // The log32 accelerator path is Listing 3's n-ary LSE in
        // binary32 function units.
        EXPECT_TRUE(
            lg32[i].value ==
            RealTraits<LogFloat>::toBigFloat(
                hmm::forwardLogNary<float>(w.model, w.obs).likelihood))
            << i;
    }
}

TEST(EvalEngine, BatchedPValuesBitMatchScalarReducedTier)
{
    pbd::DatasetConfig config;
    config.num_columns = 40;
    config.seed = 17;
    const auto ds = pbd::makeDataset(config, "engine32");

    EvalEngine engine(4);
    const auto &registry = FormatRegistry::instance();
    const auto b32 = apps::lofreqPValues(registry.at("binary32"), ds,
                                         engine, SumPolicy::Plain);
    const auto lg32 = apps::lofreqPValues(registry.at("log32"), ds,
                                          engine, SumPolicy::Plain);
    const auto p32 = apps::lofreqPValues(registry.at("posit32_2"),
                                         ds, engine,
                                         SumPolicy::Plain);
    const auto bf16 = apps::lofreqPValues(registry.at("bfloat16"),
                                          ds, engine,
                                          SumPolicy::Plain);

    for (size_t i = 0; i < ds.columns.size(); ++i) {
        const auto &col = ds.columns[i];
        EXPECT_TRUE(b32[i].value ==
                    RealTraits<float>::toBigFloat(pbd::pvalue<float>(
                        col.success_probs, col.k)))
            << i;
        EXPECT_TRUE(lg32[i].value ==
                    RealTraits<LogFloat>::toBigFloat(
                        pbd::pvalue<LogFloat>(col.success_probs,
                                              col.k)))
            << i;
        EXPECT_TRUE((p32[i].value ==
                     RealTraits<Posit<32, 2>>::toBigFloat(
                         pbd::pvalue<Posit<32, 2>>(col.success_probs,
                                                   col.k))))
            << i;
        EXPECT_TRUE(bf16[i].value ==
                    RealTraits<BFloat16>::toBigFloat(
                        pbd::pvalue<BFloat16>(col.success_probs,
                                              col.k)))
            << i;
    }
}

TEST(EvalEngine, PValueRunsBitIdenticalOverLanesAndGrains)
{
    // 32-column blocks, the shard size of lofreq-stream: over two or
    // more lanes the auto grain is below a tile, so run() hands lanes
    // tile-shaped chunks. No lane count, chunking or grain may move a
    // bit: every run matches the per-column scalar kernel.
    // Small noise K classes, with every seventh column past the `log`
    // tile's K cap and a few K <= 0 ones, as in LoFreq shards.
    stats::Rng rng(31);
    pbd::ColumnDataset ds;
    for (int i = 0; i < 96; ++i) {
        pbd::Column col;
        col.success_probs.resize(40 + rng.below(120));
        for (auto &p : col.success_probs)
            p = rng.uniform(1e-3, 0.1);
        col.k = i % 7 == 0 ? 20 + static_cast<int>(rng.below(30))
                           : static_cast<int>(rng.below(9));
        ds.columns.push_back(std::move(col));
    }
    const auto &registry = FormatRegistry::instance();

    struct Setting
    {
        unsigned lanes;
        size_t grain; // 0: auto
    };
    const Setting settings[] = {{1, 0}, {2, 0}, {3, 0}, {4, 0},
                                {3, 1}, {4, 5}};
    for (const char *id : {"log", "binary64", "binary32", "scaled_dd"}) {
        SCOPED_TRACE(id);
        const FormatOps &format = registry.at(id);
        std::vector<EvalResult> want;
        for (const pbd::Column &col : ds.columns)
            want.push_back(format.pbdPValue(col.success_probs, col.k,
                                            SumPolicy::Plain));
        EvalPlan plan;
        plan.format_id = id;
        for (const Setting &setting : settings) {
            SCOPED_TRACE(setting.lanes);
            SCOPED_TRACE(setting.grain);
            EvalEngine engine(setting.lanes, setting.grain);
            size_t chunks = 0;
            engine.executor().setChunkHook(
                [&chunks](size_t, size_t, double) { ++chunks; });
            for (size_t b = 0; b < ds.columns.size(); b += 32) {
                const std::span<const pbd::Column> block(
                    ds.columns.data() + b, 32);
                const auto got =
                    prop::runMemory(engine, plan, block).results;
                ASSERT_EQ(got.size(), block.size());
                for (size_t i = 0; i < block.size(); ++i) {
                    const EvalResult &w = want[b + i];
                    EXPECT_TRUE(got[i].value == w.value) << b + i;
                    EXPECT_EQ(got[i].invalid, w.invalid) << b + i;
                    EXPECT_EQ(got[i].underflow, w.underflow) << b + i;
                }
            }
            // Tile-shaped chunks run only with several lanes, the auto
            // grain, and a format that reports a tile shape on this
            // ISA: `log` and `scaled_dd` where their tiles run (AVX2),
            // never binary64 or binary32, whose mixed-K tiles can run
            // through subnormals.
            const size_t width =
                format.pbdTileShape(SumPolicy::Plain).width;
            const std::string name = id;
            if (name == "log")
                EXPECT_EQ(width, pbd::pvalueTileShape<LogDouble>().width);
            else if (name == "scaled_dd")
                EXPECT_EQ(width, pbd::pvalueTileShape<ScaledDD>().width);
            else
                EXPECT_EQ(width, 0U);
            const size_t blocks = ds.columns.size() / 32;
            const size_t grain = engine.grainForBatch(32);
            if (setting.lanes == 1)
                EXPECT_EQ(chunks, blocks);
            else if (setting.grain != 0 || width <= grain)
                EXPECT_EQ(chunks, blocks * ((32 + grain - 1) / grain));
            else
                EXPECT_LT(chunks, blocks * 32 / grain);
        }
    }
}

TEST(EvalEngine, CompensatedPolicyMatchesScalarCompensated)
{
    pbd::DatasetConfig config;
    config.num_columns = 24;
    config.seed = 23;
    const auto ds = pbd::makeDataset(config, "comp");

    EvalEngine engine(4);
    const auto &registry = FormatRegistry::instance();
    const auto b32 =
        apps::lofreqPValues(registry.at("binary32"), ds, engine,
                            SumPolicy::Compensated);
    // Log-domain formats have no subtraction: the compensated policy
    // must fall back to (and bit-match) the plain accumulation.
    const auto lg =
        apps::lofreqPValues(registry.at("log"), ds, engine,
                            SumPolicy::Compensated);

    for (size_t i = 0; i < ds.columns.size(); ++i) {
        const auto &col = ds.columns[i];
        EXPECT_TRUE(b32[i].value ==
                    RealTraits<float>::toBigFloat(
                        pbd::pvalueCompensated<float>(
                            col.success_probs, col.k)))
            << i;
        EXPECT_TRUE(lg[i].value ==
                    RealTraits<LogDouble>::toBigFloat(
                        pbd::pvalue<LogDouble>(col.success_probs,
                                               col.k)))
            << i;
    }
}

TEST(EvalEngine, CompensatedForwardDataflowMatchesScalar)
{
    const auto w = apps::makeVicarWorkload(81, 6, 150, 0.4);
    const auto &registry = FormatRegistry::instance();
    const auto got =
        registry.at("binary32")
            .hmmForward(w.model, w.obs,
                        Dataflow::SoftwareCompensated);
    const BigFloat want = RealTraits<float>::toBigFloat(
        hmm::forward<float>(w.model, w.obs,
                            hmm::Reduction::Compensated)
            .likelihood);
    EXPECT_TRUE(got.value == want);

    // Log formats fall back to the plain sequential chain.
    const auto got_log =
        registry.at("log").hmmForward(
            w.model, w.obs, Dataflow::SoftwareCompensated);
    const BigFloat want_log = RealTraits<LogDouble>::toBigFloat(
        hmm::forward<LogDouble>(w.model, w.obs,
                                hmm::Reduction::Sequential)
            .likelihood);
    EXPECT_TRUE(got_log.value == want_log);
}

TEST(EvalEngine, SoftwareDataflowMatchesSequentialScalar)
{
    const auto w = apps::makeVicarWorkload(77, 6, 120, 20.0);
    const auto &registry = FormatRegistry::instance();
    const auto got = registry.at("posit64_12")
                         .hmmForward(w.model, w.obs,
                                     Dataflow::Software);
    const BigFloat want = RealTraits<Posit<64, 12>>::toBigFloat(
        hmm::forward<Posit<64, 12>>(w.model, w.obs,
                                    hmm::Reduction::Sequential)
            .likelihood);
    EXPECT_TRUE(got.value == want);
}

TEST(EvalEngine, BatchedPValuesBitMatchScalarTemplates)
{
    pbd::DatasetConfig config;
    config.num_columns = 80;
    config.seed = 12;
    const auto ds = pbd::makeDataset(config, "engine");

    EvalEngine engine(4);
    const auto &registry = FormatRegistry::instance();
    const auto lg =
        apps::lofreqPValues(registry.at("log"), ds, engine,
                            SumPolicy::Plain);
    const auto p12 =
        apps::lofreqPValues(registry.at("posit64_12"), ds, engine,
                            SumPolicy::Plain);
    const auto oracle = apps::lofreqOracle(ds, engine);
    const auto oracle_serial = apps::lofreqOracle(ds);
    const auto oracle_plan =
        prop::runMemory(engine, oraclePlan(PlanKernel::PValue),
                        ds.columns)
            .results;

    ASSERT_EQ(lg.size(), ds.columns.size());
    for (size_t i = 0; i < ds.columns.size(); ++i) {
        const auto &col = ds.columns[i];
        const BigFloat want_log =
            RealTraits<LogDouble>::toBigFloat(
                pbd::pvalue<LogDouble>(col.success_probs, col.k));
        const BigFloat want_p12 =
            RealTraits<Posit<64, 12>>::toBigFloat(
                pbd::pvalue<Posit<64, 12>>(col.success_probs,
                                           col.k));
        EXPECT_TRUE(lg[i].value == want_log) << i;
        EXPECT_TRUE(p12[i].value == want_p12) << i;
        EXPECT_TRUE(oracle[i] == oracle_serial[i]) << i;
        // The oracle plan is the serial ScaledDD Listing-2 DP.
        EXPECT_TRUE(oracle_plan[i].value ==
                    pbd::pvalueOracle(col.success_probs, col.k)
                        .toBigFloat())
            << i;
    }
}

TEST(EvalEngine, EvalResultFlagsMatchScalarPredicates)
{
    // A workload deep enough that binary64 underflows to zero.
    const auto w = apps::makeVicarWorkload(2, 13, 400, 60.0);
    const auto &registry = FormatRegistry::instance();
    const auto b64 = registry.at("binary64")
                         .hmmForward(w.model, w.obs,
                                     Dataflow::Accelerator);
    EXPECT_TRUE(b64.underflow);
    EXPECT_FALSE(b64.invalid);
    const auto p18 = registry.at("posit64_18")
                         .hmmForward(w.model, w.obs,
                                     Dataflow::Accelerator);
    EXPECT_FALSE(p18.underflow);
    EXPECT_FALSE(p18.invalid);
}

/** Shared small job set for the decode-plan bit-match tests. */
std::vector<apps::VicarWorkload> &
decodeWorkloads()
{
    static std::vector<apps::VicarWorkload> workloads = [] {
        std::vector<apps::VicarWorkload> w;
        for (int s = 0; s < 3; ++s)
            w.push_back(
                apps::makeVicarWorkload(300 + s, 3 + s, 40, 2.0));
        return w;
    }();
    return workloads;
}

std::vector<ForwardJob>
decodeJobs()
{
    std::vector<ForwardJob> jobs;
    for (const auto &w : decodeWorkloads())
        jobs.push_back({&w.model, w.obs});
    return jobs;
}

/** A Memory plan of one HMM kernel on one registered format. */
EvalPlan
hmmPlan(PlanKernel kernel, const std::string &format_id)
{
    EvalPlan plan;
    plan.kernel = kernel;
    plan.format_id = format_id;
    return plan;
}

TEST(EvalEngine, BatchedBackwardBitMatchesSerialEveryFormat)
{
    EvalEngine engine(4);
    const auto jobs = decodeJobs();
    for (const FormatOps *format : FormatRegistry::instance().all()) {
        const auto batched =
            prop::runMemory(engine,
                            hmmPlan(PlanKernel::Backward, format->id()),
                            jobs)
                .results;
        ASSERT_EQ(batched.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            const auto serial = format->hmmBackward(
                *jobs[i].model, jobs[i].obs, Dataflow::Accelerator);
            EXPECT_TRUE(batched[i].value == serial.value)
                << format->id() << " job " << i;
            EXPECT_EQ(batched[i].underflow, serial.underflow);
            EXPECT_EQ(batched[i].invalid, serial.invalid);
        }
    }
}

TEST(EvalEngine, BatchedPosteriorBitMatchesSerialEveryFormat)
{
    EvalEngine engine(4);
    const auto jobs = decodeJobs();
    for (const FormatOps *format : FormatRegistry::instance().all()) {
        for (bool renorm : {false, true}) {
            EvalPlan plan = hmmPlan(PlanKernel::Posterior, format->id());
            plan.renormalize = renorm;
            const auto batched =
                prop::runMemory(engine, plan, jobs).posteriors;
            ASSERT_EQ(batched.size(), jobs.size());
            for (size_t i = 0; i < jobs.size(); ++i) {
                const auto serial = format->hmmPosterior(
                    *jobs[i].model, jobs[i].obs,
                    Dataflow::Accelerator, renorm);
                ASSERT_EQ(batched[i].gamma.size(),
                          serial.gamma.size())
                    << format->id();
                for (size_t k = 0; k < serial.gamma.size(); ++k) {
                    ASSERT_TRUE(batched[i].gamma[k].value ==
                                serial.gamma[k].value)
                        << format->id() << " job " << i << " k=" << k
                        << " renorm=" << renorm;
                }
                EXPECT_TRUE(batched[i].likelihood.value ==
                            serial.likelihood.value)
                    << format->id();
                EXPECT_EQ(batched[i].first_underflow_step,
                          serial.first_underflow_step);
            }
        }
    }
}

TEST(EvalEngine, BatchedViterbiBitMatchesSerialEveryFormat)
{
    EvalEngine engine(4);
    const auto jobs = decodeJobs();
    for (const FormatOps *format : FormatRegistry::instance().all()) {
        const auto batched =
            prop::runMemory(engine,
                            hmmPlan(PlanKernel::Viterbi, format->id()),
                            jobs)
                .decodes;
        ASSERT_EQ(batched.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            const auto serial =
                format->hmmViterbi(*jobs[i].model, jobs[i].obs);
            EXPECT_EQ(batched[i].path, serial.path)
                << format->id() << " job " << i;
            EXPECT_TRUE(batched[i].probability.value ==
                        serial.probability.value)
                << format->id();
            EXPECT_EQ(batched[i].first_underflow_step,
                      serial.first_underflow_step);
        }
    }
}

TEST(EvalEngine, BackwardMatchesScalarTemplatesAndLogNary)
{
    EvalEngine engine(4);
    const auto jobs = decodeJobs();

    const auto backward = [&](const char *id) {
        return prop::runMemory(engine, hmmPlan(PlanKernel::Backward, id),
                               jobs)
            .results;
    };
    const auto p18 = backward("posit64_18");
    const auto lg = backward("log");
    const auto lg32 = backward("log32");
    const auto oracle =
        prop::runMemory(engine, oraclePlan(PlanKernel::Backward), jobs)
            .results;

    for (size_t i = 0; i < jobs.size(); ++i) {
        const auto &m = *jobs[i].model;
        EXPECT_TRUE(
            (p18[i].value ==
             RealTraits<Posit<64, 18>>::toBigFloat(
                 hmm::backward<Posit<64, 18>>(m, jobs[i].obs,
                                              hmm::Reduction::Tree)
                     .likelihood)))
            << i;
        // The log accelerator backward is the n-ary LSE dataflow.
        EXPECT_TRUE(lg[i].value ==
                    RealTraits<LogDouble>::toBigFloat(
                        hmm::backwardLogNary(m, jobs[i].obs)
                            .likelihood))
            << i;
        EXPECT_TRUE(lg32[i].value ==
                    RealTraits<LogFloat>::toBigFloat(
                        hmm::backwardLogNary<float>(m, jobs[i].obs)
                            .likelihood))
            << i;
        EXPECT_TRUE(oracle[i].value ==
                    hmm::backward<ScaledDD>(m, jobs[i].obs)
                        .likelihood.toBigFloat())
            << i;
        // Backward and forward oracles agree on P(O).
        const BigFloat fwd =
            hmm::forwardOracle(m, jobs[i].obs).likelihood.toBigFloat();
        EXPECT_LT(accuracy::relErrLog10(fwd, oracle[i].value), -25.0)
            << i;
    }
}

TEST(EvalEngine, OracleDecodeBatchesMatchSerial)
{
    EvalEngine engine(4);
    const auto jobs = decodeJobs();
    const auto posteriors =
        prop::runMemory(engine, oraclePlan(PlanKernel::Posterior), jobs)
            .posteriors;
    const auto decodes =
        prop::runMemory(engine, oraclePlan(PlanKernel::Viterbi), jobs)
            .decodes;
    ASSERT_EQ(posteriors.size(), jobs.size());
    ASSERT_EQ(decodes.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const auto serial =
            hmm::posterior<ScaledDD>(*jobs[i].model, jobs[i].obs);
        ASSERT_EQ(posteriors[i].gamma.size(), serial.gamma.size());
        for (size_t k = 0; k < serial.gamma.size(); ++k)
            ASSERT_TRUE(posteriors[i].gamma[k].value ==
                        serial.gamma[k].toBigFloat());
        EXPECT_EQ(decodes[i].path,
                  hmm::viterbi<ScaledDD>(*jobs[i].model, jobs[i].obs)
                      .path);
    }
}

TEST(EnvParsing, ParseLongValidatesTheFullString)
{
    EXPECT_EQ(parseLong("8"), 8);
    EXPECT_EQ(parseLong("  16"), 16); // strtol-style leading space
    EXPECT_EQ(parseLong("-3"), -3);
    EXPECT_FALSE(parseLong(nullptr).has_value());
    EXPECT_FALSE(parseLong("").has_value());
    EXPECT_FALSE(parseLong("8x").has_value());
    EXPECT_FALSE(parseLong("4 ").has_value());
    EXPECT_FALSE(parseLong("threads").has_value());
    EXPECT_FALSE(
        parseLong("99999999999999999999999999").has_value());
}

TEST(EnvParsing, ParseBoolAcceptsIntegersAndTokens)
{
    EXPECT_EQ(parseBool("1"), true);
    EXPECT_EQ(parseBool("0"), false);
    EXPECT_EQ(parseBool("42"), true);
    EXPECT_EQ(parseBool("true"), true);
    EXPECT_EQ(parseBool("YES"), true);
    EXPECT_EQ(parseBool("On"), true);
    EXPECT_EQ(parseBool("false"), false);
    EXPECT_EQ(parseBool("no"), false);
    EXPECT_EQ(parseBool("OFF"), false);
    // Leading whitespace is accepted on both paths (strtol-style).
    EXPECT_EQ(parseBool(" 1"), true);
    EXPECT_EQ(parseBool(" true"), true);
    EXPECT_FALSE(parseBool(nullptr).has_value());
    EXPECT_FALSE(parseBool("").has_value());
    EXPECT_FALSE(parseBool("1x").has_value());
    EXPECT_FALSE(parseBool("yess").has_value());
}

TEST(EvalEngine, ThreadOverrideParsedStrictly)
{
    // A valid override pins the lane count.
    ASSERT_EQ(setenv("PSTAT_THREADS", "3", 1), 0);
    {
        EvalEngine engine;
        EXPECT_EQ(engine.threadCount(), 3u);
    }
    // Trailing garbage is rejected: the engine falls back to
    // hardware concurrency instead of silently reading "2".
    ASSERT_EQ(setenv("PSTAT_THREADS", "2zz", 1), 0);
    {
        EvalEngine engine;
        unsigned fallback = std::thread::hardware_concurrency();
        if (fallback == 0)
            fallback = 1;
        EXPECT_EQ(engine.threadCount(), fallback);
    }
    ASSERT_EQ(unsetenv("PSTAT_THREADS"), 0);
}

TEST(EvalEngine, ThreadClampEmitsADiagnostic)
{
#ifdef PSTAT_TEST_TSAN
    // Constructing 1024 lanes (1023 real threads) is prohibitively
    // heavy under TSan's shadow state and can trip thread limits on
    // constrained runners; the plain-build run covers the clamp.
    GTEST_SKIP() << "skipping 1024-lane construction under TSan";
#else
    // Regression: values above the 1024-lane clamp used to be
    // silently reduced; the clamp now gets the same stderr
    // diagnostic as the garbage-input path.
    ASSERT_EQ(setenv("PSTAT_THREADS", "4096", 1), 0);
    testing::internal::CaptureStderr();
    {
        EvalEngine engine;
        EXPECT_EQ(engine.threadCount(), 1024u);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("clamping PSTAT_THREADS"), std::string::npos)
        << err;
    EXPECT_NE(err.find("4096"), std::string::npos) << err;
    ASSERT_EQ(unsetenv("PSTAT_THREADS"), 0);
#endif
}

TEST(AccuracyTally, PositiveRangeFloorClassifiesUnderflows)
{
    // Regression: the old predicate (`range_floor_ < 0.0`) silently
    // ignored positive floors even though the constructor documents
    // "0 disables". A floor of +10 must classify any sample whose
    // oracle magnitude is below 2^10 as an underflow.
    AccuracyTally tally("positive-floor", 10.0);
    EvalResult accurate;
    accurate.value = BigFloat::fromDouble(8.0);
    EXPECT_EQ(tally.add(BigFloat::fromDouble(8.0), accurate),
              AccuracyTally::Outcome::Underflow);
    EXPECT_EQ(tally.underflows(), 1);

    EvalResult big;
    big.value = BigFloat::fromDouble(4096.0);
    EXPECT_EQ(tally.add(BigFloat::fromDouble(4096.0), big),
              AccuracyTally::Outcome::Recorded);
    EXPECT_EQ(tally.underflows(), 1);
}

TEST(AccuracyTally, ZeroFloorDisablesTheRangeCheck)
{
    AccuracyTally tally("no-floor", 0.0);
    EvalResult deep;
    const BigFloat oracle = BigFloat::twoPow(-100000);
    deep.value = oracle * BigFloat::fromDouble(1.0 + 1e-12);
    EXPECT_EQ(tally.add(oracle, deep),
              AccuracyTally::Outcome::Recorded);
    EXPECT_EQ(tally.underflows(), 0);
}

TEST(AccuracyTally, WorstLog10IsEmptyWithoutHugeErrors)
{
    AccuracyTally tally("opt", 0.0);
    EXPECT_FALSE(tally.worstLog10().has_value());

    const BigFloat oracle = BigFloat::fromDouble(0.5);
    EvalResult good;
    good.value = oracle * BigFloat::fromDouble(1.0 + 1e-12);
    tally.add(oracle, good);
    EXPECT_FALSE(tally.worstLog10().has_value());

    EvalResult off;
    off.value = oracle * BigFloat::fromDouble(100.0);
    EXPECT_EQ(tally.add(oracle, off),
              AccuracyTally::Outcome::HugeError);
    ASSERT_TRUE(tally.worstLog10().has_value());
    EXPECT_NEAR(*tally.worstLog10(), 2.0, 0.05);
}

TEST(AccuracyTally, ClassifiesLikeTheFigure9Bookkeeping)
{
    const auto bins = stats::figure9Bins();
    AccuracyTally tally("t", Posit<64, 12>::scale_min, bins);

    // In-range, accurate: recorded into a bin.
    const BigFloat oracle = BigFloat::twoPow(-300);
    EvalResult good;
    good.value = oracle * BigFloat::fromDouble(1.0 + 1e-12);
    EXPECT_EQ(tally.add(oracle, good),
              AccuracyTally::Outcome::Recorded);

    // Computed zero on a nonzero oracle: underflow.
    EvalResult zero;
    zero.value = BigFloat::zero();
    zero.underflow = true;
    EXPECT_EQ(tally.add(oracle, zero),
              AccuracyTally::Outcome::Underflow);

    // Oracle magnitude below the format's range floor: underflow
    // even though the scalar saturated instead of flushing.
    const BigFloat deep =
        BigFloat::twoPow(Posit<64, 12>::scale_min - 1000);
    EvalResult saturated;
    saturated.value = BigFloat::twoPow(Posit<64, 12>::scale_min);
    EXPECT_EQ(tally.add(deep, saturated),
              AccuracyTally::Outcome::Underflow);

    // Relative error >= 1: huge error, excluded from bins.
    EvalResult off;
    off.value = oracle * BigFloat::fromDouble(5.0);
    EXPECT_EQ(tally.add(oracle, off),
              AccuracyTally::Outcome::HugeError);

    // Zero oracle: skipped.
    EvalResult anything;
    anything.value = BigFloat::one();
    EXPECT_EQ(tally.add(BigFloat::zero(), anything),
              AccuracyTally::Outcome::ZeroOracle);

    EXPECT_EQ(tally.underflows(), 2);
    EXPECT_EQ(tally.hugeErrors(), 1);
    EXPECT_EQ(tally.samples(), 4u);
    EXPECT_EQ(tally.errors().size(), 4u);
    size_t binned = 0;
    for (const auto &bin : tally.binned())
        binned += bin.size();
    EXPECT_EQ(binned, 1u);
}

} // namespace
