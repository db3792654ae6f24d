/**
 * @file
 * EvalPlan tests: value semantics and validation, the versioned wire
 * format (golden vector, round trips, rejection of truncated /
 * corrupted / wrong-version / trailing-garbage bytes), plan files,
 * and the bit-identity contract — every fixed and screened plan
 * through run(), from memory and from a shard stream, against the
 * scalar per-item FormatOps calls, and adaptive plans memory against
 * stream, swept over every registered format.
 */

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "engine/plan.hh"
#include "hmm/generator.hh"
#include "io/shard.hh"
#include "io/shard_stream.hh"
#include "pbd/dataset.hh"
#include "prop_util.hh"
#include "shard_fixture.hh"
#include "test_tmp.hh"

namespace
{

using namespace pstat;
using test::tempPath;

/** A fully-populated plan exercising every serialized field. */
engine::EvalPlan
fullPlan()
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::ShardStream;
    plan.policy = engine::PlanPolicy::ScreenedAdaptive;
    plan.ladder_ids = {"binary32", "scaled_dd"};
    plan.cert.tol_rel_log2 = -40.0;
    plan.cert.threshold_log2 = -200.0;
    plan.screen.threshold_log2 = -200.0;
    plan.screen.guard_band_log2 = 48.0;
    plan.sum = engine::SumPolicy::Compensated;
    plan.dataflow = engine::Dataflow::Software;
    plan.renormalize = true;
    plan.shard_paths = {"a.shard", "b.shard"};
    plan.queue_capacity = 4;
    return plan;
}

/** Rewrite the CRC trailer after deliberately editing plan bytes. */
void
resealPlan(std::vector<uint8_t> &bytes)
{
    ASSERT_GE(bytes.size(), 8u);
    const size_t trailer = bytes.size() - 8;
    const uint32_t crc = io::crc32(0, bytes.data(), trailer);
    for (size_t i = 0; i < 8; ++i)
        bytes[trailer + i] =
            i < 4 ? static_cast<uint8_t>(crc >> (8 * i)) : 0;
}

// ------------------------------------------------------ wire format

TEST(Plan, GoldenEncodeVector)
{
    // The full plan above, encoded by the shipped encoder. A change
    // to these bytes is a wire-format break: bump plan_version and
    // keep the old bytes as a rejection case, like
    // RejectsVersionOnePlans (the decoder reads one version only).
    const std::vector<uint8_t> golden = {
        0x50, 0x53, 0x54, 0x50, 0x4c, 0x41, 0x4e, 0x31, 0x02, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x44, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x69, 0xc0,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x69, 0xc0, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x48, 0x40, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x62, 0x69,
        0x6e, 0x61, 0x72, 0x79, 0x33, 0x32, 0x09, 0x00, 0x00, 0x00,
        0x73, 0x63, 0x61, 0x6c, 0x65, 0x64, 0x5f, 0x64, 0x64, 0x02,
        0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x61, 0x2e, 0x73,
        0x68, 0x61, 0x72, 0x64, 0x07, 0x00, 0x00, 0x00, 0x62, 0x2e,
        0x73, 0x68, 0x61, 0x72, 0x64, 0x85, 0xb6, 0xe7, 0xcb, 0x00,
        0x00, 0x00, 0x00};
    EXPECT_EQ(engine::encodePlan(fullPlan()), golden);
    EXPECT_EQ(engine::decodePlan(golden), fullPlan());
}

TEST(Plan, RejectsVersionOnePlans)
{
    // A version-1 encoding (CRC-valid, as the previous encoder wrote
    // it: the full plan plus threads 3, grain 16 and simd "scalar").
    // Version 2 dropped those three fields; the decoder reads one
    // version only, so the old bytes are a typed error naming it.
    const std::vector<uint8_t> v1 = {
        0x50, 0x53, 0x54, 0x50, 0x4c, 0x41, 0x4e, 0x31, 0x01, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
        0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x44, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x69, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x69, 0xc0,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x48, 0x40, 0x00, 0x00,
        0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
        0x62, 0x69, 0x6e, 0x61, 0x72, 0x79, 0x33, 0x32, 0x09, 0x00,
        0x00, 0x00, 0x73, 0x63, 0x61, 0x6c, 0x65, 0x64, 0x5f, 0x64,
        0x64, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x61,
        0x2e, 0x73, 0x68, 0x61, 0x72, 0x64, 0x07, 0x00, 0x00, 0x00,
        0x62, 0x2e, 0x73, 0x68, 0x61, 0x72, 0x64, 0x06, 0x00, 0x00,
        0x00, 0x73, 0x63, 0x61, 0x6c, 0x61, 0x72, 0x82, 0xdc, 0x2a,
        0x4c, 0x00, 0x00, 0x00, 0x00};
    try {
        engine::decodePlan(v1);
        FAIL() << "accepted a version-1 plan";
    } catch (const engine::PlanError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("unsupported plan version 1"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Plan, RejectsTheRetiredDefaultSum)
{
    // Sum 0 once meant "the executing process's PSTAT_COMPENSATED".
    // A plan names its summation now, so CRC-valid bytes carrying 0
    // are a typed error, never resolved from the environment. The
    // sum word follows magic, version, kernel, source and policy.
    auto bytes = engine::encodePlan(fullPlan());
    ASSERT_EQ(bytes[24], 2u); // Compensated, as fullPlan() names it
    bytes[24] = 0;
    resealPlan(bytes);
    try {
        engine::decodePlan(bytes);
        FAIL() << "accepted a plan with sum 0";
    } catch (const engine::PlanError &error) {
        EXPECT_NE(std::string(error.what()).find("sum"),
                  std::string::npos)
            << error.what();
    }

    // The same value in memory fails validation.
    engine::EvalPlan unnamed;
    unnamed.format_id = "binary64";
    unnamed.sum = static_cast<engine::SumPolicy>(0);
    EXPECT_THROW(engine::validatePlan(unnamed), std::invalid_argument);
}

TEST(Plan, RoundTripsDefaultAndFullPlans)
{
    const engine::EvalPlan defaults;
    EXPECT_EQ(engine::decodePlan(engine::encodePlan(defaults)),
              defaults);
    EXPECT_EQ(engine::decodePlan(engine::encodePlan(fullPlan())),
              fullPlan());

    // Absent optionals stay absent (flag bits, not sentinel values).
    engine::EvalPlan tol_only = fullPlan();
    tol_only.cert.threshold_log2.reset();
    const auto back =
        engine::decodePlan(engine::encodePlan(tol_only));
    EXPECT_TRUE(back.cert.tol_rel_log2.has_value());
    EXPECT_FALSE(back.cert.threshold_log2.has_value());
    EXPECT_EQ(back, tol_only);
}

TEST(Plan, RejectsTruncationAtEveryLength)
{
    const auto bytes = engine::encodePlan(fullPlan());
    for (size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<uint8_t> cut(bytes.begin(),
                                       bytes.begin() + len);
        EXPECT_THROW(engine::decodePlan(cut), engine::PlanError)
            << "accepted a plan truncated to " << len << " bytes";
    }
}

TEST(Plan, RejectsGarbageAndBadMagic)
{
    EXPECT_THROW(engine::decodePlan({}), engine::PlanError);
    const std::vector<uint8_t> garbage(64, 0xa5);
    EXPECT_THROW(engine::decodePlan(garbage), engine::PlanError);

    auto bytes = engine::encodePlan(fullPlan());
    bytes[0] ^= 0xff; // break the magic (and the CRC)
    EXPECT_THROW(engine::decodePlan(bytes), engine::PlanError);
}

TEST(Plan, RejectsEveryFlippedByte)
{
    // The CRC trailer catches any single-byte corruption anywhere in
    // the buffer (a trailer flip breaks the stored CRC itself).
    const auto bytes = engine::encodePlan(fullPlan());
    for (size_t i = 0; i < bytes.size(); ++i) {
        auto copy = bytes;
        copy[i] ^= 0x01;
        EXPECT_THROW(engine::decodePlan(copy), engine::PlanError)
            << "accepted a plan with byte " << i << " flipped";
    }
}

TEST(Plan, RejectsWrongVersion)
{
    auto bytes = engine::encodePlan(fullPlan());
    // The version field follows the 8-byte magic.
    bytes[8] = static_cast<uint8_t>(engine::plan_version + 1);
    resealPlan(bytes);
    try {
        engine::decodePlan(bytes);
        FAIL() << "accepted an unsupported plan version";
    } catch (const engine::PlanError &error) {
        EXPECT_NE(std::string(error.what()).find("version"),
                  std::string::npos);
    }
}

TEST(Plan, RejectsUnknownFlagBitsAndBadEnums)
{
    // Flag word at offset 28 (magic 8 + six u32 fields).
    auto flagged = engine::encodePlan(fullPlan());
    flagged[28 + 3] |= 0x80;
    resealPlan(flagged);
    EXPECT_THROW(engine::decodePlan(flagged), engine::PlanError);

    // Kernel enum at offset 12: 0 is outside every plan enum.
    auto bad_kernel = engine::encodePlan(fullPlan());
    bad_kernel[12] = 0;
    resealPlan(bad_kernel);
    EXPECT_THROW(engine::decodePlan(bad_kernel), engine::PlanError);
}

TEST(Plan, RejectsTrailingBytes)
{
    auto bytes = engine::encodePlan(fullPlan());
    // Splice two garbage bytes between the payload and the trailer,
    // then reseal: the CRC passes but the cursor must notice the
    // unconsumed tail.
    bytes.insert(bytes.end() - 8, {0xde, 0xad});
    resealPlan(bytes);
    try {
        engine::decodePlan(bytes);
        FAIL() << "accepted a plan with trailing bytes";
    } catch (const engine::PlanError &error) {
        EXPECT_NE(std::string(error.what()).find("trailing"),
                  std::string::npos);
    }
}

TEST(Plan, HugeStringListCountIsRejectedNotAllocated)
{
    // A default plan ends with the ladder count and the shard path
    // count, then the 8-byte trailer. A CRC-valid count of 2^32 - 1
    // must be a PlanError, not a bad_alloc from reserving that many
    // strings.
    for (const size_t from_end : {16u, 12u}) {
        auto bytes = engine::encodePlan(engine::EvalPlan{});
        const uint32_t huge = 0xffffffffu;
        std::memcpy(bytes.data() + bytes.size() - from_end, &huge,
                    sizeof(huge));
        resealPlan(bytes);
        try {
            engine::decodePlan(bytes);
            FAIL() << "accepted a count of " << huge;
        } catch (const engine::PlanError &error) {
            EXPECT_NE(std::string(error.what()).find("overruns"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(Plan, PlanFileRoundTripAndErrors)
{
    const std::string path = tempPath("roundtrip.plan");
    engine::writePlanFile(path, fullPlan());
    EXPECT_EQ(engine::readPlanFile(path), fullPlan());

    EXPECT_THROW(engine::readPlanFile(tempPath("missing.plan")),
                 engine::PlanError);

    // A corrupt file surfaces as a PlanError naming the path.
    auto bytes = engine::encodePlan(fullPlan());
    bytes[20] ^= 0x10;
    const std::string bad = tempPath("corrupt.plan");
    std::FILE *f = std::fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
    try {
        engine::readPlanFile(bad);
        FAIL() << "accepted a corrupt plan file";
    } catch (const engine::PlanError &error) {
        EXPECT_NE(std::string(error.what()).find(bad),
                  std::string::npos);
    }
}

// -------------------------------------------------------- validation

TEST(Plan, ValidatesPolicyKernelAndKnobCombinations)
{
    EXPECT_NO_THROW(engine::validatePlan(fullPlan()));

    // The minimal runnable plan: defaults plus a format id. The bare
    // default is rejected — a fixed policy with no format is the
    // classic half-built plan.
    engine::EvalPlan minimal;
    minimal.format_id = "binary64";
    EXPECT_NO_THROW(engine::validatePlan(minimal));
    engine::EvalPlan defaults;
    EXPECT_THROW(engine::validatePlan(defaults),
                 std::invalid_argument);

    // Screening is a p-value concept.
    engine::EvalPlan screened_forward;
    screened_forward.kernel = engine::PlanKernel::Forward;
    screened_forward.policy = engine::PlanPolicy::Screened;
    EXPECT_THROW(engine::validatePlan(screened_forward),
                 std::invalid_argument);

    // The adaptive ladder certifies p-values only: the same adaptive
    // plan is valid on the pvalue kernel and rejected on every HMM
    // kernel, from memory and from a shard stream.
    for (const auto source : {engine::PlanSource::Memory,
                              engine::PlanSource::ShardStream}) {
        engine::EvalPlan adaptive;
        adaptive.source = source;
        adaptive.policy = engine::PlanPolicy::Adaptive;
        adaptive.cert.threshold_log2 = -200.0;
        adaptive.ladder_ids = prop::defaultLadderIds();
        adaptive.shard_paths = {"x.shard"};
        EXPECT_NO_THROW(engine::validatePlan(adaptive));
        for (const auto kernel :
             {engine::PlanKernel::Forward, engine::PlanKernel::Backward,
              engine::PlanKernel::Posterior,
              engine::PlanKernel::Viterbi}) {
            adaptive.kernel = kernel;
            EXPECT_THROW(engine::validatePlan(adaptive),
                         std::invalid_argument)
                << engine::planKernelName(kernel) << " from "
                << engine::planSourceName(source);
        }
    }

    // Decode kernels have no streamed implementation.
    engine::EvalPlan viterbi_stream;
    viterbi_stream.kernel = engine::PlanKernel::Viterbi;
    viterbi_stream.source = engine::PlanSource::ShardStream;
    viterbi_stream.shard_paths = {"x.shard"};
    EXPECT_THROW(engine::validatePlan(viterbi_stream),
                 std::invalid_argument);

    // Unregistered ids are caught before any engine work.
    engine::EvalPlan bad_format;
    bad_format.format_id = "binary63";
    EXPECT_THROW(engine::validatePlan(bad_format),
                 std::invalid_argument);
    engine::EvalPlan bad_ladder = fullPlan();
    bad_ladder.ladder_ids = {"binary64", "no_such_format"};
    EXPECT_THROW(engine::validatePlan(bad_ladder),
                 std::invalid_argument);

    // Adaptive certification needs at least one criterion, and the
    // tolerance must be a finite negative log2.
    engine::EvalPlan no_cert = fullPlan();
    no_cert.cert = engine::CertConfig{};
    EXPECT_THROW(engine::validatePlan(no_cert),
                 std::invalid_argument);
    engine::EvalPlan bad_tol = fullPlan();
    bad_tol.cert.tol_rel_log2 = 3.0;
    EXPECT_THROW(engine::validatePlan(bad_tol),
                 std::invalid_argument);

    // Streams need room for at least one in-flight shard.
    engine::EvalPlan no_queue = fullPlan();
    no_queue.queue_capacity = 0;
    EXPECT_THROW(engine::validatePlan(no_queue),
                 std::invalid_argument);
}

TEST(Plan, AdaptivePlansNameTheirTiers)
{
    // An adaptive plan with no tiers has no default to fall back
    // on: the ladder is part of what the plan names.
    for (const auto policy : {engine::PlanPolicy::Adaptive,
                              engine::PlanPolicy::ScreenedAdaptive}) {
        engine::EvalPlan plan = fullPlan();
        plan.policy = policy;
        EXPECT_NO_THROW(engine::validatePlan(plan));
        plan.ladder_ids.clear();
        EXPECT_THROW(engine::validatePlan(plan), std::invalid_argument)
            << engine::planPolicyName(policy);
    }
    EXPECT_EQ(engine::resultFormatLabel(fullPlan()),
              "adaptive:binary32,scaled_dd");
}

TEST(Plan, DescribeNamesTheShape)
{
    const auto text = engine::describePlan(fullPlan());
    EXPECT_NE(text.find("pvalue"), std::string::npos);
    EXPECT_NE(text.find("shard-stream"), std::string::npos);
    EXPECT_NE(text.find("screened-adaptive"), std::string::npos);
    EXPECT_NE(text.find("binary32->scaled_dd"), std::string::npos);
    EXPECT_NE(text.find("sum compensated"), std::string::npos);
    engine::EvalPlan fixed;
    fixed.format_id = "binary64";
    EXPECT_NE(engine::describePlan(fixed).find("sum plain"),
              std::string::npos);
}

// --------------------------------------------- plan-vs-scalar identity

/** Both summation policies a plan can name. */
constexpr engine::SumPolicy kSums[] = {engine::SumPolicy::Plain,
                                       engine::SumPolicy::Compensated};

/** Shared fixture: one small dataset + shards, built once. */
class PlanIdentity : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        pbd::DatasetConfig config;
        config.num_columns = 24;
        config.median_coverage = 80.0;
        config.coverage_sigma = 0.4;
        config.variant_fraction = 0.2;
        config.seed = 4447;
        dataset_ = new std::vector<pbd::Column>(
            pbd::makeDataset(config, "plan").columns);

        shard_paths_ = new std::vector<std::string>;
        for (int s = 0; s < 2; ++s) {
            const std::string path =
                tempPath("plan_identity_" + std::to_string(s) +
                         ".shard");
            const size_t half = dataset_->size() / 2;
            io::writeColumnShard(
                path,
                std::vector<pbd::Column>(
                    dataset_->begin() + (s == 0 ? 0 : half),
                    s == 0 ? dataset_->begin() + half
                           : dataset_->end()));
            shard_paths_->push_back(path);
        }
    }

    static void
    TearDownTestSuite()
    {
        delete dataset_;
        delete shard_paths_;
        dataset_ = nullptr;
        shard_paths_ = nullptr;
    }

    /** The format's scalar per-column p-values of the dataset. */
    static std::vector<engine::EvalResult>
    scalarPValues(const engine::FormatOps &format, engine::SumPolicy sum)
    {
        std::vector<engine::EvalResult> out;
        for (const pbd::Column &column : *dataset_)
            out.push_back(
                format.pbdPValue(column.success_probs, column.k, sum));
        return out;
    }

    static void
    expectSameResults(const std::vector<engine::EvalResult> &got,
                      const std::vector<engine::EvalResult> &want)
    {
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_TRUE(got[i].value == want[i].value) << "slot " << i;
            EXPECT_EQ(got[i].invalid, want[i].invalid) << "slot " << i;
            EXPECT_EQ(got[i].underflow, want[i].underflow)
                << "slot " << i;
        }
    }

    static void
    expectSameScreened(const engine::ScreenedPValueBatch &got,
                       const engine::ScreenedPValueBatch &want)
    {
        expectSameResults(got.results, want.results);
        EXPECT_EQ(got.skipped, want.skipped);
        EXPECT_EQ(got.estimates_log2, want.estimates_log2);
        EXPECT_EQ(got.stats.columns, want.stats.columns);
        EXPECT_EQ(got.stats.skipped, want.stats.skipped);
        EXPECT_EQ(got.stats.evaluated, want.stats.evaluated);
        EXPECT_EQ(got.stats.guard_band_hits,
                  want.stats.guard_band_hits);
    }

    static void
    expectSameEscalations(
        const std::vector<engine::EscalationResult> &got,
        const std::vector<engine::EscalationResult> &want)
    {
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_TRUE(got[i].result.value == want[i].result.value)
                << "slot " << i;
            EXPECT_EQ(got[i].tier, want[i].tier) << "slot " << i;
            EXPECT_EQ(got[i].certified, want[i].certified)
                << "slot " << i;
        }
    }

    static std::vector<pbd::Column> *dataset_;
    static std::vector<std::string> *shard_paths_;
};

std::vector<pbd::Column> *PlanIdentity::dataset_ = nullptr;
std::vector<std::string> *PlanIdentity::shard_paths_ = nullptr;

TEST_F(PlanIdentity, FixedBatchMatchesEveryFormat)
{
    engine::EvalEngine engine(2);
    for (const auto &id :
         engine::FormatRegistry::instance().ids()) {
        const auto &format =
            engine::FormatRegistry::instance().at(id);
        for (const engine::SumPolicy sum : kSums) {
            SCOPED_TRACE(id);
            engine::EvalPlan plan;
            plan.format_id = id;
            plan.sum = sum;
            expectSameResults(
                prop::runMemory(engine, plan, *dataset_).results,
                scalarPValues(format, sum));
        }
    }
}

TEST_F(PlanIdentity, FixedStreamMatchesEveryFormat)
{
    engine::EvalEngine engine(2);
    for (const auto &id :
         engine::FormatRegistry::instance().ids()) {
        const auto &format =
            engine::FormatRegistry::instance().at(id);
        for (const engine::SumPolicy sum : kSums) {
            SCOPED_TRACE(id);
            // No sink: run() accumulates shard batches in stream
            // order, which is the dataset's column order.
            engine::EvalPlan plan;
            plan.source = engine::PlanSource::ShardStream;
            plan.format_id = id;
            plan.sum = sum;
            plan.shard_paths = *shard_paths_;
            expectSameResults(engine.run(plan).results,
                              scalarPValues(format, sum));
        }
    }
}

TEST_F(PlanIdentity, ScreenedBatchAndStreamMatch)
{
    engine::EvalEngine engine(2);
    pbd::ScreenConfig screen;
    screen.guard_band_log2 = 32.0;
    for (const std::string id : {"binary64", "log", "log32"}) {
        const auto &format =
            engine::FormatRegistry::instance().at(id);
        for (const engine::SumPolicy sum : kSums) {
            SCOPED_TRACE(id);
            const auto want =
                prop::scalarScreened(format, *dataset_, screen, sum);

            engine::EvalPlan plan;
            plan.policy = engine::PlanPolicy::Screened;
            plan.format_id = id;
            plan.screen = screen;
            plan.sum = sum;
            expectSameScreened(
                prop::runMemory(engine, plan, *dataset_).screened,
                want);

            // Streamed, via the plan's own shard paths: the shard
            // batches merge back into the whole dataset's batch.
            engine::EvalPlan stream_plan = plan;
            stream_plan.source = engine::PlanSource::ShardStream;
            stream_plan.shard_paths = *shard_paths_;
            expectSameScreened(engine.run(stream_plan).screened, want);
        }
    }
}

TEST_F(PlanIdentity, AdaptiveBatchAndStreamMatch)
{
    // Adaptive results have no scalar per-item counterpart (the
    // ladder decides per column); their soundness is audited against
    // the BigFloat oracle in test_escalate.cc. Here the memory and
    // shard-stream sources must agree slot for slot.
    engine::EvalEngine engine(2);
    engine::CertConfig cert;
    cert.threshold_log2 = -60.0;

    // Every registered format as its own single-tier ladder, plus
    // the default multi-tier ladder.
    std::vector<std::vector<std::string>> ladders;
    for (const auto &id : engine::FormatRegistry::instance().ids())
        ladders.push_back({id});
    ladders.push_back(prop::defaultLadderIds());
    for (const auto &ids : ladders) {
        engine::EvalPlan plan;
        plan.policy = engine::PlanPolicy::Adaptive;
        plan.ladder_ids = ids;
        plan.cert = cert;
        const auto memory =
            prop::runMemory(engine, plan, *dataset_).adaptive;
        ASSERT_EQ(memory.results.size(), dataset_->size());

        engine::EvalPlan stream_plan = plan;
        stream_plan.source = engine::PlanSource::ShardStream;
        stream_plan.shard_paths = *shard_paths_;
        const auto streamed = engine.run(stream_plan).adaptive;
        expectSameEscalations(streamed.results, memory.results);
        EXPECT_EQ(streamed.certified, memory.certified);
        EXPECT_EQ(streamed.uncertified, memory.uncertified);
    }
}

TEST_F(PlanIdentity, HmmKernelsMatchLegacyBatches)
{
    // Each HMM kernel plan against the serial per-job FormatOps calls
    // the pre-plan batch entry points looped over.
    stats::Rng rng(9109);
    hmm::PhyloConfig phylo;
    const hmm::Model model = hmm::makePhyloModel(rng, phylo);
    std::vector<std::vector<int>> obs;
    for (int i = 0; i < 6; ++i)
        obs.push_back(hmm::sampleObservations(rng, model, 40));
    std::vector<engine::ForwardJob> jobs;
    for (const auto &seq : obs)
        jobs.push_back({&model, seq});

    engine::EvalEngine engine(2);
    for (const std::string id : {"binary64", "log", "log32"}) {
        SCOPED_TRACE(id);
        const auto &format =
            engine::FormatRegistry::instance().at(id);
        const auto dataflow = engine::Dataflow::Accelerator;

        engine::EvalPlan forward;
        forward.kernel = engine::PlanKernel::Forward;
        forward.format_id = id;
        engine::EvalPlan backward = forward;
        backward.kernel = engine::PlanKernel::Backward;
        std::vector<engine::EvalResult> want_fwd;
        std::vector<engine::EvalResult> want_bwd;
        for (const auto &job : jobs) {
            want_fwd.push_back(
                format.hmmForward(*job.model, job.obs, dataflow));
            want_bwd.push_back(
                format.hmmBackward(*job.model, job.obs, dataflow));
        }
        expectSameResults(
            prop::runMemory(engine, forward, jobs).results, want_fwd);
        expectSameResults(
            prop::runMemory(engine, backward, jobs).results, want_bwd);

        engine::EvalPlan posterior = forward;
        posterior.kernel = engine::PlanKernel::Posterior;
        posterior.renormalize = true;
        const auto got_post =
            prop::runMemory(engine, posterior, jobs).posteriors;
        ASSERT_EQ(got_post.size(), jobs.size());
        for (size_t j = 0; j < jobs.size(); ++j) {
            const auto want = format.hmmPosterior(
                *jobs[j].model, jobs[j].obs, dataflow, true);
            expectSameResults(got_post[j].gamma, want.gamma);
            EXPECT_TRUE(got_post[j].likelihood.value ==
                        want.likelihood.value);
        }

        engine::EvalPlan viterbi = forward;
        viterbi.kernel = engine::PlanKernel::Viterbi;
        const auto got_vit =
            prop::runMemory(engine, viterbi, jobs).decodes;
        ASSERT_EQ(got_vit.size(), jobs.size());
        for (size_t j = 0; j < jobs.size(); ++j) {
            const auto want =
                format.hmmViterbi(*jobs[j].model, jobs[j].obs);
            EXPECT_EQ(got_vit[j].path, want.path);
            EXPECT_TRUE(got_vit[j].probability.value ==
                        want.probability.value);
        }
    }
}

TEST_F(PlanIdentity, RunRejectsMissingBindings)
{
    engine::EvalEngine engine(1);

    // A forward stream plan without a bound model cannot run.
    engine::EvalPlan forward_stream;
    forward_stream.kernel = engine::PlanKernel::Forward;
    forward_stream.source = engine::PlanSource::ShardStream;
    forward_stream.format_id = "binary64";
    forward_stream.shard_paths = *shard_paths_;
    EXPECT_THROW(engine.run(forward_stream), std::invalid_argument);

    // A stream plan with neither paths nor a bound stream.
    engine::EvalPlan pathless;
    pathless.source = engine::PlanSource::ShardStream;
    pathless.format_id = "binary64";
    EXPECT_THROW(engine.run(pathless), std::invalid_argument);

    // An invalid plan never reaches the kernels.
    engine::EvalPlan invalid;
    invalid.format_id = "no_such_format";
    EXPECT_THROW(engine.run(invalid), std::invalid_argument);
}

} // namespace
