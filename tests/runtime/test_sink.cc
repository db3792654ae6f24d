// Sink layer contracts: accumulation parity, the two routes a run
// delivers through (a bound sink instead of the accumulated PlanRun;
// a result_sink fed after either, alone or beside a bound sink), the
// lossless result-shard round trip for every registered format (the
// file-sink acceptance criterion), and writer/reader rejection of
// malformed result records.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/escalate.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "engine/result_sink.hh"
#include "hmm/generator.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "serve/frame.hh"
#include "serve/routing_sink.hh"
#include "../prop_util.hh"
#include "../shard_fixture.hh"
#include "../test_tmp.hh"

namespace
{

using namespace pstat;
using namespace pstat::engine;
using pstat::test::tempPath;

std::vector<pbd::Column>
makeColumns(int n, uint64_t seed)
{
    pbd::DatasetConfig config;
    config.num_columns = n;
    config.median_coverage = 55.0;
    config.coverage_sigma = 0.4;
    config.variant_fraction = 0.2;
    config.seed = seed;
    return pbd::makeDataset(config, "sink").columns;
}

/** Exact equality of two evaluation results (value bits + flags). */
void
expectSameResult(const EvalResult &got, const EvalResult &want,
                 const std::string &label)
{
    // NaN never compares equal to itself; its kind bit is the
    // round-trip contract there.
    if (!want.value.isNaN()) {
        EXPECT_TRUE(got.value == want.value) << label;
    }
    EXPECT_EQ(got.value.isZero(), want.value.isZero()) << label;
    EXPECT_EQ(got.value.isNaN(), want.value.isNaN()) << label;
    EXPECT_EQ(got.invalid, want.invalid) << label;
    EXPECT_EQ(got.underflow, want.underflow) << label;
}

TEST(ResultSink, AccumulateConcatenatesBlocksInOrder)
{
    PlanRun run;
    AccumulateSink sink(run);
    WorkBlock block;
    std::vector<EvalResult> first(2), second(3);
    first[0].value = BigFloat::twoPow(-4);
    first[1].value = BigFloat::twoPow(-8);
    second[0].value = BigFloat::twoPow(-16);
    second[1].invalid = true;
    second[2].underflow = true;
    block.items = first.size();
    sink.consumeResults(block, first);
    block.index = 1;
    block.items = second.size();
    sink.consumeResults(block, second);
    sink.finish();
    ASSERT_EQ(run.results.size(), 5u);
    expectSameResult(run.results[0], first[0], "slot 0");
    expectSameResult(run.results[2], second[0], "slot 2");
    EXPECT_TRUE(run.results[3].invalid);
    EXPECT_TRUE(run.results[4].underflow);
}

TEST(ResultSink, BaseSinkRejectsUnimplementedChannels)
{
    PlanRun run;
    AccumulateSink accumulate(run);
    // ShardFileSink has no posterior channel; the base must throw
    // rather than drop the delivery.
    const std::string path = tempPath("sink-nochannel.shard");
    ShardFileSink sink(path, PlanKernel::PValue, "binary64");
    WorkBlock block;
    std::vector<PosteriorResult> posteriors(1);
    EXPECT_THROW(sink.consumePosteriors(block, posteriors),
                 std::logic_error);
}

TEST(ResultSink, RecordEncodingRoundTripsEveryValueKind)
{
    std::vector<EvalResult> samples(4);
    samples[0].value = BigFloat::twoPow(-1234);
    samples[1].value = BigFloat::zero();
    samples[1].underflow = true;
    samples[2].value = BigFloat::nan();
    samples[2].invalid = true;
    samples[3].value =
        BigFloat::twoPow(7) - BigFloat::twoPow(-300); // long mantissa
    for (size_t i = 0; i < samples.size(); ++i) {
        const io::ShardResultRecord record =
            encodeResultRecord(samples[i]);
        const EvalResult back = decodeResultValue(record);
        expectSameResult(back, samples[i],
                         "sample " + std::to_string(i));
    }
    // Negative values keep their sign bit.
    EvalResult negative;
    negative.value = BigFloat::zero() - BigFloat::twoPow(-9);
    ASSERT_TRUE(negative.value.isNegative());
    const EvalResult back =
        decodeResultValue(encodeResultRecord(negative));
    EXPECT_TRUE(back.value == negative.value);
    EXPECT_TRUE(back.value.isNegative());
}

// The acceptance criterion: for every registered format, the shard
// written by the file sink reads back values bit-identical to what
// the accumulate sink observed.
TEST(ResultSink, FileSinkRoundTripsEveryRegisteredFormat)
{
    const auto columns = makeColumns(24, 2026);
    EvalEngine engine(4);
    for (const FormatOps *format :
         FormatRegistry::instance().all()) {
        EvalPlan plan;
        plan.format_id = format->id();
        const auto want = prop::runMemory(engine, plan, columns).results;

        const std::string path =
            tempPath("sink-rt-" + format->id() + ".shard");
        ShardFileSink sink(path, PlanKernel::PValue, format->id());
        WorkBlock block;
        block.items = want.size();
        sink.consumeResults(block, want);
        sink.finish();
        EXPECT_EQ(sink.written(), want.size());

        const ResultShardData data = readResultShard(path);
        EXPECT_EQ(data.kernel, PlanKernel::PValue) << format->id();
        EXPECT_EQ(data.format_id, format->id());
        ASSERT_EQ(data.results.size(), want.size()) << format->id();
        for (size_t i = 0; i < want.size(); ++i)
            expectSameResult(data.results[i], want[i],
                             format->id() + " record " +
                                 std::to_string(i));
    }
}

TEST(ResultSink, FileSinkPersistsScreenedMasks)
{
    const auto columns = makeColumns(30, 555);
    EvalEngine engine(2);
    EvalPlan plan;
    plan.policy = PlanPolicy::Screened;
    plan.format_id = "log";
    plan.screen.guard_band_log2 = 16.0;
    const auto batch = prop::runMemory(engine, plan, columns).screened;

    const std::string path = tempPath("sink-screened.shard");
    ShardFileSink sink(path, PlanKernel::PValue, plan.format_id);
    WorkBlock block;
    block.items = batch.results.size();
    sink.consumeScreened(block, batch);
    sink.finish();

    const ResultShardData data = readResultShard(path);
    ASSERT_EQ(data.results.size(), batch.results.size());
    ASSERT_EQ(data.skipped.size(), batch.skipped.size());
    EXPECT_EQ(data.skipped, batch.skipped);
    for (size_t i = 0; i < batch.results.size(); ++i)
        expectSameResult(data.results[i], batch.results[i],
                         "screened record " + std::to_string(i));
}

TEST(ResultSink, FileSinkPersistsAdaptiveCertification)
{
    const auto columns = makeColumns(16, 777);
    EvalEngine engine(2);
    EvalPlan plan;
    plan.policy = PlanPolicy::Adaptive;
    plan.ladder_ids = prop::defaultLadderIds();
    plan.cert.tol_rel_log2 = -20.0;
    const auto batch = prop::runMemory(engine, plan, columns).adaptive;

    const std::string path = tempPath("sink-adaptive.shard");
    ShardFileSink sink(path, PlanKernel::PValue, "adaptive");
    WorkBlock block;
    block.items = batch.results.size();
    sink.consumeAdaptive(block, batch);
    sink.finish();

    const ResultShardData data = readResultShard(path);
    ASSERT_EQ(data.results.size(), batch.results.size());
    ASSERT_EQ(data.certified.size(), batch.results.size());
    for (size_t i = 0; i < batch.results.size(); ++i) {
        EXPECT_EQ(data.certified[i] != 0, batch.results[i].certified)
            << "record " << i;
        expectSameResult(data.results[i], batch.results[i].result,
                         "adaptive record " + std::to_string(i));
    }
}

TEST(ResultSink, FileSinkRoundTripsViterbiDecodes)
{
    stats::Rng rng(31);
    const hmm::Model model = hmm::makeDirichletModel(rng, 4, 5);
    std::vector<std::vector<int>> sequences;
    std::vector<ForwardJob> jobs;
    for (int i = 0; i < 5; ++i)
        sequences.push_back(
            hmm::sampleObservations(rng, model, 12 + 2 * i));
    for (const auto &seq : sequences)
        jobs.push_back({&model, seq});

    EvalEngine engine(2);
    EvalPlan plan;
    plan.kernel = PlanKernel::Viterbi;
    plan.format_id = "log";
    const auto want = prop::runMemory(engine, plan, jobs).decodes;

    const std::string path = tempPath("sink-viterbi.shard");
    ShardFileSink sink(path, PlanKernel::Viterbi, plan.format_id);
    WorkBlock block;
    block.items = want.size();
    sink.consumeDecodes(block, want);
    sink.finish();

    const ResultShardData data = readResultShard(path);
    EXPECT_EQ(data.kernel, PlanKernel::Viterbi);
    EXPECT_TRUE(data.results.empty());
    ASSERT_EQ(data.decodes.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(data.decodes[i].path, want[i].path) << i;
        EXPECT_EQ(data.decodes[i].first_underflow_step,
                  want[i].first_underflow_step);
        expectSameResult(data.decodes[i].probability,
                         want[i].probability,
                         "decode " + std::to_string(i));
    }
}

TEST(ResultSink, RunTeesTheBoundResultSinkIntoThePlan)
{
    const auto columns = makeColumns(12, 909);
    EvalEngine engine(2);
    EvalPlan plan;
    plan.kernel = PlanKernel::PValue;
    plan.source = PlanSource::Memory;
    plan.policy = PlanPolicy::Fixed;
    plan.format_id = "binary64";

    const std::string path = tempPath("sink-run-tee.shard");
    ShardFileSink file(path, plan.kernel, plan.format_id);
    PlanInputs inputs;
    inputs.columns = columns;
    inputs.result_sink = &file;
    const PlanRun run = engine.run(plan, inputs);

    const ResultShardData data = readResultShard(path);
    ASSERT_EQ(data.results.size(), run.results.size());
    for (size_t i = 0; i < run.results.size(); ++i)
        expectSameResult(data.results[i], run.results[i],
                         "teed record " + std::to_string(i));
}

// A zero-record run must still leave a structurally valid, readable
// result shard behind — header, meta block, and trailer with a
// consistent CRC over zero records — for every sink channel. The
// serve daemon forwards empty requests through exactly this path.
TEST(ResultSink, FileSinkWritesReadableZeroRecordShards)
{
    EvalEngine engine(2);

    struct Case
    {
        const char *name;
        PlanPolicy policy;
    };
    for (const Case &kind :
         {Case{"fixed", PlanPolicy::Fixed},
          Case{"screened", PlanPolicy::Screened},
          Case{"adaptive", PlanPolicy::Adaptive}}) {
        EvalPlan plan;
        plan.kernel = PlanKernel::PValue;
        plan.source = PlanSource::Memory;
        plan.policy = kind.policy;
        plan.format_id = "binary64";
        if (kind.policy == PlanPolicy::Adaptive) {
            plan.cert = defaultPValueCert();
            plan.ladder_ids = prop::defaultLadderIds();
        }

        const std::string path =
            tempPath(std::string("sink-empty-") + kind.name +
                     ".shard");
        ShardFileSink file(path, plan.kernel,
                           resultFormatLabel(plan));
        PlanInputs inputs;
        inputs.columns = {}; // the zero-record run
        inputs.result_sink = &file;
        const PlanRun run = engine.run(plan, inputs);
        EXPECT_TRUE(run.results.empty()) << kind.name;
        EXPECT_EQ(file.written(), 0u) << kind.name;

        const ResultShardData data = readResultShard(path);
        EXPECT_EQ(data.kernel, PlanKernel::PValue) << kind.name;
        EXPECT_EQ(data.format_id, resultFormatLabel(plan))
            << kind.name;
        EXPECT_TRUE(data.results.empty()) << kind.name;
        EXPECT_TRUE(data.skipped.empty()) << kind.name;
        EXPECT_TRUE(data.certified.empty()) << kind.name;
    }
}

/** Records every delivery of a run: block order, sizes, values. */
struct RecordingSink final : ResultSink
{
    std::vector<size_t> indices;
    std::vector<size_t> items;
    std::vector<EvalResult> results;
    int finishes = 0;

    void
    consumeResults(const WorkBlock &block,
                   std::span<const EvalResult> delivered) override
    {
        indices.push_back(block.index);
        items.push_back(block.items);
        results.insert(results.end(), delivered.begin(),
                       delivered.end());
    }

    void
    consumeAdaptive(const WorkBlock &block,
                    const AdaptiveBatch &batch) override
    {
        indices.push_back(block.index);
        items.push_back(block.items);
        for (const EscalationResult &r : batch.results)
            results.push_back(r.result);
    }

    void finish() override { ++finishes; }
};

/** A Fixed binary64 stream over zero-record and 7-column shards. */
EvalPlan
mixedShardPlan()
{
    const std::string empty_shard = tempPath("sink-empty-cols.shard");
    io::writeColumnShard(empty_shard, std::vector<pbd::Column>{});
    const std::string full_shard = tempPath("sink-full-cols.shard");
    io::writeColumnShard(full_shard, makeColumns(7, 4141));
    EvalPlan plan;
    plan.source = PlanSource::ShardStream;
    plan.format_id = "binary64";
    plan.shard_paths = {empty_shard, full_shard, empty_shard,
                        full_shard};
    return plan;
}

// The primary route and the CLI's O(shard) contract: a bound
// PlanInputs::sink receives every block in stream order (zero-record
// shards included) and one finish(), while the returned PlanRun
// accumulates nothing.
TEST(ResultSink, BoundSinkTakesEveryBlockAndRunAccumulatesNothing)
{
    EvalEngine engine(2);
    const EvalPlan plan = mixedShardPlan();

    RecordingSink sink;
    PlanInputs inputs;
    inputs.sink = &sink;
    const PlanRun run = engine.run(plan, inputs);
    EXPECT_EQ(sink.indices, (std::vector<size_t>{0, 1, 2, 3}));
    EXPECT_EQ(sink.items, (std::vector<size_t>{0, 7, 0, 7}));
    EXPECT_EQ(sink.finishes, 1);
    EXPECT_TRUE(run.results.empty());
    EXPECT_EQ(run.stream.shards, 4u);
    EXPECT_EQ(run.stream.items, 14u);

    // The sink took exactly what accumulation returns.
    const PlanRun accumulated = engine.run(plan);
    ASSERT_EQ(sink.results.size(), accumulated.results.size());
    for (size_t i = 0; i < sink.results.size(); ++i)
        expectSameResult(sink.results[i], accumulated.results[i],
                         "delivered record " + std::to_string(i));
}

// Both routes at once, as `pstat eval -o` binds them: the bound sink
// and the result_sink each see every block in stream order with the
// same results, and one finish() each, while the returned PlanRun
// accumulates nothing.
TEST(ResultSink, RunFeedsTheBoundSinkAndTheResultSink)
{
    EvalEngine engine(2);
    const EvalPlan plan = mixedShardPlan();

    RecordingSink primary;
    RecordingSink extra;
    PlanInputs inputs;
    inputs.sink = &primary;
    inputs.result_sink = &extra;
    const PlanRun run = engine.run(plan, inputs);
    for (const RecordingSink *sink : {&primary, &extra}) {
        EXPECT_EQ(sink->indices, (std::vector<size_t>{0, 1, 2, 3}));
        EXPECT_EQ(sink->items, (std::vector<size_t>{0, 7, 0, 7}));
        EXPECT_EQ(sink->finishes, 1);
    }
    EXPECT_TRUE(run.results.empty());
    EXPECT_EQ(run.stream.shards, 4u);
    EXPECT_EQ(run.stream.items, 14u);

    const PlanRun accumulated = engine.run(plan);
    ASSERT_EQ(primary.results.size(), accumulated.results.size());
    ASSERT_EQ(extra.results.size(), accumulated.results.size());
    for (size_t i = 0; i < accumulated.results.size(); ++i) {
        expectSameResult(primary.results[i], accumulated.results[i],
                         "primary record " + std::to_string(i));
        expectSameResult(extra.results[i], accumulated.results[i],
                         "result_sink record " + std::to_string(i));
    }
}

// A result_sink bound on its own rides on top of accumulation: the
// PlanRun is the one a run with neither sink bound returns (the
// benchmark checks a streamed run's PlanRun while persisting it).
TEST(ResultSink, ResultSinkAloneLeavesThePlanRunUnchanged)
{
    EvalEngine engine(2);
    const EvalPlan fixed = mixedShardPlan();
    EvalPlan adaptive;
    adaptive.policy = PlanPolicy::Adaptive;
    adaptive.ladder_ids = prop::defaultLadderIds();
    adaptive.cert = defaultPValueCert();
    const auto columns = makeColumns(20, 5151);

    for (const EvalPlan &plan : {fixed, adaptive}) {
        SCOPED_TRACE(planPolicyName(plan.policy));
        PlanInputs inputs;
        inputs.columns = columns;
        const PlanRun bare = engine.run(plan, inputs);
        RecordingSink tee;
        inputs.result_sink = &tee;
        const PlanRun teed = engine.run(plan, inputs);

        EXPECT_EQ(tee.finishes, 1);
        EXPECT_EQ(teed.stream.shards, bare.stream.shards);
        EXPECT_EQ(teed.stream.items, bare.stream.items);
        ASSERT_EQ(teed.results.size(), bare.results.size());
        for (size_t i = 0; i < bare.results.size(); ++i)
            expectSameResult(teed.results[i], bare.results[i],
                             "fixed record " + std::to_string(i));
        ASSERT_EQ(teed.adaptive.results.size(),
                  bare.adaptive.results.size());
        for (size_t i = 0; i < bare.adaptive.results.size(); ++i) {
            expectSameResult(teed.adaptive.results[i].result,
                             bare.adaptive.results[i].result,
                             "adaptive record " + std::to_string(i));
            EXPECT_EQ(teed.adaptive.results[i].tier,
                      bare.adaptive.results[i].tier);
            EXPECT_EQ(teed.adaptive.results[i].certified,
                      bare.adaptive.results[i].certified);
        }
        EXPECT_EQ(teed.adaptive.certified, bare.adaptive.certified);
        EXPECT_EQ(tee.results.size(),
                  bare.results.size() + bare.adaptive.results.size());
    }
}

// Wire and disk agree at the codec level: the record section of a
// response body built from RoutingSink's records is byte for byte the
// record payload of the result shard ShardFileSink writes from the
// same deliveries. Every value kind, odd, even and empty paths, and
// the skipped and certified bits.
TEST(ResultSink, ResponseRecordsAreTheResultShardPayload)
{
    std::vector<ViterbiResult> decodes(5);
    decodes[0].probability.value = BigFloat::twoPow(-1234);
    decodes[1].probability.value = BigFloat::zero() - BigFloat::twoPow(-9);
    decodes[1].path = {2};
    decodes[2].probability.value = BigFloat::zero();
    decodes[2].probability.underflow = true;
    decodes[2].path = {0, 1};
    decodes[3].probability.value = BigFloat::nan();
    decodes[3].probability.invalid = true;
    decodes[3].path = {1, 0, 2};
    decodes[4].probability.value =
        BigFloat::twoPow(7) - BigFloat::twoPow(-300); // long mantissa
    decodes[4].path = {3, 3, 1, 0};
    decodes[4].first_underflow_step = 2;
    ScreenedPValueBatch screened;
    screened.results = {decodes[0].probability, decodes[4].probability};
    screened.skipped = {1, 0};
    AdaptiveBatch adaptive;
    adaptive.results.resize(3);
    adaptive.results[0].result = decodes[1].probability;
    adaptive.results[0].certified = true;
    adaptive.results[1].result = decodes[2].probability;
    adaptive.results[2].result = decodes[3].probability;
    adaptive.results[2].certified = true;
    adaptive.skipped = {0, 1, 0};

    const std::string path = tempPath("sink-wire-disk.shard");
    const std::string label = "log";
    ShardFileSink file(path, PlanKernel::Viterbi, label);
    serve::RoutingSink routing;
    const WorkBlock block;
    for (ResultSink *sink : {static_cast<ResultSink *>(&file),
                             static_cast<ResultSink *>(&routing)}) {
        sink->consumeDecodes(block, decodes);
        sink->consumeScreened(block, screened);
        sink->consumeAdaptive(block, adaptive);
        sink->consumeResults(block, screened.results);
    }
    file.finish();

    serve::ServeResponse response;
    response.message = "ok";
    response.kernel = static_cast<uint32_t>(PlanKernel::Viterbi);
    response.format_id = label;
    response.records = routing.records();
    ASSERT_EQ(response.records.size(), 12u);
    const auto body = serve::encodeResponseBody(response);

    std::ifstream in(path, std::ios::binary);
    const std::string shard{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    const auto round8 = [](size_t n) { return (n + 7) & ~size_t{7}; };
    // Both sections follow an 8-aligned prefix: the response's id,
    // status, message, kernel, label and count; the shard's header
    // and meta block (kernel, label).
    const size_t wire_at = round8(16 + response.message.size()) +
                           round8(8 + label.size()) + 8;
    const size_t disk_at =
        sizeof(io::ShardHeader) + round8(8 + label.size());
    ASSERT_LE(wire_at, body.size());
    ASSERT_LE(disk_at + io::shard_trailer_bytes, shard.size());
    const std::string wire(body.begin() + static_cast<ptrdiff_t>(wire_at),
                           body.end());
    const std::string disk(
        shard.begin() + static_cast<ptrdiff_t>(disk_at),
        shard.end() - static_cast<ptrdiff_t>(io::shard_trailer_bytes));
    EXPECT_EQ(wire.size(), disk.size());
    EXPECT_TRUE(wire == disk);
}

TEST(ResultSink, WriterRejectsMalformedRecords)
{
    // Unknown flag bits.
    {
        io::ShardWriter writer(tempPath("sink-badflags.shard"), 1,
                               "binary64");
        io::ShardResultRecord record;
        record.flags = io::result_flag_zero | (1u << 9);
        EXPECT_THROW(writer.addResult(record), std::logic_error);
    }
    // A finite value whose mantissa is not normalized.
    {
        io::ShardWriter writer(tempPath("sink-denorm.shard"), 1,
                               "binary64");
        io::ShardResultRecord record;
        record.exp = 1;
        record.limbs = {1, 0, 0, 0}; // top bit of limbs[3] clear
        EXPECT_THROW(writer.addResult(record), std::logic_error);
    }
    // A zero-flagged record with nonzero exponent.
    {
        io::ShardWriter writer(tempPath("sink-badzero.shard"), 1,
                               "binary64");
        io::ShardResultRecord record;
        record.flags = io::result_flag_zero;
        record.exp = 5;
        EXPECT_THROW(writer.addResult(record), std::logic_error);
    }
}

TEST(ResultSink, ReaderRejectsForeignKernelTagsAndPayloads)
{
    // A structurally valid Results shard whose kernel tag is not a
    // PlanKernel value must be rejected by the engine-level reader.
    const std::string bad_kernel = tempPath("sink-badkernel.shard");
    {
        io::ShardWriter writer(bad_kernel, 99, "binary64");
        EvalResult one;
        one.value = BigFloat::twoPow(-3);
        writer.addResult(encodeResultRecord(one));
        writer.close();
    }
    EXPECT_THROW(readResultShard(bad_kernel), io::ShardError);

    // A Columns shard is not a result shard at all.
    const std::string columns_path = tempPath("sink-columns.shard");
    io::writeColumnShard(columns_path, makeColumns(3, 1));
    EXPECT_THROW(readResultShard(columns_path), io::ShardError);
}

} // namespace
