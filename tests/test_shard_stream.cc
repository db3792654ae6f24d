/**
 * @file
 * Shard-pipeline tests: BoundedQueue bounds and shutdown, ShardStream
 * ordering / error surfacing / early-drop shutdown, and the engine's
 * shard-stream plans (fixed and screened p-values, HMM forward)
 * against the scalar per-item FormatOps calls on the same records —
 * bit-identical per registered format, as the streaming contract
 * demands.
 */

#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
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

/** Write `count` small column shards; returns their paths. */
std::vector<std::string>
writeColumnShards(const std::string &stem, int count,
                  int columns_per_shard)
{
    std::vector<std::string> paths;
    for (int s = 0; s < count; ++s) {
        pbd::DatasetConfig config;
        config.num_columns = columns_per_shard;
        config.median_coverage = 60.0;
        config.coverage_sigma = 0.4;
        config.variant_fraction = 0.15;
        config.seed = 977ULL + 13ULL * s;
        const auto dataset = pbd::makeDataset(
            config, stem + std::to_string(s));
        const std::string path =
            tempPath(stem + std::to_string(s) + ".shard");
        io::writeColumnShard(path, dataset.columns);
        paths.push_back(path);
    }
    return paths;
}

/** Concatenation of every shard's columns, in stream order. */
std::vector<pbd::Column>
materializeAll(const std::vector<std::string> &paths)
{
    std::vector<pbd::Column> columns;
    for (const auto &path : paths) {
        auto shard = io::readColumnShard(path);
        for (auto &column : shard)
            columns.push_back(std::move(column));
    }
    return columns;
}

TEST(ShardStream, BoundedQueuePushPopAndClose)
{
    io::BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.push(1));
    EXPECT_TRUE(queue.push(2));
    EXPECT_EQ(queue.peakDepth(), 2u);
    EXPECT_EQ(queue.pop(), std::optional<int>(1));
    queue.close();
    EXPECT_FALSE(queue.push(3)); // refused after close
    EXPECT_EQ(queue.pop(), std::optional<int>(2)); // drains
    EXPECT_EQ(queue.pop(), std::nullopt);          // exhausted
}

TEST(ShardStream, BoundedQueueBlocksProducerAtCapacity)
{
    io::BoundedQueue<int> queue(1);
    EXPECT_TRUE(queue.push(1));
    std::thread producer([&] { EXPECT_TRUE(queue.push(2)); });
    // The producer is parked on the full queue until we pop.
    EXPECT_EQ(queue.pop(), std::optional<int>(1));
    EXPECT_EQ(queue.pop(), std::optional<int>(2));
    producer.join();
    EXPECT_EQ(queue.peakDepth(), 1u);
}

TEST(ShardStream, BoundedQueueClampsCapacityZeroToOne)
{
    // Capacity 0 would deadlock producer and consumer forever; the
    // queue clamps it to the smallest functional bound instead.
    io::BoundedQueue<int> queue(0);
    EXPECT_EQ(queue.capacity(), 1u);
    EXPECT_TRUE(queue.push(1));
    EXPECT_EQ(queue.pop(), std::optional<int>(1));
}

TEST(ShardStream, BoundedQueueCloseWakesABlockedConsumer)
{
    io::BoundedQueue<int> queue(1);
    std::thread consumer([&] {
        // Blocks on the empty queue until close() wakes it; a
        // closed-and-drained queue pops nullopt, not a value.
        EXPECT_EQ(queue.pop(), std::nullopt);
    });
    queue.close();
    consumer.join();
}

TEST(ShardStream, BoundedQueueCloseWakesABlockedProducer)
{
    io::BoundedQueue<int> queue(1);
    EXPECT_TRUE(queue.push(1)); // fill to capacity
    std::thread producer([&] {
        // Parked on the full queue; close() must refuse the push
        // (returning false) rather than leave it blocked forever.
        EXPECT_FALSE(queue.push(2));
    });
    queue.close();
    producer.join();
    EXPECT_EQ(queue.pop(), std::optional<int>(1)); // drains
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(ShardStream, CapacityOneStillDeliversEveryShardInOrder)
{
    // The tightest legal bound: the producer parks after every
    // shard, so each pop alternates with exactly one load.
    const auto paths = writeColumnShards("cap1", 5, 4);
    io::ShardStreamConfig config;
    config.queue_capacity = 1;
    io::ShardStream stream(paths, config);
    size_t seen = 0;
    while (auto shard = stream.next()) {
        EXPECT_EQ(shard->path(), paths[seen]);
        ++seen;
    }
    EXPECT_EQ(seen, paths.size());
    EXPECT_EQ(stream.peakQueueDepth(), 1u);
}

TEST(ShardStream, ProducerErrorWhileParkedOnAFullQueue)
{
    // The producer hits the missing file while the consumer still
    // holds the queue full: the whole valid prefix must arrive in
    // order first, and only then the error.
    auto paths = writeColumnShards("fullerr", 2, 4);
    paths.push_back(tempPath("fullerr-missing.shard"));

    io::ShardStreamConfig config;
    config.queue_capacity = 1;
    io::ShardStream stream(paths, config);
    for (size_t i = 0; i < 2; ++i) {
        auto shard = stream.next();
        ASSERT_TRUE(shard.has_value());
        EXPECT_EQ(shard->path(), paths[i]);
    }
    EXPECT_THROW(stream.next(), io::ShardError);
}

TEST(ShardStream, DroppingAnErroredStreamJoinsTheProducer)
{
    // Error surfaced, consumer walks away: the destructor must still
    // join cleanly (no rethrow, no deadlock on the dead producer).
    auto paths = writeColumnShards("errdrop", 1, 4);
    paths.push_back(tempPath("errdrop-missing.shard"));
    io::ShardStream stream(paths);
    ASSERT_TRUE(stream.next().has_value());
    EXPECT_THROW(stream.next(), io::ShardError);
}

TEST(ShardStream, DeliversEveryShardInPathOrder)
{
    const auto paths = writeColumnShards("order", 5, 8);
    io::ShardStreamConfig config;
    config.queue_capacity = 2;
    io::ShardStream stream(paths, config);
    EXPECT_EQ(stream.shardCount(), paths.size());

    size_t seen = 0;
    while (auto shard = stream.next()) {
        EXPECT_EQ(shard->path(), paths[seen]);
        EXPECT_EQ(shard->size(), 8u);
        ++seen;
    }
    EXPECT_EQ(seen, paths.size());
    EXPECT_EQ(stream.next(), std::nullopt); // stays exhausted
    EXPECT_LE(stream.peakQueueDepth(), config.queue_capacity);
}

TEST(ShardStream, MissingFileSurfacesAfterTheValidPrefix)
{
    auto paths = writeColumnShards("errprefix", 2, 6);
    paths.push_back(tempPath("errprefix-missing.shard"));

    io::ShardStream stream(paths);
    EXPECT_TRUE(stream.next().has_value());
    EXPECT_TRUE(stream.next().has_value());
    EXPECT_THROW(stream.next(), io::ShardError);
}

TEST(ShardStream, DroppingTheStreamEarlyJoinsTheProducer)
{
    const auto paths = writeColumnShards("earlydrop", 6, 6);
    io::ShardStreamConfig config;
    config.queue_capacity = 1; // producer will park on the bound
    io::ShardStream stream(paths, config);
    ASSERT_TRUE(stream.next().has_value());
    // Destructor must cancel the queue and join without deadlock.
}

/** A Fixed pvalue shard-stream plan of one format over `paths`. */
engine::EvalPlan
streamPlan(const std::string &format_id,
           const std::vector<std::string> &paths)
{
    engine::EvalPlan plan;
    plan.source = engine::PlanSource::ShardStream;
    plan.format_id = format_id;
    plan.shard_paths = paths;
    return plan;
}

void
expectSameResults(const std::vector<engine::EvalResult> &got,
                  const std::vector<engine::EvalResult> &want,
                  const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(got[i].value == want[i].value)
            << what << " item " << i;
        EXPECT_EQ(got[i].invalid, want[i].invalid) << what;
        EXPECT_EQ(got[i].underflow, want[i].underflow) << what;
    }
}

TEST(EvalEngineStream, PValueStreamBitMatchesBatchEveryFormat)
{
    const auto paths = writeColumnShards("pvstream", 3, 10);
    const auto columns = materializeAll(paths);
    engine::EvalEngine engine(4);

    for (const auto *format :
         engine::FormatRegistry::instance().all()) {
        std::vector<engine::EvalResult> want;
        for (const pbd::Column &column : columns)
            want.push_back(format->pbdPValue(column.success_probs,
                                             column.k,
                                             engine::SumPolicy::Plain));

        const engine::PlanRun run =
            engine.run(streamPlan(format->id(), paths));
        EXPECT_EQ(run.stream.shards, paths.size());
        EXPECT_EQ(run.stream.items, columns.size());
        EXPECT_GT(run.stream.peak_mapped_bytes, 0u);
        expectSameResults(run.results, want, format->id());
    }
}

/** Records every delivered screened batch, one per shard. */
struct ScreenedRecorder final : engine::ResultSink
{
    std::vector<engine::ScreenedPValueBatch> batches;

    void
    consumeScreened(const engine::WorkBlock &,
                    const engine::ScreenedPValueBatch &batch) override
    {
        batches.push_back(batch);
    }
};

TEST(EvalEngineStream, ScreenedStreamBitMatchesScreenedBatch)
{
    const auto paths = writeColumnShards("scstream", 3, 10);
    engine::EvalEngine engine(4);
    pbd::ScreenConfig config;
    config.guard_band_log2 = 32.0;

    for (const char *id : {"log", "log32", "binary64", "bfloat16"}) {
        const auto &format =
            engine::FormatRegistry::instance().at(id);

        // Per shard, the streamed batch must equal the scalar
        // screened reference over that shard's columns — results,
        // skip mask, estimates, and stats.
        engine::EvalPlan plan = streamPlan(id, paths);
        plan.policy = engine::PlanPolicy::Screened;
        plan.screen = config;
        ScreenedRecorder streamed;
        engine::PlanInputs inputs;
        inputs.sink = &streamed;
        engine.run(plan, inputs);

        ASSERT_EQ(streamed.batches.size(), paths.size()) << id;
        for (size_t s = 0; s < paths.size(); ++s) {
            const auto want = prop::scalarScreened(
                format, io::readColumnShard(paths[s]), config,
                engine::SumPolicy::Plain);
            const auto &got = streamed.batches[s];
            EXPECT_EQ(got.skipped, want.skipped) << id;
            EXPECT_EQ(got.estimates_log2, want.estimates_log2) << id;
            EXPECT_EQ(got.stats.columns, want.stats.columns);
            EXPECT_EQ(got.stats.skipped, want.stats.skipped);
            EXPECT_EQ(got.stats.evaluated, want.stats.evaluated);
            EXPECT_EQ(got.stats.guard_band_hits,
                      want.stats.guard_band_hits);
            expectSameResults(got.results, want.results,
                              std::string(id) + " shard " +
                                  std::to_string(s));
        }
    }
}

TEST(EvalEngineStream, ForwardStreamBitMatchesBatchEveryFormat)
{
    stats::Rng rng(4243);
    const hmm::Model model = hmm::makeDirichletModel(rng, 4, 6);
    std::vector<std::vector<int>> sequences;
    for (int i = 0; i < 9; ++i)
        sequences.push_back(
            hmm::sampleObservations(rng, model, 12 + 3 * i));

    // Three sequence shards of three records each.
    std::vector<std::string> paths;
    for (int s = 0; s < 3; ++s) {
        const std::string path =
            tempPath("fwdstream" + std::to_string(s) + ".shard");
        io::ShardWriter writer(path, io::ShardPayload::Sequences);
        for (int i = 0; i < 3; ++i)
            writer.addSequence(sequences[3 * s + i]);
        writer.close();
        paths.push_back(path);
    }

    engine::EvalEngine engine(4);
    for (const auto *format :
         engine::FormatRegistry::instance().all()) {
        std::vector<engine::EvalResult> want;
        for (const auto &seq : sequences)
            want.push_back(format->hmmForward(
                model, seq, engine::Dataflow::Accelerator));

        engine::EvalPlan plan = streamPlan(format->id(), paths);
        plan.kernel = engine::PlanKernel::Forward;
        plan.dataflow = engine::Dataflow::Accelerator;
        engine::PlanInputs inputs;
        inputs.model = &model;
        const engine::PlanRun run = engine.run(plan, inputs);
        EXPECT_EQ(run.stream.shards, paths.size());
        EXPECT_EQ(run.stream.items, sequences.size());
        expectSameResults(run.results, want, format->id());
    }
}

TEST(EvalEngineStream, StreamPlanWithoutShardPathsThrowsFromRun)
{
    // A plan names its shards: validatePlan accepts an empty list (a
    // dumped template, filled in on replay), but run() has nothing to
    // open and says so for every kernel with a stream source.
    engine::EvalEngine engine(2);
    stats::Rng rng(7);
    const hmm::Model model = hmm::makeDirichletModel(rng, 2, 3);
    engine::PlanInputs inputs;
    inputs.model = &model;
    for (const auto kernel :
         {engine::PlanKernel::PValue, engine::PlanKernel::Forward}) {
        engine::EvalPlan plan = streamPlan("binary64", {});
        plan.kernel = kernel;
        EXPECT_NO_THROW(engine::validatePlan(plan));
        try {
            engine.run(plan, inputs);
            ADD_FAILURE() << "run() accepted a stream plan with no shards";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("no shard paths"),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
