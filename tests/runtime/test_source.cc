// Source layer contracts: memory sources deliver exactly one block,
// shard sources deliver one block per shard with stats accounting,
// and payload mismatches fail loudly before any record is read.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/job_source.hh"
#include "hmm/generator.hh"
#include "io/shard.hh"
#include "io/shard_stream.hh"
#include "pbd/dataset.hh"
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
    config.median_coverage = 50.0;
    config.coverage_sigma = 0.4;
    config.variant_fraction = 0.2;
    config.seed = seed;
    return pbd::makeDataset(config, "src").columns;
}

TEST(JobSource, MemoryColumnSourceYieldsExactlyOneBlock)
{
    const auto columns = makeColumns(7, 11);
    MemoryColumnSource source(columns);
    auto block = source.next();
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(block->index, 0u);
    EXPECT_EQ(block->items, columns.size());
    EXPECT_EQ(block->shard, nullptr);
    ASSERT_EQ(block->columns.size(), columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
        const pbd::ColumnView view = block->columns[i];
        EXPECT_EQ(view.k, columns[i].k);
        EXPECT_EQ(view.success_probs.data(),
                  columns[i].success_probs.data());
    }
    EXPECT_FALSE(source.next().has_value());
    EXPECT_FALSE(source.next().has_value()); // stays exhausted

    // Memory sources report all-zero stream stats.
    const StreamStats stats = source.stats();
    EXPECT_EQ(stats.shards, 0u);
    EXPECT_EQ(stats.items, 0u);
}

TEST(JobSource, EmptyMemorySourceStillDeliversItsBlock)
{
    // The downstream stage must run exactly once even over zero
    // items (an empty batch is a valid evaluation).
    MemoryColumnSource source(std::span<const pbd::Column>{});
    auto block = source.next();
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(block->items, 0u);
    EXPECT_FALSE(source.next().has_value());
}

TEST(JobSource, MemoryJobSourceExposesTheSpan)
{
    stats::Rng rng(77);
    const hmm::Model model = hmm::makeDirichletModel(rng, 3, 5);
    std::vector<std::vector<int>> sequences;
    std::vector<ForwardJob> jobs;
    for (int i = 0; i < 4; ++i)
        sequences.push_back(
            hmm::sampleObservations(rng, model, 10 + i));
    for (const auto &seq : sequences)
        jobs.push_back({&model, seq});

    MemoryJobSource source(jobs);
    auto block = source.next();
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(block->items, jobs.size());
    ASSERT_EQ(block->jobs.size(), jobs.size());
    EXPECT_EQ(block->jobs.data(), jobs.data());
    EXPECT_TRUE(block->columns.empty());
    EXPECT_FALSE(source.next().has_value());
}

TEST(JobSource, ShardSourceDeliversOneBlockPerShardWithStats)
{
    std::vector<std::string> paths;
    std::vector<std::vector<pbd::Column>> per_shard;
    for (int s = 0; s < 3; ++s) {
        per_shard.push_back(makeColumns(5 + s, 100 + s));
        paths.push_back(
            tempPath("srcshard" + std::to_string(s) + ".shard"));
        io::writeColumnShard(paths.back(), per_shard.back());
    }

    io::ShardStream stream(paths);
    ShardSource source(stream, io::ShardPayload::Columns);
    size_t seen = 0;
    size_t items = 0;
    while (auto block = source.next()) {
        EXPECT_EQ(block->index, seen);
        ASSERT_NE(block->shard, nullptr);
        EXPECT_EQ(block->shard->path(), paths[seen]);
        EXPECT_EQ(block->items, per_shard[seen].size());
        ASSERT_EQ(block->columns.size(), block->items);
        for (size_t i = 0; i < block->items; ++i) {
            const pbd::ColumnView view = block->columns[i];
            EXPECT_EQ(view.k, per_shard[seen][i].k);
            ASSERT_EQ(view.success_probs.size(),
                      per_shard[seen][i].success_probs.size());
            for (size_t j = 0; j < view.success_probs.size(); ++j)
                EXPECT_EQ(view.success_probs[j],
                          per_shard[seen][i].success_probs[j]);
        }
        items += block->items;
        ++seen;
    }
    EXPECT_EQ(seen, paths.size());

    const StreamStats stats = source.stats();
    EXPECT_EQ(stats.shards, paths.size());
    EXPECT_EQ(stats.items, items);
    EXPECT_GT(stats.peak_mapped_bytes, 0u);
}

TEST(JobSource, ShardSourceRejectsMismatchedPayload)
{
    // A Sequences shard fed to a source expecting columns must throw
    // before any record is interpreted.
    const std::string path = tempPath("srcmismatch.shard");
    {
        io::ShardWriter writer(path, io::ShardPayload::Sequences);
        const std::vector<int> obs = {0, 1, 2, 1};
        writer.addSequence(obs);
        writer.close();
    }
    io::ShardStream stream(std::vector<std::string>{path});
    ShardSource source(stream, io::ShardPayload::Columns);
    EXPECT_THROW(source.next(), io::ShardError);
}

TEST(JobSource, ShardSourceBindsTheModelToSequenceJobs)
{
    stats::Rng rng(42);
    const hmm::Model model = hmm::makeDirichletModel(rng, 3, 4);
    std::vector<std::vector<int>> sequences;
    for (int i = 0; i < 3; ++i)
        sequences.push_back(
            hmm::sampleObservations(rng, model, 8 + i));

    const std::string path = tempPath("srcseq.shard");
    {
        io::ShardWriter writer(path, io::ShardPayload::Sequences);
        for (const auto &seq : sequences)
            writer.addSequence(seq);
        writer.close();
    }

    io::ShardStream stream(std::vector<std::string>{path});
    ShardSource source(stream, io::ShardPayload::Sequences, &model);
    auto block = source.next();
    ASSERT_TRUE(block.has_value());
    ASSERT_EQ(block->jobs.size(), sequences.size());
    ASSERT_EQ(block->items, sequences.size());
    for (size_t i = 0; i < sequences.size(); ++i) {
        const ForwardJob job = block->jobs[i];
        EXPECT_EQ(job.model, &model);
        ASSERT_EQ(job.obs.size(), sequences[i].size());
        for (size_t j = 0; j < job.obs.size(); ++j)
            EXPECT_EQ(job.obs[j], sequences[i][j]);
    }
    EXPECT_FALSE(source.next().has_value());
}

TEST(JobSource, ShardSourceRejectsSymbolsOutsideTheModel)
{
    // Every HMM kernel indexes the emission table with the streamed
    // symbols: one equal to num_symbols reads past the table, and a
    // negative one before it. The source must refuse the shard,
    // naming it and the record, before handing out any job.
    stats::Rng rng(43);
    const hmm::Model model = hmm::makeDirichletModel(rng, 3, 4);
    const std::vector<int> good = hmm::sampleObservations(rng, model, 6);
    const std::vector<std::pair<const char *, std::vector<int>>> bad = {
        {"srcsym_high.shard", {0, 1, model.num_symbols, 2}},
        {"srcsym_negative.shard", {3, -1, 0}},
    };
    for (const auto &[name, symbols] : bad) {
        const std::string path = tempPath(name);
        {
            io::ShardWriter writer(path, io::ShardPayload::Sequences);
            writer.addSequence(good);
            writer.addSequence(symbols);
            writer.close();
        }
        io::ShardStream stream(std::vector<std::string>{path});
        ShardSource source(stream, io::ShardPayload::Sequences, &model);
        try {
            source.next();
            ADD_FAILURE() << name << ": no ShardError";
        } catch (const io::ShardError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(path), std::string::npos) << what;
            EXPECT_NE(what.find("record 1"), std::string::npos) << what;
        }
    }
}

} // namespace
