/**
 * @file
 * The write contract every output file shares (io/file_replacement.hh),
 * driven through the writers that use it: ShardWriter, ShardFileSink
 * under EvalEngine::run, and writePlanFile. A rewrite never disturbs
 * a reader that has the old file mapped; a write that fails or is
 * abandoned leaves the old file byte-identical and no temp sibling;
 * symlinks are followed, non-regular targets refused, and permission
 * bits kept.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "engine/eval_engine.hh"
#include "engine/plan.hh"
#include "engine/result_sink.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "stats/rng.hh"
#include "test_tmp.hh"

namespace
{

using namespace pstat;
using test::tempDir;
using test::tempPath;
namespace fs = std::filesystem;

/** `count` columns of `reads` probabilities each, seeded. */
std::vector<pbd::Column>
makeColumns(int count, int reads, uint64_t seed)
{
    stats::Rng rng(seed);
    std::vector<pbd::Column> columns(count);
    for (pbd::Column &column : columns) {
        for (int j = 0; j < reads; ++j)
            column.success_probs.push_back(rng.uniform(1e-6, 0.2));
        column.k = static_cast<int>(rng.below(4));
    }
    return columns;
}

void
writeShard(const std::string &path,
           const std::vector<pbd::Column> &columns)
{
    io::ShardWriter writer(path, io::ShardPayload::Columns);
    for (const pbd::Column &column : columns)
        writer.add(column);
    writer.close();
}

/** Every record of `reader` equals `columns`, bit for bit. */
void
expectColumns(const io::ShardReader &reader,
              const std::vector<pbd::Column> &columns)
{
    ASSERT_EQ(reader.size(), columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
        const pbd::ColumnView view = reader.column(i);
        EXPECT_EQ(view.k, columns[i].k) << "record " << i;
        EXPECT_TRUE(std::equal(view.success_probs.begin(),
                               view.success_probs.end(),
                               columns[i].success_probs.begin(),
                               columns[i].success_probs.end()))
            << "record " << i;
    }
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** The `<name>.tmp.*` siblings a replacement of `path` could leave. */
std::vector<std::string>
tempSiblings(const std::string &path)
{
    const std::string prefix =
        fs::path(path).filename().string() + ".tmp.";
    std::vector<std::string> found;
    for (const auto &entry :
         fs::directory_iterator(fs::path(path).parent_path()))
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            found.push_back(entry.path().string());
    return found;
}

/** Every path under `dir`, recursively. */
std::set<std::string>
listing(const std::string &dir)
{
    std::set<std::string> paths;
    for (const auto &entry : fs::recursive_directory_iterator(dir))
        paths.insert(entry.path().string());
    return paths;
}

engine::EvalPlan
somePlan()
{
    engine::EvalPlan plan;
    plan.format_id = "binary64";
    return plan;
}

TEST(FileReplacement, MappedReaderKeepsItsBytesAcrossARewrite)
{
    // The old shard spans many pages past the new one's end: an
    // in-place truncate would turn reads of those pages into SIGBUS.
    const std::string path = tempPath("mapped.shard");
    const auto old_columns = makeColumns(48, 200, 1);
    const auto new_columns = makeColumns(2, 3, 2);
    writeShard(path, old_columns);
    const io::ShardReader old_reader(path);

    writeShard(path, new_columns);
    expectColumns(old_reader, old_columns);
    expectColumns(io::ShardReader(path), new_columns);
    EXPECT_TRUE(tempSiblings(path).empty());
}

TEST(FileReplacement, AbandonedShardWriterLeavesTheOldFile)
{
    const std::string path = tempPath("abandoned.shard");
    writeShard(path, makeColumns(5, 30, 3));
    const std::vector<char> before = slurp(path);
    {
        io::ShardWriter writer(path, io::ShardPayload::Columns);
        for (const pbd::Column &column : makeColumns(3, 7, 4))
            writer.add(column);
        EXPECT_EQ(slurp(path), before) << "visible before close()";
    } // destroyed without close()
    EXPECT_EQ(slurp(path), before);
    EXPECT_TRUE(tempSiblings(path).empty());
}

TEST(FileReplacement, FailedStreamRunLeavesTheOldResultShard)
{
    const std::string good = tempPath("run-in-0.shard");
    const std::string bad = tempPath("run-in-1.shard");
    writeShard(good, makeColumns(6, 40, 5));
    writeShard(tempPath("run-in-1.src"), makeColumns(6, 40, 6));
    std::vector<char> corrupt = slurp(tempPath("run-in-1.src"));
    corrupt[sizeof(io::ShardHeader) + 8] ^= 0x01; // payload: CRC fails
    std::ofstream(bad, std::ios::binary)
        .write(corrupt.data(),
               static_cast<std::streamsize>(corrupt.size()));

    engine::EvalEngine engine(2);
    engine::EvalPlan plan = somePlan();
    plan.source = engine::PlanSource::ShardStream;
    plan.shard_paths = {good};
    const std::string out = tempPath("run-out.shard");
    {
        engine::ShardFileSink sink(out, plan.kernel, plan.format_id);
        engine::PlanInputs inputs;
        inputs.result_sink = &sink;
        engine.run(plan, inputs);
    }
    const std::vector<char> before = slurp(out);

    // The stream delivers the good shard to the sink, then throws
    // on the corrupt one; both ways of binding the sink.
    plan.shard_paths = {good, bad};
    using engine::PlanInputs;
    for (engine::ResultSink *PlanInputs::*route :
         {&PlanInputs::sink, &PlanInputs::result_sink}) {
        {
            engine::ShardFileSink sink(out, plan.kernel,
                                       plan.format_id);
            PlanInputs inputs;
            inputs.*route = &sink;
            EXPECT_THROW(engine.run(plan, inputs), io::ShardError);
            EXPECT_EQ(slurp(out), before);
        }
        EXPECT_EQ(slurp(out), before);
        EXPECT_TRUE(tempSiblings(out).empty());
    }
}

TEST(FileReplacement, PlanWriteIntoAnUnwritableDirectoryCreatesNothing)
{
    const std::string not_a_dir = tempPath("plan-blocker");
    std::ofstream(not_a_dir) << "a file, not a directory";
    std::vector<std::string> targets = {
        tempPath("plan-missing-dir/p.plan"), not_a_dir + "/p.plan"};
    // Root writes through directory permission bits, so the locked
    // directory refuses only an unprivileged run.
    const std::string locked = tempPath("plan-locked");
    fs::create_directory(locked);
    fs::permissions(locked,
                    fs::perms::owner_read | fs::perms::owner_exec);
    if (::geteuid() != 0)
        targets.push_back(locked + "/p.plan");

    const std::set<std::string> before = listing(tempDir());
    for (const std::string &target : targets)
        EXPECT_THROW(engine::writePlanFile(target, somePlan()),
                     engine::PlanError)
            << target;
    EXPECT_EQ(listing(tempDir()), before);
    fs::permissions(locked, fs::perms::owner_all);

    // An empty path names no file, and fails before a temp file
    // could land in the working directory.
    EXPECT_THROW(engine::writePlanFile("", somePlan()),
                 engine::PlanError);
    EXPECT_THROW(io::ShardWriter("", io::ShardPayload::Columns),
                 io::ShardError);
    EXPECT_TRUE(tempSiblings("./").empty());
}

TEST(FileReplacement, SymlinkIsFollowedAndKept)
{
    const auto old_columns = makeColumns(4, 20, 7);
    const auto new_columns = makeColumns(3, 9, 8);
    const std::string target = tempPath("link-target.shard");
    const std::string link = tempPath("link.shard");
    writeShard(target, old_columns);
    fs::create_symlink("link-target.shard", link);

    writeShard(link, new_columns);
    ASSERT_TRUE(fs::is_symlink(link));
    EXPECT_EQ(fs::read_symlink(link).string(), "link-target.shard");
    expectColumns(io::ShardReader(target), new_columns);

    // A dangling link gets the file it names created.
    const std::string dangling = tempPath("dangling.shard");
    const std::string created = tempPath("dangling-target.shard");
    fs::create_symlink("dangling-target.shard", dangling);
    writeShard(dangling, new_columns);
    ASSERT_TRUE(fs::is_symlink(dangling));
    expectColumns(io::ShardReader(created), new_columns);
    EXPECT_TRUE(tempSiblings(target).empty());
    EXPECT_TRUE(tempSiblings(created).empty());
}

TEST(FileReplacement, NonRegularTargetIsRefusedWithTheTypedError)
{
    const std::string fifo = tempPath("refused.fifo");
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    const std::string fifo_link = tempPath("refused-fifo.link");
    fs::create_symlink("refused.fifo", fifo_link);
    const std::string dir = tempPath("refused.dir");
    fs::create_directory(dir);

    for (const std::string &target : {fifo, fifo_link, dir}) {
        EXPECT_THROW(io::ShardWriter(target, io::ShardPayload::Columns),
                     io::ShardError)
            << target;
        EXPECT_THROW(engine::writePlanFile(target, somePlan()),
                     engine::PlanError)
            << target;
    }
    EXPECT_TRUE(fs::is_fifo(fifo));
    EXPECT_TRUE(fs::is_symlink(fifo_link));
    EXPECT_TRUE(fs::is_empty(dir));
    EXPECT_TRUE(tempSiblings(fifo).empty());
    EXPECT_TRUE(tempSiblings(dir).empty());
}

TEST(FileReplacement, RewriteKeepsPermissionBits)
{
    // Under a umask that clears group and other bits, a 0664 file
    // must still come back 0664: the old file's bits win.
    const mode_t old_umask = ::umask(077);
    using fs::perms;
    for (const perms mode :
         {perms::owner_read | perms::owner_write,
          perms::owner_read | perms::owner_write | perms::group_read |
              perms::group_write | perms::others_read}) {
        const std::string shard = tempPath("perms.shard");
        writeShard(shard, makeColumns(2, 5, 9));
        fs::permissions(shard, mode);
        writeShard(shard, makeColumns(3, 5, 10));
        EXPECT_EQ(fs::status(shard).permissions() & perms::mask, mode);

        const std::string plan = tempPath("perms.plan");
        engine::writePlanFile(plan, somePlan());
        fs::permissions(plan, mode);
        engine::writePlanFile(plan, somePlan());
        EXPECT_EQ(fs::status(plan).permissions() & perms::mask, mode);
    }
    ::umask(old_umask);
}

} // namespace
