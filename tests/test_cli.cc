/**
 * @file
 * In-process tests of the `pstat` CLI error paths (apps/pstat_cli.hh).
 *
 * pstatMain is driven with argv arrays while stdout/stderr are
 * captured, so every exit path — unknown subcommands, missing or
 * corrupt shards, malformed knob values — is asserted on exit code
 * *and* diagnostic without spawning processes. The guard-bits cases
 * are the regression tests for the old std::atof parsing, which read
 * "banana" as a 0-bit guard band (silently disabling the guard)
 * instead of rejecting it.
 */

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/lofreq.hh"
#include "apps/pstat_cli.hh"
#include "cli_env.hh"
#include "engine/eval_engine.hh"
#include "engine/plan.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "prop_util.hh"
#include "test_tmp.hh"

namespace
{

using namespace pstat;

/** Run the CLI in-process; captures stdout/stderr around the call. */
int
runCli(const std::vector<const char *> &args,
       std::string *out = nullptr, std::string *err = nullptr)
{
    std::vector<const char *> argv{"pstat"};
    argv.insert(argv.end(), args.begin(), args.end());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc = apps::pstatMain(static_cast<int>(argv.size()),
                                   argv.data());
    const std::string captured_out =
        testing::internal::GetCapturedStdout();
    const std::string captured_err =
        testing::internal::GetCapturedStderr();
    if (out != nullptr)
        *out = captured_out;
    if (err != nullptr)
        *err = captured_err;
    return rc;
}

/** A small valid Columns shard in the test temp dir. */
std::string
makeShard(const std::string &name, int columns = 60, uint64_t seed = 77)
{
    pbd::DatasetConfig config;
    config.num_columns = columns;
    config.seed = seed;
    const auto ds = pbd::makeDataset(config, "cli");
    const std::string path = test::tempPath(name);
    io::writeColumnShard(path, ds.columns);
    return path;
}

TEST(Cli, HelpExitsZeroAndPrintsUsage)
{
    std::string out;
    EXPECT_EQ(runCli({"--help"}, &out), 0);
    EXPECT_NE(out.find("usage:"), std::string::npos);
    EXPECT_NE(out.find("--adaptive"), std::string::npos);
}

TEST(Cli, NoArgumentsIsAUsageError)
{
    std::string err;
    EXPECT_EQ(runCli({}, nullptr, &err), 2);
    EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails)
{
    std::string err;
    EXPECT_EQ(runCli({"frobnicate"}, nullptr, &err), 2);
    EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownOptionFails)
{
    std::string err;
    EXPECT_EQ(runCli({"eval", "--bogus", "x", "a.shard"}, nullptr,
                     &err),
              2);
    EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(Cli, MissingShardFails)
{
    const std::string missing =
        test::tempDir() + "no_such_file.shard";
    std::string err;
    EXPECT_EQ(runCli({"eval", "--format", "binary64",
                      missing.c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());
}

TEST(Cli, TruncatedShardFails)
{
    const std::string path = makeShard("cli_truncated.shard");
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);
    std::string err;
    EXPECT_EQ(runCli({"info", path.c_str()}, nullptr, &err), 1);
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_EQ(runCli({"eval", "--format", "binary64", path.c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());
}

TEST(Cli, CrcCorruptShardFails)
{
    const std::string path = makeShard("cli_corrupt.shard");
    const auto size = std::filesystem::file_size(path);
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET),
                  0);
        const int byte = std::fgetc(f);
        ASSERT_NE(byte, EOF);
        ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET),
                  0);
        std::fputc(byte ^ 0x5a, f);
        std::fclose(f);
    }
    std::string err;
    EXPECT_EQ(runCli({"info", path.c_str()}, nullptr, &err), 1);
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_EQ(runCli({"eval", "--format", "binary64", path.c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());
}

TEST(Cli, BadAdaptiveToleranceFails)
{
    const std::string path = makeShard("cli_tol.shard", 20);
    for (const char *tol : {"banana", "0.5", "0", "-inf", "-20x"}) {
        SCOPED_TRACE(tol);
        std::string err;
        EXPECT_EQ(runCli({"eval", "--adaptive", "--tol", tol,
                          path.c_str()},
                         nullptr, &err),
                  2);
        EXPECT_NE(err.find("--tol"), std::string::npos);
    }
}

TEST(Cli, BadAdaptiveThresholdFails)
{
    const std::string path = makeShard("cli_thr.shard", 20);
    for (const char *thr : {"nan", "junk", "-inf"}) {
        SCOPED_TRACE(thr);
        std::string err;
        EXPECT_EQ(runCli({"eval", "--adaptive", "--threshold", thr,
                          path.c_str()},
                         nullptr, &err),
                  2);
        EXPECT_NE(err.find("--threshold"), std::string::npos);
    }
}

TEST(Cli, BadLadderFails)
{
    const std::string path = makeShard("cli_ladder.shard", 20);
    std::string err;
    EXPECT_EQ(runCli({"eval", "--adaptive", "--ladder", "binary63",
                      path.c_str()},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("--ladder"), std::string::npos);
}

TEST(Cli, AdaptiveConflictsWithFixedFormat)
{
    std::string err;
    EXPECT_EQ(runCli({"eval", "--adaptive", "--format", "binary64",
                      "a.shard"},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("--format"), std::string::npos);
}

TEST(Cli, BadGuardBitsFlagFails)
{
    // Regression: std::atof read "64x" as 64 and "banana" as 0 — the
    // latter silently disabled the guard band. Both are usage errors
    // now.
    const std::string path = makeShard("cli_guard.shard", 20);
    for (const char *guard : {"banana", "64x", ""}) {
        SCOPED_TRACE(std::string("guard=") + guard);
        std::string err;
        EXPECT_EQ(runCli({"screen", "--format", "binary64",
                          "--guard-bits", guard, path.c_str()},
                         nullptr, &err),
                  2);
        EXPECT_NE(err.find("guard-bits"), std::string::npos);
    }
}

TEST(Cli, BadGuardBitsEnvWarnsAndKeepsDefault)
{
    const std::string path = makeShard("cli_guard_env.shard", 20);
    ASSERT_EQ(setenv("PSTAT_GUARD_BITS", "banana", 1), 0);
    std::string out;
    std::string err;
    const int rc = runCli({"screen", "--format", "binary64",
                           path.c_str()},
                          &out, &err);
    ASSERT_EQ(unsetenv("PSTAT_GUARD_BITS"), 0);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(err.find("PSTAT_GUARD_BITS"), std::string::npos);
    // The default band (64 bits) survives the bad override.
    EXPECT_NE(out.find("guard 64 bits"), std::string::npos);
}

TEST(Cli, InfoPrintsColumnPayloadStats)
{
    const std::string path = makeShard("cli_info_cols.shard", 12);
    std::string out;
    EXPECT_EQ(runCli({"info", path.c_str()}, &out), 0);
    EXPECT_NE(out.find("CRC ok"), std::string::npos);
    EXPECT_NE(out.find("columns: 12 records, K "), std::string::npos);
    EXPECT_NE(out.find(", coverage "), std::string::npos);
}

TEST(Cli, InfoPrintsSequencePayloadStats)
{
    const std::string path =
        test::tempDir() + "cli_info_seqs.shard";
    {
        io::ShardWriter writer(path, io::ShardPayload::Sequences);
        const std::vector<int> a{0, 1, 2, 3};
        const std::vector<int> b{1, 0};
        writer.addSequence(a);
        writer.addSequence(b);
        writer.close();
    }
    std::string out;
    EXPECT_EQ(runCli({"info", path.c_str()}, &out), 0);
    EXPECT_NE(out.find("sequences: 2 records, T 2..4, 6 "
                       "observations"),
              std::string::npos);
}

TEST(Cli, PlanDumpWritesADecodablePlanWithoutRunning)
{
    const std::string shard = makeShard("cli_plandump.shard", 20);
    const std::string plan_path =
        test::tempDir() + "cli_dump.plan";
    std::string out;
    EXPECT_EQ(runCli({"eval", "--format", "log", "--queue", "3",
                      "--plan-dump", plan_path.c_str(),
                      shard.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("plan: pvalue over shard-stream"),
              std::string::npos);
    // Dumping never evaluates: no per-shard result lines.
    EXPECT_EQ(out.find("total:"), std::string::npos);

    const auto plan = engine::readPlanFile(plan_path);
    EXPECT_EQ(plan.kernel, engine::PlanKernel::PValue);
    EXPECT_EQ(plan.source, engine::PlanSource::ShardStream);
    EXPECT_EQ(plan.policy, engine::PlanPolicy::Fixed);
    EXPECT_EQ(plan.format_id, "log");
    EXPECT_EQ(plan.queue_capacity, 3u);
    ASSERT_EQ(plan.shard_paths.size(), 1u);
    EXPECT_EQ(plan.shard_paths[0], shard);
}

TEST(Cli, PlanFileReplayMatchesDirectFlags)
{
    const std::string shard = makeShard("cli_replay.shard");
    const std::string plan_path =
        test::tempDir() + "cli_replay.plan";
    std::string direct;
    EXPECT_EQ(runCli({"eval", "--format", "binary64", shard.c_str()},
                     &direct),
              0);
    EXPECT_EQ(runCli({"eval", "--format", "binary64", "--plan-dump",
                      plan_path.c_str(), shard.c_str()}),
              0);
    std::string replayed;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str()},
                     &replayed),
              0);
    EXPECT_EQ(replayed, direct); // same shards, same totals line

    // Positional shards override the plan's own paths.
    const std::string other = makeShard("cli_replay_b.shard", 30);
    std::string overridden;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str(),
                      other.c_str()},
                     &overridden),
              0);
    EXPECT_NE(overridden.find(other), std::string::npos);
    EXPECT_EQ(overridden.find(shard), std::string::npos);
}

TEST(Cli, PlanFileRejectsConflictingFlagsAndBadFiles)
{
    const std::string plan_path =
        test::tempDir() + "cli_conflict.plan";
    std::string err;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str(),
                      "--format", "log"},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("--plan-file"), std::string::npos);

    // Missing and corrupt plan files are data errors, not crashes.
    err.clear();
    EXPECT_EQ(runCli({"eval", "--plan-file",
                      (test::tempDir() + "nope.plan").c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());

    const std::string garbage_path =
        test::tempDir() + "cli_garbage.plan";
    {
        std::FILE *f = std::fopen(garbage_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a plan", f);
        std::fclose(f);
    }
    err.clear();
    EXPECT_EQ(runCli({"eval", "--plan-file", garbage_path.c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());
}

TEST(Cli, ScreenPlanDumpRoundTripsThroughEval)
{
    const std::string shard = makeShard("cli_screen_plan.shard");
    const std::string plan_path =
        test::tempDir() + "cli_screen.plan";
    std::string direct;
    EXPECT_EQ(runCli({"screen", "--format", "log", "--guard-bits",
                      "32", shard.c_str()},
                     &direct),
              0);
    EXPECT_EQ(runCli({"screen", "--format", "log", "--guard-bits",
                      "32", "--plan-dump", plan_path.c_str(),
                      shard.c_str()}),
              0);
    // A dumped screen plan replays through the one plan runner.
    std::string replayed;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str()},
                     &replayed),
              0);
    EXPECT_EQ(replayed, direct);
    EXPECT_NE(replayed.find("guard 32 bits"), std::string::npos);
}

TEST(Cli, AdaptiveEvalRunsAndReportsTiers)
{
    const std::string path = makeShard("cli_adaptive.shard");
    std::string out;
    EXPECT_EQ(runCli({"eval", "--adaptive", "--threshold", "-200",
                      path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("certified"), std::string::npos);
    EXPECT_NE(out.find("calls (p < 2^-200)"), std::string::npos);
    EXPECT_NE(out.find("tier"), std::string::npos);

    // A custom single-tier ladder with a value tolerance.
    out.clear();
    EXPECT_EQ(runCli({"eval", "--adaptive", "--ladder", "binary64",
                      "--tol", "-20", path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("tier binary64"), std::string::npos);
}

TEST(Cli, EvalWritesAndInfoPrintsAResultShard)
{
    const std::string path = makeShard("cli_out_in.shard");
    const std::string out_path =
        test::tempDir() + "cli_out_results.shard";
    std::string out;
    EXPECT_EQ(runCli({"eval", "--format", "log", "-o",
                      out_path.c_str(), path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("wrote " + out_path + ": 60 result records"),
              std::string::npos);

    // info validates and pretty-prints the Results payload.
    out.clear();
    EXPECT_EQ(runCli({"info", out_path.c_str()}, &out), 0);
    EXPECT_NE(out.find("results, 60 records"), std::string::npos);
    EXPECT_NE(out.find("kernel pvalue"), std::string::npos);
    EXPECT_NE(out.find("format log"), std::string::npos);
    EXPECT_NE(out.find("|v| in 2^"), std::string::npos);
    EXPECT_NE(out.find("flags:"), std::string::npos);
}

TEST(Cli, EvalRejectsAResultShardAsInput)
{
    const std::string path = makeShard("cli_reject_in.shard");
    const std::string out_path =
        test::tempDir() + "cli_reject_results.shard";
    ASSERT_EQ(runCli({"eval", "--format", "log", "-o",
                      out_path.c_str(), path.c_str()}),
              0);

    // Feeding the output shard back in is a usage error (exit 2)
    // diagnosed before any evaluation starts.
    std::string err;
    EXPECT_EQ(runCli({"eval", "--format", "log", out_path.c_str()},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("holds result records"), std::string::npos);

    // Same guard on a --plan-file replay pointed at the wrong data.
    const std::string plan_path =
        test::tempDir() + "cli_reject_plan.bin";
    ASSERT_EQ(runCli({"eval", "--format", "log", "--plan-dump",
                      plan_path.c_str(), path.c_str()}),
              0);
    err.clear();
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str(),
                      out_path.c_str()},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("holds result records"), std::string::npos);
}

TEST(Cli, PlanFileReplayComposesWithOut)
{
    const std::string path = makeShard("cli_plan_out.shard");
    const std::string plan_path =
        test::tempDir() + "cli_plan_out.bin";
    ASSERT_EQ(runCli({"eval", "--format", "log", "--plan-dump",
                      plan_path.c_str(), path.c_str()}),
              0);
    // --out is a runtime binding, not plan configuration, so it must
    // not trip the replay's conflicting-flags guard.
    const std::string out_path =
        test::tempDir() + "cli_plan_out_results.shard";
    std::string out;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str(), "-o",
                      out_path.c_str(), path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("wrote " + out_path), std::string::npos);
}

TEST(Cli, ScreenPersistsSkippedFlagsInTheResultShard)
{
    const std::string path = makeShard("cli_screen_out.shard");
    const std::string out_path =
        test::tempDir() + "cli_screen_results.shard";
    std::string out;
    EXPECT_EQ(runCli({"screen", "--format", "log", "-o",
                      out_path.c_str(), path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("wrote " + out_path), std::string::npos);

    out.clear();
    EXPECT_EQ(runCli({"info", out_path.c_str()}, &out), 0);
    // The screen skips most columns of this dataset; the skipped
    // count in the flags line must be nonzero (not "0 skipped").
    EXPECT_NE(out.find("skipped"), std::string::npos);
    EXPECT_EQ(out.find(" 0 skipped"), std::string::npos);
}

TEST(Cli, QueueCapEnvIsStrictlyParsed)
{
    const std::string path = makeShard("cli_queuecap.shard");
    const std::string plan_path =
        test::tempDir() + "cli_queuecap_plan.bin";

    // A valid override lands in the built plan.
    ::setenv("PSTAT_QUEUE_CAP", "7", 1);
    std::string out;
    EXPECT_EQ(runCli({"eval", "--format", "log", "--plan-dump",
                      plan_path.c_str(), path.c_str()},
                     &out),
              0);
    ::unsetenv("PSTAT_QUEUE_CAP");
    engine::EvalPlan plan = engine::readPlanFile(plan_path);
    EXPECT_EQ(plan.queue_capacity, 7u);

    // Garbage and non-positive values warn and keep the default 2;
    // an explicit --queue always wins over the env knob.
    for (const char *bad : {"banana", "0", "-3", "2x"}) {
        ::setenv("PSTAT_QUEUE_CAP", bad, 1);
        std::string err;
        EXPECT_EQ(runCli({"eval", "--format", "log", "--plan-dump",
                          plan_path.c_str(), path.c_str()},
                         nullptr, &err),
                  0)
            << bad;
        EXPECT_NE(err.find("ignoring invalid PSTAT_QUEUE_CAP"),
                  std::string::npos)
            << bad;
        plan = engine::readPlanFile(plan_path);
        EXPECT_EQ(plan.queue_capacity, 2u) << bad;
    }
    ::setenv("PSTAT_QUEUE_CAP", "9", 1);
    EXPECT_EQ(runCli({"eval", "--format", "log", "--queue", "3",
                      "--plan-dump", plan_path.c_str(), path.c_str()}),
              0);
    ::unsetenv("PSTAT_QUEUE_CAP");
    plan = engine::readPlanFile(plan_path);
    EXPECT_EQ(plan.queue_capacity, 3u);
}

/** printf into a std::string (the report lines' own format strings). */
std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

/**
 * Mask the report's two timing-dependent fields: how far the shard
 * prefetch thread got ahead (peak queue depth) and the per-tier
 * wall-clock column.
 */
std::string
maskTimings(const std::string &report)
{
    static const std::regex queue("peak queue [0-9]+");
    static const std::regex tier_ms(", [0-9]+\\.[0-9]{2} ms\n");
    return std::regex_replace(
        std::regex_replace(report, queue, "peak queue *"), tier_ms,
        ", * ms\n");
}

/** Fixture of the pinned report lines: two fixed shards + references. */
struct ReportShards
{
    std::vector<std::string> paths;
    std::vector<std::vector<pbd::Column>> columns;
    size_t total = 0;
    size_t peak_mapped = 0;
    unsigned lanes = 0;
    engine::EvalEngine engine;

    ReportShards()
    {
        paths = {makeShard("cli_lines_a.shard", 40, 501),
                 makeShard("cli_lines_b.shard", 25, 502)};
        for (const std::string &path : paths) {
            columns.push_back(io::readColumnShard(path));
            total += columns.back().size();
            peak_mapped = std::max(peak_mapped,
                                   io::ShardReader(path).fileBytes());
        }
        lanes = engine.threadCount();
    }

    /** The memory-source run of `plan` over shard s's columns. */
    engine::PlanRun
    reference(const engine::EvalPlan &plan, size_t s)
    {
        engine::PlanInputs inputs;
        inputs.columns = columns[s];
        return engine.run(plan, inputs);
    }

    /** argv of `command` over both shards, with `-o out` when set. */
    std::vector<const char *>
    argv(std::initializer_list<const char *> command,
         const std::string *out) const
    {
        std::vector<const char *> args(command);
        if (out != nullptr) {
            args.push_back("-o");
            args.push_back(out->c_str());
        }
        for (const std::string &path : paths)
            args.push_back(path.c_str());
        return args;
    }
};

TEST(Cli, ReportLinesArePinned)
{
    // Every report line of `eval`, `screen` and `eval --adaptive`,
    // byte for byte apart from the masked timings, with and without
    // a result shard. The counts come from memory-source runs of the
    // same policy over each shard's columns.
    ReportShards shards;
    const std::string out_path = test::tempDir() + "cli_lines.out";
    const BigFloat call_threshold = apps::lofreqThreshold();

    engine::EvalPlan fixed;
    fixed.format_id = "log";
    std::string fixed_report;
    size_t calls = 0;
    size_t invalid = 0;
    size_t underflows = 0;
    for (size_t s = 0; s < shards.paths.size(); ++s) {
        size_t shard_calls = 0;
        for (const auto &r : shards.reference(fixed, s).results) {
            invalid += r.invalid ? 1 : 0;
            underflows += r.underflow ? 1 : 0;
            if (r.value.isFinite() && r.value < call_threshold)
                ++shard_calls;
        }
        calls += shard_calls;
        fixed_report += format("%s: %zu columns, %zu calls\n",
                               shards.paths[s].c_str(),
                               shards.columns[s].size(), shard_calls);
    }
    fixed_report += format(
        "total: 2 shards, %zu columns, %zu variant calls (p < "
        "2^-200), %zu invalid, %zu underflows [log, %u lanes, peak "
        "queue *, peak mapped %zu bytes]\n",
        shards.total, calls, invalid, underflows, shards.lanes,
        shards.peak_mapped);

    engine::EvalPlan screened;
    screened.policy = engine::PlanPolicy::Screened;
    screened.format_id = "log32";
    std::string screen_report;
    pbd::ScreenStats totals;
    for (size_t s = 0; s < shards.paths.size(); ++s) {
        const pbd::ScreenStats stats =
            shards.reference(screened, s).screened.stats;
        totals.skipped += stats.skipped;
        totals.evaluated += stats.evaluated;
        totals.guard_band_hits += stats.guard_band_hits;
        screen_report += format(
            "%s: %zu columns, %zu skipped, %zu evaluated, %zu guard "
            "hits\n",
            shards.paths[s].c_str(), stats.columns, stats.skipped,
            stats.evaluated, stats.guard_band_hits);
    }
    screen_report += format(
        "total: 2 shards, %zu columns, %zu skipped (%.1f%%), %zu "
        "evaluated, %zu guard hits [guard %g bits, log32, %u lanes]\n",
        shards.total, totals.skipped,
        100.0 * static_cast<double>(totals.skipped) /
            static_cast<double>(shards.total),
        totals.evaluated, totals.guard_band_hits,
        screened.screen.guard_band_log2, shards.lanes);

    engine::EvalPlan adaptive;
    adaptive.policy = engine::PlanPolicy::Adaptive;
    adaptive.ladder_ids = prop::defaultLadderIds();
    adaptive.cert = engine::defaultPValueCert();
    adaptive.cert.threshold_log2 = -200.0;
    std::string adaptive_report;
    engine::AccuracyTally tiers("adaptive");
    size_t certified = 0;
    size_t uncertified = 0;
    size_t adaptive_calls = 0;
    for (size_t s = 0; s < shards.paths.size(); ++s) {
        const engine::AdaptiveBatch batch =
            shards.reference(adaptive, s).adaptive;
        size_t shard_calls = 0;
        for (const auto &r : batch.results)
            if (r.certified && r.interval.hi_log2 < -200.0)
                ++shard_calls;
        certified += batch.certified;
        uncertified += batch.uncertified;
        adaptive_calls += shard_calls;
        tiers.recordTiers(batch.tiers);
        adaptive_report += format(
            "%s: %zu columns, %zu certified, %zu uncertified, %zu "
            "calls\n",
            shards.paths[s].c_str(), shards.columns[s].size(),
            batch.certified, batch.uncertified, shard_calls);
    }
    adaptive_report += format(
        "total: 2 shards, %zu columns, %zu certified, %zu uncertified, "
        "0 skipped, %zu calls (p < 2^-200) [%u lanes]\n",
        shards.total, certified, uncertified, adaptive_calls,
        shards.lanes);
    ASSERT_FALSE(tiers.tierStats().empty());
    for (const engine::TierStats &tier : tiers.tierStats())
        adaptive_report += format(
            "  tier %-10s %zu evaluated, %zu certified, %zu bypassed, "
            "* ms\n",
            tier.format_id.c_str(), tier.evaluated, tier.certified,
            tier.bypassed);

    const std::string wrote = format("wrote %s: %zu result records\n",
                                     out_path.c_str(), shards.total);
    for (const std::string *out : {static_cast<const std::string *>(
                                       nullptr),
                                   &out_path}) {
        SCOPED_TRACE(out != nullptr ? "with -o" : "without -o");
        const auto report =
            [&](std::initializer_list<const char *> command) {
                std::string stdout_text;
                EXPECT_EQ(runCli(shards.argv(command, out), &stdout_text),
                          0);
                return maskTimings(stdout_text);
            };
        const std::string tail = out != nullptr ? wrote : "";
        EXPECT_EQ(report({"eval", "--format", "log"}), fixed_report + tail);
        EXPECT_EQ(report({"screen", "--format", "log32"}),
                  screen_report + tail);
        EXPECT_EQ(report({"eval", "--adaptive", "--threshold", "-200"}),
                  adaptive_report + tail);
    }
}

// ------------------------------------------------- bit-moving knobs

/**
 * A knob that moves result bits, the flags of a plan it feeds, and
 * the plan field it sets, rendered as text: the value a clean
 * environment records, and the value under the knob.
 */
struct BitKnob
{
    test::EnvVar var;
    std::vector<const char *> command;
    std::string (*field)(const engine::EvalPlan &);
    const char *clean;
    const char *set;
};

const std::vector<BitKnob> &
bitKnobs()
{
    static const std::vector<BitKnob> knobs = {
        {{"PSTAT_COMPENSATED", "1"},
         {"eval", "--format", "binary32"},
         [](const engine::EvalPlan &plan) -> std::string {
             return plan.sum == engine::SumPolicy::Compensated
                        ? "compensated"
                        : "plain";
         },
         "plain",
         "compensated"},
        {{"PSTAT_LADDER", "log,scaled_dd"},
         {"eval", "--adaptive", "--tol", "-30"},
         [](const engine::EvalPlan &plan) {
             return engine::resultFormatLabel(plan);
         },
         "adaptive:bfloat16,binary32,binary64,log,scaled_dd",
         "adaptive:log,scaled_dd"},
        {{"PSTAT_CERT_TOL", "-30"},
         {"eval", "--adaptive"},
         [](const engine::EvalPlan &plan) -> std::string {
             return plan.cert.tol_rel_log2
                        ? format("%g", *plan.cert.tol_rel_log2)
                        : "none";
         },
         "none",
         "-30"},
        {{"PSTAT_GUARD_BITS", "8"},
         {"screen", "--format", "log"},
         [](const engine::EvalPlan &plan) {
             return format("%g", plan.screen.guard_band_log2);
         },
         "64",
         "8"},
    };
    return knobs;
}

/** `command` with `extra` arguments and then `shards` appended. */
std::vector<const char *>
withArgs(std::vector<const char *> command,
         std::initializer_list<const char *> extra,
         const std::vector<std::string> &shards = {})
{
    command.insert(command.end(), extra);
    for (const std::string &shard : shards)
        command.push_back(shard.c_str());
    return command;
}

std::string
fileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    if (f == nullptr)
        return out;
    char buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, got);
    std::fclose(f);
    return out;
}

TEST(Cli, FlagBuiltPlansRecordTheBitMovingKnobs)
{
    // In process and back to back: each plan built from flags records
    // the knob's value at that moment, so nothing caches a value
    // across the plans one process builds.
    const std::string shard = makeShard("cli_knobs.shard", 20);
    const std::string plan_path = test::tempPath("cli_knobs.plan");
    const test::ScopedEnv clean(test::cleanEnv());
    for (const BitKnob &knob : bitKnobs()) {
        SCOPED_TRACE(knob.var.first);
        const auto dump = [&] {
            EXPECT_EQ(runCli(withArgs(knob.command,
                                      {"--plan-dump", plan_path.c_str(),
                                       shard.c_str()})),
                      0);
            return knob.field(engine::readPlanFile(plan_path));
        };
        EXPECT_EQ(dump(), knob.clean);
        {
            const test::ScopedEnv set({knob.var});
            EXPECT_EQ(dump(), knob.set);
        }
        EXPECT_EQ(dump(), knob.clean);
    }
}

TEST(Cli, PlanReplayIgnoresTheBitMovingKnobs)
{
    // Every run is its own process, as from a shell, and each result
    // shard is compared byte for byte. The data: two generated
    // shards, plus a borderline slice (p-values near 2^-200) on which
    // the guard band decides what the screen skips.
    const std::string dir = test::tempPath("cli_replay_knobs");
    ASSERT_EQ(runCli({"gen", "--out", dir.c_str(), "--shards", "2",
                      "--columns", "200", "--seed", "5"}),
              0);
    stats::Rng rng(5);
    std::vector<pbd::Column> borderline;
    for (int i = 0; i < 40; ++i)
        borderline.push_back(
            pbd::makeColumnWithTarget(rng, rng.uniform(150.0, 280.0)));
    io::writeColumnShard(dir + "/borderline.shard", borderline);
    const std::vector<std::string> shards = {
        dir + "/cols_0000.shard", dir + "/cols_0001.shard",
        dir + "/borderline.shard"};
    const std::string clean_plan = dir + "/clean.plan";
    const std::string knob_plan = dir + "/knob.plan";
    const std::string out[4] = {dir + "/a.shard", dir + "/b.shard",
                                dir + "/c.shard", dir + "/d.shard"};
    const auto replay = [](const std::string &plan,
                           const std::string &to,
                           const std::vector<test::EnvVar> &env) {
        return test::runCliInChild(
            {"eval", "--plan-file", plan.c_str(), "-o", to.c_str()}, env);
    };
    for (const BitKnob &knob : bitKnobs()) {
        SCOPED_TRACE(knob.var.first);
        std::vector<test::EnvVar> with_knob = test::cleanEnv();
        with_knob.push_back(knob.var);
        ASSERT_EQ(test::runCliInChild(
                      withArgs(knob.command,
                               {"--plan-dump", clean_plan.c_str()},
                               shards),
                      test::cleanEnv()),
                  0);
        ASSERT_EQ(test::runCliInChild(
                      withArgs(knob.command,
                               {"--plan-dump", knob_plan.c_str()},
                               shards),
                      with_knob),
                  0);

        // The clean plan replays to the same bits under the knob.
        ASSERT_EQ(replay(clean_plan, out[0], test::cleanEnv()), 0);
        ASSERT_EQ(replay(clean_plan, out[1], with_knob), 0);
        EXPECT_EQ(fileBytes(out[0]), fileBytes(out[1]));

        // The plan built under the knob carries it: a clean replay
        // matches the direct run under the knob, and the knob does
        // move these bits.
        ASSERT_EQ(test::runCliInChild(
                      withArgs(knob.command, {"-o", out[2].c_str()},
                               shards),
                      with_knob),
                  0);
        ASSERT_EQ(replay(knob_plan, out[3], test::cleanEnv()), 0);
        EXPECT_EQ(fileBytes(out[2]), fileBytes(out[3]));
        EXPECT_NE(fileBytes(out[0]), fileBytes(out[2]));
    }
}

TEST(Cli, BadBitMovingKnobsWarnAndKeepTheirDefaults)
{
    const std::string shard = makeShard("cli_bad_knobs.shard", 20);
    const std::string plan_path = test::tempPath("cli_bad_knobs.plan");
    const test::ScopedEnv bad({{"PSTAT_COMPENSATED", "1x"},
                               {"PSTAT_LADDER", "binary64,binary63"},
                               {"PSTAT_CERT_TOL", "3"}});
    std::string err;
    EXPECT_EQ(runCli({"eval", "--adaptive", "--plan-dump",
                      plan_path.c_str(), shard.c_str()},
                     nullptr, &err),
              0);
    for (const char *name :
         {"PSTAT_COMPENSATED", "PSTAT_LADDER", "PSTAT_CERT_TOL"})
        EXPECT_NE(err.find(std::string("ignoring invalid ") + name),
                  std::string::npos)
            << err;
    const engine::EvalPlan plan = engine::readPlanFile(plan_path);
    EXPECT_EQ(plan.sum, engine::SumPolicy::Plain);
    EXPECT_EQ(plan.ladder_ids, prop::defaultLadderIds());
    EXPECT_FALSE(plan.cert.tol_rel_log2.has_value());
}

} // namespace
