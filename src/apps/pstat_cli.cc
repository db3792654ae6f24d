/**
 * @file
 * `pstat` — the command-line front end over shard files.
 *
 * Four subcommands cover the shard lifecycle:
 *
 *   gen     synthesize LoFreq-style column datasets straight into
 *           shard files (streaming generation: O(column) memory, any
 *           dataset size)
 *   info    validate shards (header fields, CRC) and print their
 *           metadata plus payload-specific stats (K/coverage ranges
 *           of Columns shards, T ranges of Sequences shards)
 *   eval    streamed exact p-value evaluation in any registered
 *           format — or, with --adaptive, certified evaluation up
 *           the escalation ladder (engine/escalate.hh)
 *   screen  streamed two-stage screened evaluation (estimate
 *           everywhere, exact DP inside the guard band)
 *
 * eval, screen and request parse their flags into an
 * engine::EvalPlan (engine/plan.hh) through one function,
 * planFromFlags, and hand it to EvalEngine::run (or, for request, to
 * a daemon) — the CLI owns no evaluation loop of its own. Every such
 * invocation can round-trip its plan: --plan-dump FILE writes the
 * encoded plan instead of running it, and `eval --plan-file FILE`
 * executes a previously dumped plan (with positional shard paths
 * overriding the plan's own, so one plan template can be replayed
 * against any dataset).
 *
 * The knobs that move result bits — PSTAT_COMPENSATED (summation
 * policy), PSTAT_LADDER / PSTAT_CERT_TOL (adaptive defaults) and
 * PSTAT_GUARD_BITS (the default guard band) — are read by
 * planFromFlags alone and recorded in the plan it builds, so a
 * --plan-file replay and the daemon ignore them. PSTAT_THREADS sets
 * the engine lanes of whichever process runs the plan.
 */

#include "apps/pstat_cli.hh"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "apps/lofreq.hh"
#include "engine/env.hh"
#include "engine/escalate.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "engine/plan.hh"
#include "engine/result_sink.hh"
#include "io/shard.hh"
#include "io/shard_stream.hh"
#include "pbd/dataset.hh"
#include "pbd/screen.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace
{

using namespace pstat;

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "pstat — shard-file tooling for the pstat workloads\n"
        "\n"
        "usage:\n"
        "  pstat gen    --out DIR [--shards N=4] [--columns N=1000]\n"
        "               [--seed S=1] [--prefix NAME=cols]\n"
        "  pstat info   SHARD...\n"
        "  pstat eval   --format ID [--queue N=2] [-o RESULTS.shard]\n"
        "               SHARD...\n"
        "  pstat eval   --adaptive [--ladder SPEC] [--tol BITS]\n"
        "               [--threshold BITS=-200] [--queue N=2]\n"
        "               [-o RESULTS.shard] SHARD...\n"
        "  pstat eval   --plan-file FILE [-o RESULTS.shard] [SHARD...]\n"
        "  pstat screen --format ID [--guard-bits B] [--queue N=2]\n"
        "               [-o RESULTS.shard] SHARD...\n"
        "  pstat serve  --socket PATH [--tcp PORT] [--queue N=16]\n"
        "               [--coalesce N=8] [--stall-ms MS=0]\n"
        "  pstat request --socket PATH | --tcp PORT\n"
        "               [--format ID [--screen] [--guard-bits B]]\n"
        "               [--adaptive [--ladder SPEC] [--tol BITS]\n"
        "               [--threshold BITS]] [--deadline-ms N]\n"
        "               [-o RESULTS.shard] SHARD...\n"
        "\n"
        "gen writes Columns shards of the paper's LoFreq column\n"
        "profile (streaming: any size at O(column) memory); info\n"
        "validates header + CRC and prints metadata and payload\n"
        "stats; eval streams exact p-values and calls variants at\n"
        "the 2^-200 threshold; eval --adaptive escalates each column\n"
        "up the format ladder until its error bound certifies the\n"
        "answer (--tol: log2 relative tolerance, negative;\n"
        "--threshold: log2 decision cutoff); screen streams the\n"
        "two-stage estimate-then-refine pipeline.\n"
        "\n"
        "eval and screen compile their flags into an evaluation plan\n"
        "(engine/plan.hh) executed by EvalEngine::run. --plan-dump\n"
        "FILE writes the encoded plan instead of running it;\n"
        "eval --plan-file FILE replays a dumped plan (positional\n"
        "shards override the plan's own paths). -o/--out FILE\n"
        "additionally persists every result as a Results-payload\n"
        "shard (lossless values + flags; `pstat info` prints it,\n"
        "io/shard.hh documents the record layout).\n"
        "\n"
        "serve runs the long-lived evaluation daemon: it listens on\n"
        "a Unix socket (and/or TCP loopback) for PSTSRV1 request\n"
        "frames carrying an encoded plan plus inline columns,\n"
        "coalesces concurrent same-plan requests into one engine\n"
        "run, rejects work beyond its admission queue (typed, never\n"
        "a hang), honors per-request deadlines, and drains cleanly\n"
        "on SIGINT/SIGTERM. request is the matching client: it sends\n"
        "the columns of the given shards under the chosen policy and\n"
        "exits 0 on success, 3 when rejected, 4 when expired.\n"
        "\n"
        "environment: PSTAT_COMPENSATED (summation policy),\n"
        "PSTAT_LADDER (adaptive tiers), PSTAT_CERT_TOL (adaptive\n"
        "default tolerance) and PSTAT_GUARD_BITS (screen default\n"
        "band) are read when eval, screen or request build a plan\n"
        "from flags, and recorded in it: an eval --plan-file replay\n"
        "and the serve daemon ignore them. PSTAT_THREADS (engine\n"
        "lanes), PSTAT_QUEUE_CAP (default --queue),\n"
        "PSTAT_SERVE_QUEUE / PSTAT_SERVE_COALESCE /\n"
        "PSTAT_SERVE_MAX_FRAME (serve admission, coalescing and\n"
        "frame-size defaults).\n");
    return out == stdout ? 0 : 2;
}

/** Minimal option scanner: --name value pairs + positional tail. */
struct Args
{
    std::vector<std::pair<std::string, std::string>> options;
    std::vector<std::string> positional;
};

std::optional<Args>
parseArgs(int argc, const char *const *argv, int first,
          const std::vector<std::string> &known,
          const std::vector<std::string> &flags = {})
{
    Args out;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-o") // the one short alias: output shard
            arg = "--out";
        if (arg.rfind("--", 0) != 0) {
            out.positional.push_back(arg);
            continue;
        }
        const std::string name = arg.substr(2);
        bool flag = false;
        for (const auto &f : flags)
            flag = flag || f == name;
        if (flag) {
            out.options.emplace_back(name, "");
            continue;
        }
        bool recognized = false;
        for (const auto &k : known)
            recognized = recognized || k == name;
        if (!recognized) {
            std::fprintf(stderr, "pstat: unknown option --%s\n",
                         name.c_str());
            return std::nullopt;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "pstat: --%s needs a value\n",
                         name.c_str());
            return std::nullopt;
        }
        out.options.emplace_back(name, argv[++i]);
    }
    return out;
}

std::optional<std::string>
option(const Args &args, const std::string &name)
{
    for (const auto &[k, v] : args.options)
        if (k == name)
            return v;
    return std::nullopt;
}

std::optional<long>
optionLong(const Args &args, const std::string &name, long fallback)
{
    const auto text = option(args, name);
    if (!text)
        return fallback;
    const auto parsed = engine::parseLong(text->c_str());
    if (!parsed) {
        std::fprintf(stderr, "pstat: --%s wants an integer, got "
                             "\"%s\"\n",
                     name.c_str(), text->c_str());
        return std::nullopt;
    }
    return parsed;
}

const engine::FormatOps *
lookupFormat(const Args &args)
{
    const auto id = option(args, "format");
    if (!id) {
        std::fprintf(stderr, "pstat: --format is required\n");
        return nullptr;
    }
    const auto *format = engine::FormatRegistry::instance().find(*id);
    if (format == nullptr) {
        std::fprintf(stderr,
                     "pstat: unknown format \"%s\" (ids:", id->c_str());
        for (const auto &known :
             engine::FormatRegistry::instance().ids())
            std::fprintf(stderr, " %s", known.c_str());
        std::fprintf(stderr, ")\n");
    }
    return format;
}

/**
 * The --queue flag as a plan queue capacity; nullopt = usage error.
 * Without the flag, PSTAT_QUEUE_CAP overrides the default of 2 —
 * strictly parsed like every knob in engine/env.hh: a malformed or
 * non-positive value warns and keeps the default instead of silently
 * turning into 0 (an unbounded pipeline) or garbage.
 */
std::optional<uint64_t>
queueCapacity(const Args &args)
{
    long fallback = 2;
    if (const char *env = std::getenv("PSTAT_QUEUE_CAP")) {
        const auto parsed = engine::parseLong(env);
        if (parsed && *parsed > 0) {
            fallback = *parsed;
        } else {
            std::fprintf(stderr,
                         "pstat: ignoring invalid PSTAT_QUEUE_CAP "
                         "\"%s\" (keeping %ld)\n",
                         env, fallback);
        }
    }
    const auto queue = optionLong(args, "queue", fallback);
    if (!queue)
        return std::nullopt;
    if (*queue <= 0) {
        std::fprintf(stderr, "pstat: --queue must be positive\n");
        return std::nullopt;
    }
    return static_cast<uint64_t>(*queue);
}

// ---------------------------------------------------------------- gen

int
runGen(const Args &args)
{
    const auto out_dir = option(args, "out");
    if (!out_dir) {
        std::fprintf(stderr, "pstat: gen needs --out DIR\n");
        return 2;
    }
    const auto shards = optionLong(args, "shards", 4);
    const auto columns = optionLong(args, "columns", 1000);
    const auto seed = optionLong(args, "seed", 1);
    if (!shards || !columns || !seed)
        return 2;
    if (*shards <= 0 || *columns <= 0) {
        std::fprintf(stderr,
                     "pstat: --shards/--columns must be positive\n");
        return 2;
    }
    if (*columns > std::numeric_limits<int>::max()) {
        // DatasetConfig::num_columns is an int; a silent narrowing
        // here would wrap huge requests into tiny (or empty) shards.
        std::fprintf(stderr,
                     "pstat: --columns %ld exceeds the per-shard "
                     "limit %d (use more shards)\n",
                     *columns, std::numeric_limits<int>::max());
        return 2;
    }
    const std::string prefix =
        option(args, "prefix").value_or("cols");

    std::error_code dir_error;
    std::filesystem::create_directories(*out_dir, dir_error);
    if (dir_error) {
        std::fprintf(stderr, "pstat: cannot create %s: %s\n",
                     out_dir->c_str(),
                     dir_error.message().c_str());
        return 1;
    }

    for (long s = 0; s < *shards; ++s) {
        pbd::DatasetConfig config;
        config.num_columns = static_cast<int>(*columns);
        // Per-shard seeds and mixes mirror makePaperDatasets: each
        // shard is a coherent dataset slice, not a reshuffle.
        config.median_coverage = 900.0 + 420.0 * (s % 8);
        config.coverage_sigma = 0.55 + 0.05 * (s % 4);
        config.mean_phred = 27.0 + 2.0 * (s % 3);
        config.variant_fraction = 0.055 + 0.006 * (s % 8);
        config.seed = static_cast<uint64_t>(*seed) * 1000003ULL +
                      static_cast<uint64_t>(s);

        char name[64];
        std::snprintf(name, sizeof(name), "%s_%04ld.shard",
                      prefix.c_str(), s);
        const std::string path = *out_dir + "/" + name;
        io::ShardWriter writer(path, io::ShardPayload::Columns);
        pbd::generateColumns(config, [&](pbd::Column &&column) {
            writer.add(column);
        });
        writer.close();
        std::printf("%s: %zu columns, %zu payload bytes\n",
                    path.c_str(), writer.items(),
                    writer.payloadBytes());
    }
    return 0;
}

// --------------------------------------------------------------- info

/** Payload-specific stats line of one Columns shard. */
void
printColumnStats(const io::ShardReader &reader)
{
    if (reader.size() == 0) {
        std::printf("  columns: 0 records\n");
        return;
    }
    int k_min = std::numeric_limits<int>::max();
    int k_max = std::numeric_limits<int>::min();
    size_t cov_min = std::numeric_limits<size_t>::max();
    size_t cov_max = 0;
    for (size_t i = 0; i < reader.size(); ++i) {
        const pbd::ColumnView view = reader.column(i);
        k_min = std::min(k_min, view.k);
        k_max = std::max(k_max, view.k);
        cov_min = std::min(cov_min, view.success_probs.size());
        cov_max = std::max(cov_max, view.success_probs.size());
    }
    std::printf("  columns: %zu records, K %d..%d, coverage "
                "%zu..%zu\n",
                reader.size(), k_min, k_max, cov_min, cov_max);
}

/** Payload-specific stats line of one Sequences shard. */
void
printSequenceStats(const io::ShardReader &reader)
{
    if (reader.size() == 0) {
        std::printf("  sequences: 0 records\n");
        return;
    }
    size_t t_min = std::numeric_limits<size_t>::max();
    size_t t_max = 0;
    size_t observations = 0;
    for (size_t i = 0; i < reader.size(); ++i) {
        const size_t t = reader.sequence(i).size();
        t_min = std::min(t_min, t);
        t_max = std::max(t_max, t);
        observations += t;
    }
    std::printf("  sequences: %zu records, T %zu..%zu, %zu "
                "observations\n",
                reader.size(), t_min, t_max, observations);
}

/** Payload-specific stats lines of one Results shard. */
void
printResultStats(const io::ShardReader &reader)
{
    const uint32_t kernel = reader.resultKernel();
    const char *kernel_name =
        kernel >= 1 && kernel <= 5
            ? engine::planKernelName(
                  static_cast<engine::PlanKernel>(kernel))
            : nullptr;
    if (kernel_name != nullptr)
        std::printf("  results: %zu records, kernel %s, format %s\n",
                    reader.size(), kernel_name,
                    reader.resultFormatId().c_str());
    else
        std::printf("  results: %zu records, kernel unknown(%u), "
                    "format %s\n",
                    reader.size(), kernel,
                    reader.resultFormatId().c_str());
    if (reader.size() == 0)
        return;
    size_t invalid = 0;
    size_t underflows = 0;
    size_t skipped = 0;
    size_t certified = 0;
    std::optional<double> min_log2;
    std::optional<double> max_log2;
    for (size_t i = 0; i < reader.size(); ++i) {
        const io::ShardResultRecord record = reader.result(i);
        if (record.flags & io::result_flag_invalid)
            ++invalid;
        if (record.flags & io::result_flag_underflow)
            ++underflows;
        if (record.flags & io::result_flag_skipped)
            ++skipped;
        if (record.flags & io::result_flag_certified)
            ++certified;
        if (record.flags &
            (io::result_flag_zero | io::result_flag_nan))
            continue;
        const double log2 =
            engine::decodeResultValue(record).value.log2Abs();
        min_log2 = min_log2 ? std::min(*min_log2, log2) : log2;
        max_log2 = max_log2 ? std::max(*max_log2, log2) : log2;
    }
    if (min_log2)
        std::printf("  values: |v| in 2^%.4g .. 2^%.4g\n", *min_log2,
                    *max_log2);
    std::printf("  flags: %zu invalid, %zu underflows, %zu skipped, "
                "%zu certified\n",
                invalid, underflows, skipped, certified);
}

int
runInfo(const Args &args)
{
    if (args.positional.empty()) {
        std::fprintf(stderr, "pstat: info needs shard files\n");
        return 2;
    }
    int failures = 0;
    for (const auto &path : args.positional) {
        try {
            const io::ShardReader reader(path);
            std::printf("%s: v%u %s, %zu records, %zu payload bytes "
                        "(%zu file), CRC ok\n",
                        path.c_str(), reader.version(),
                        io::shardPayloadName(reader.payload()),
                        reader.size(), reader.payloadBytes(),
                        reader.fileBytes());
            switch (reader.payload()) {
            case io::ShardPayload::Columns:
                printColumnStats(reader);
                break;
            case io::ShardPayload::Sequences:
                printSequenceStats(reader);
                break;
            case io::ShardPayload::Results:
                printResultStats(reader);
                break;
            }
        } catch (const io::ShardError &error) {
            std::fprintf(stderr, "pstat: %s\n", error.what());
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

// ----------------------------------------------------- plan execution

/**
 * The report of one `eval` / `screen` run, bound as the run's
 * PlanInputs::sink so a streamed run holds one shard's results at a
 * time: one line per shard as its results arrive, then the policy's
 * `total:` line from the counts kept here (plus the per-tier table of
 * the adaptive policies).
 */
class ReportSink final : public engine::ResultSink
{
  public:
    explicit ReportSink(const engine::EvalPlan &plan) : plan_(plan) {}

    /** Fixed policy: LoFreq 2^-200 variant calls per shard. */
    void
    consumeResults(const engine::WorkBlock &block,
                   std::span<const engine::EvalResult> results) override
    {
        size_t shard_calls = 0;
        for (const auto &r : results) {
            if (r.invalid)
                ++invalid_;
            if (r.underflow)
                ++underflows_;
            if (r.value.isFinite() && r.value < threshold_)
                ++shard_calls;
        }
        calls_ += shard_calls;
        std::printf("%s: %zu columns, %zu calls\n",
                    block.shard->path().c_str(), block.shard->size(),
                    shard_calls);
    }

    /** Screened policy: skips, DP runs and guard hits per shard. */
    void
    consumeScreened(const engine::WorkBlock &block,
                    const engine::ScreenedPValueBatch &batch) override
    {
        screen_ += batch.stats;
        std::printf("%s: %zu columns, %zu skipped, %zu evaluated, %zu "
                    "guard hits\n",
                    block.shard->path().c_str(), batch.stats.columns,
                    batch.stats.skipped, batch.stats.evaluated,
                    batch.stats.guard_band_hits);
    }

    /** Adaptive policies: certification and certified calls. */
    void
    consumeAdaptive(const engine::WorkBlock &block,
                    const engine::AdaptiveBatch &batch) override
    {
        size_t shard_calls = 0;
        if (batch.cert.threshold_log2) {
            const double t = *batch.cert.threshold_log2;
            for (const auto &r : batch.results) {
                if (r.certified && r.interval.hi_log2 < t)
                    ++shard_calls;
            }
        }
        calls_ += shard_calls;
        certified_ += batch.certified;
        uncertified_ += batch.uncertified;
        for (const uint8_t s : batch.skipped)
            skipped_ += s;
        engine::mergeTiers(tiers_, batch.tiers);
        std::printf("%s: %zu columns, %zu certified, %zu "
                    "uncertified, %zu calls\n",
                    block.shard->path().c_str(), block.shard->size(),
                    batch.certified, batch.uncertified, shard_calls);
    }

    /** The policy's `total:` line (and the adaptive tier table). */
    void
    printTotal(const engine::StreamStats &stats, unsigned lanes) const
    {
        switch (plan_.policy) {
        case engine::PlanPolicy::Fixed:
            std::printf("total: %zu shards, %zu columns, %zu variant "
                        "calls (p < 2^-200), %zu invalid, %zu "
                        "underflows [%s, %u lanes, peak queue %zu, "
                        "peak mapped %zu bytes]\n",
                        stats.shards, stats.items, calls_, invalid_,
                        underflows_, plan_.format_id.c_str(), lanes,
                        stats.peak_queue_depth, stats.peak_mapped_bytes);
            return;
        case engine::PlanPolicy::Screened: {
            const double skip_frac =
                screen_.columns > 0
                    ? static_cast<double>(screen_.skipped) /
                          static_cast<double>(screen_.columns)
                    : 0.0;
            std::printf("total: %zu shards, %zu columns, %zu skipped "
                        "(%.1f%%), %zu evaluated, %zu guard hits "
                        "[guard %g bits, %s, %u lanes]\n",
                        stats.shards, screen_.columns, screen_.skipped,
                        100.0 * skip_frac, screen_.evaluated,
                        screen_.guard_band_hits,
                        plan_.screen.guard_band_log2,
                        plan_.format_id.c_str(), lanes);
            return;
        }
        default:
            break;
        }
        std::printf("total: %zu shards, %zu columns, %zu certified, "
                    "%zu uncertified, %zu skipped",
                    stats.shards, stats.items, certified_, uncertified_,
                    skipped_);
        if (plan_.cert.threshold_log2) {
            std::printf(", %zu calls (p < 2^%g)", calls_,
                        *plan_.cert.threshold_log2);
        }
        std::printf(" [%u lanes]\n", lanes);
        for (const engine::TierStats &tier : tiers_) {
            std::printf("  tier %-10s %zu evaluated, %zu certified, "
                        "%zu bypassed, %.2f ms\n",
                        tier.format_id.c_str(), tier.evaluated,
                        tier.certified, tier.bypassed, tier.wall_ms);
        }
    }

  private:
    const engine::EvalPlan &plan_;
    const BigFloat threshold_ = apps::lofreqThreshold();
    size_t calls_ = 0;
    size_t invalid_ = 0;
    size_t underflows_ = 0;
    pbd::ScreenStats screen_;
    size_t certified_ = 0;
    size_t uncertified_ = 0;
    size_t skipped_ = 0;
    std::vector<engine::TierStats> tiers_;
};

/**
 * Execute any CLI-supported plan: the pvalue shard-stream plans of
 * `eval` and `screen` (loaded or flag-built). A ReportSink prints the
 * report; with `-o`, a ShardFileSink bound as the run's result_sink
 * persists every result.
 */
int
executePlan(const engine::EvalPlan &plan,
            const std::optional<std::string> &out = std::nullopt)
{
    if (plan.kernel != engine::PlanKernel::PValue ||
        plan.source != engine::PlanSource::ShardStream) {
        std::fprintf(stderr,
                     "pstat: only pvalue shard-stream plans run "
                     "here, got \"%s\"\n",
                     engine::describePlan(plan).c_str());
        return 2;
    }
    if (plan.shard_paths.empty()) {
        std::fprintf(stderr, "pstat: eval needs shard files\n");
        return 2;
    }
    // Payload tags are checked up front so a wrong input — feeding
    // an `eval -o` *output* shard (or a sequences shard) back into
    // a p-value plan, a replayed --plan-file pointed at the wrong
    // dataset — is a usage error (exit 2) before any work starts,
    // not a mid-stream evaluation failure. Unreadable files pass
    // here: the stream opens them and diagnoses properly.
    for (const auto &path : plan.shard_paths) {
        const auto payload = io::peekShardPayload(path);
        if (payload && *payload != io::ShardPayload::Columns) {
            std::fprintf(stderr,
                         "pstat: %s holds %s records, not the "
                         "columns this plan evaluates\n",
                         path.c_str(),
                         *payload == io::ShardPayload::Results
                             ? "result"
                             : "sequence");
            return 2;
        }
    }

    engine::EvalEngine engine;
    ReportSink report(plan);
    engine::PlanInputs inputs;
    inputs.sink = &report;
    std::optional<engine::ShardFileSink> result_sink;
    if (out) {
        result_sink.emplace(*out, plan.kernel,
                            engine::resultFormatLabel(plan));
        inputs.result_sink = &*result_sink;
    }
    try {
        const auto stats = engine.run(plan, inputs).stream;
        report.printTotal(stats, engine.threadCount());
        if (result_sink)
            std::printf("wrote %s: %zu result records\n", out->c_str(),
                        result_sink->written());
    } catch (const io::ShardError &error) {
        std::fprintf(stderr, "pstat: %s\n", error.what());
        return 1;
    }
    return 0;
}

/**
 * Shared --plan-dump handling: when the flag is present, encode the
 * plan to the given path (no execution). Returns the exit code, or
 * nullopt when no dump was requested and the caller should execute.
 */
std::optional<int>
maybeDumpPlan(const Args &args, const engine::EvalPlan &plan)
{
    const auto dump = option(args, "plan-dump");
    if (!dump)
        return std::nullopt;
    try {
        engine::validatePlan(plan);
        engine::writePlanFile(*dump, plan);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pstat: %s\n", error.what());
        return 1;
    }
    std::printf("plan: %s\n", engine::describePlan(plan).c_str());
    std::printf("wrote %s (%zu bytes)\n", dump->c_str(),
                engine::encodePlan(plan).size());
    return 0;
}

// ---------------------------------------------------- plans from flags

/**
 * PSTAT_COMPENSATED as a plan's summation policy: 1/true/yes/on pick
 * Compensated, 0/false/no/off or an unset (or empty) variable Plain.
 * Strictly parsed: anything else (e.g. "1x") warns and keeps Plain
 * instead of being silently misread.
 */
engine::SumPolicy
sumFromEnv()
{
    const char *env = std::getenv("PSTAT_COMPENSATED");
    if (env == nullptr || env[0] == '\0')
        return engine::SumPolicy::Plain;
    const auto parsed = engine::parseBool(env);
    if (!parsed) {
        std::fprintf(stderr,
                     "pstat: ignoring invalid PSTAT_COMPENSATED="
                     "\"%s\" (want 0/1/true/false/yes/no/on/off)\n",
                     env);
        return engine::SumPolicy::Plain;
    }
    return *parsed ? engine::SumPolicy::Compensated
                   : engine::SumPolicy::Plain;
}

/**
 * The certification of an adaptive plan: the LoFreq threshold of
 * defaultPValueCert(), plus PSTAT_CERT_TOL as the value tolerance
 * when set (a negative finite log2; anything else warns and is
 * ignored), then the --tol / --threshold flags override; nullopt =
 * usage error. Both flags are strictly parsed — a malformed or
 * non-negative tolerance is a usage error, never a silently mangled
 * certification.
 */
std::optional<engine::CertConfig>
parseCertOptions(const Args &args)
{
    engine::CertConfig cert = engine::defaultPValueCert();
    if (const char *env = std::getenv("PSTAT_CERT_TOL")) {
        const auto parsed = engine::parseDouble(env);
        if (parsed && std::isfinite(*parsed) && *parsed < 0.0) {
            cert.tol_rel_log2 = *parsed;
        } else {
            std::fprintf(stderr,
                         "pstat: ignoring invalid PSTAT_CERT_TOL="
                         "\"%s\" (want a negative log2 tolerance)\n",
                         env);
        }
    }
    if (const auto tol = option(args, "tol")) {
        const auto parsed = engine::parseDouble(tol->c_str());
        if (!parsed || !(*parsed < 0.0) || !std::isfinite(*parsed)) {
            std::fprintf(stderr,
                         "pstat: --tol wants a negative log2 "
                         "relative tolerance, got \"%s\"\n",
                         tol->c_str());
            return std::nullopt;
        }
        cert.tol_rel_log2 = *parsed;
    }
    if (const auto thr = option(args, "threshold")) {
        const auto parsed = engine::parseDouble(thr->c_str());
        if (!parsed || !std::isfinite(*parsed)) {
            std::fprintf(stderr,
                         "pstat: --threshold wants a finite log2 "
                         "cutoff, got \"%s\"\n",
                         thr->c_str());
            return std::nullopt;
        }
        cert.threshold_log2 = *parsed;
    }
    return cert;
}

/**
 * The tiers of an adaptive plan into plan.ladder_ids: the --ladder
 * spec, else PSTAT_LADDER, else defaultLadder(). Returns false on a
 * bad --ladder (usage error, already reported); a bad PSTAT_LADDER
 * warns and keeps the default ladder.
 */
bool
applyLadderOption(const Args &args, engine::EvalPlan &plan)
{
    std::optional<engine::Ladder> ladder;
    if (const auto spec = option(args, "ladder")) {
        ladder = engine::parseLadder(*spec);
        if (!ladder) {
            std::fprintf(stderr, "pstat: bad --ladder \"%s\" (ids:",
                         spec->c_str());
            for (const auto &known :
                 engine::FormatRegistry::instance().ids())
                std::fprintf(stderr, " %s", known.c_str());
            std::fprintf(stderr, ")\n");
            return false;
        }
    } else if (const char *env = std::getenv("PSTAT_LADDER")) {
        ladder = engine::parseLadder(env);
        if (!ladder)
            std::fprintf(stderr,
                         "pstat: ignoring invalid PSTAT_LADDER="
                         "\"%s\" (want a comma-separated list of "
                         "registered formats)\n",
                         env);
    }
    for (const engine::FormatOps *tier :
         (ladder ? *ladder : engine::defaultLadder()).tiers)
        plan.ladder_ids.push_back(tier->id());
    return true;
}

/**
 * The screen configuration of `screen` / `request --screen`:
 * PSTAT_GUARD_BITS sets the default band, --guard-bits overrides.
 * Strictly parsed: std::atof once read "64x" and "banana" as valid
 * bands (64 and 0, the latter silently disabling the guard), so a
 * bad env value warns and keeps the default, and a bad flag is a
 * usage error.
 */
std::optional<pbd::ScreenConfig>
parseScreenOptions(const Args &args)
{
    pbd::ScreenConfig screen;
    if (const char *env = std::getenv("PSTAT_GUARD_BITS")) {
        if (const auto parsed = engine::parseDouble(env)) {
            screen.guard_band_log2 = *parsed;
        } else {
            std::fprintf(stderr,
                         "pstat: ignoring invalid PSTAT_GUARD_BITS "
                         "\"%s\" (keeping %g)\n",
                         env, screen.guard_band_log2);
        }
    }
    if (const auto guard = option(args, "guard-bits")) {
        const auto parsed = engine::parseDouble(guard->c_str());
        if (!parsed) {
            std::fprintf(stderr,
                         "pstat: --guard-bits wants a number, got "
                         "\"%s\"\n",
                         guard->c_str());
            return std::nullopt;
        }
        screen.guard_band_log2 = *parsed;
    }
    return screen;
}

/**
 * The one flags-to-plan function of `eval`, `screen` and `request`;
 * nullopt = usage error, already reported. `eval` and `screen` build
 * a shard-stream plan over the positional shards, `request` a memory
 * plan for the columns it sends. `eval --adaptive` and
 * `request --adaptive` build the adaptive policies, `screen` and
 * `request --screen` the screened ones.
 *
 * Every default that moves a result bit is resolved here and
 * recorded in the plan: the summation policy (PSTAT_COMPENSATED),
 * the adaptive tiers (--ladder, else PSTAT_LADDER, else
 * defaultLadder()), the adaptive tolerance (--tol, else
 * PSTAT_CERT_TOL) and the guard band (--guard-bits, else
 * PSTAT_GUARD_BITS). This is the only reader of those four variables,
 * and it reads them on every call, so a dumped plan, a --plan-file
 * replay and a daemon request compute the same bits whatever the
 * environment of the process that runs them.
 */
std::optional<engine::EvalPlan>
planFromFlags(const std::string &command, const Args &args)
{
    const bool adaptive = option(args, "adaptive").has_value();
    const bool screened =
        command == "screen" || option(args, "screen").has_value();

    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    if (adaptive) {
        if (option(args, "format")) {
            std::fprintf(stderr,
                         "pstat: --format conflicts with --adaptive "
                         "(use --ladder to pick the tiers)\n");
            return std::nullopt;
        }
        plan.policy = screened ? engine::PlanPolicy::ScreenedAdaptive
                               : engine::PlanPolicy::Adaptive;
    } else {
        const auto *format = lookupFormat(args);
        if (format == nullptr)
            return std::nullopt;
        plan.format_id = format->id();
        plan.policy = screened ? engine::PlanPolicy::Screened
                               : engine::PlanPolicy::Fixed;
    }
    if (command == "request") {
        plan.source = engine::PlanSource::Memory;
    } else {
        const auto queue = queueCapacity(args);
        if (!queue)
            return std::nullopt;
        plan.source = engine::PlanSource::ShardStream;
        plan.queue_capacity = *queue;
        plan.shard_paths = args.positional;
    }
    if (adaptive) {
        const auto cert = parseCertOptions(args);
        if (!cert)
            return std::nullopt;
        plan.cert = *cert;
        if (!applyLadderOption(args, plan))
            return std::nullopt;
    }
    if (screened) {
        const auto screen = parseScreenOptions(args);
        if (!screen)
            return std::nullopt;
        plan.screen = *screen;
    }
    plan.sum = sumFromEnv();
    return plan;
}

// --------------------------------------------------------------- eval

int
runEval(const Args &args)
{
    // --plan-file: replay a dumped plan. Positional shards override
    // the plan's own paths; any other flag would silently fight the
    // loaded plan, so the combination is rejected.
    if (const auto plan_path = option(args, "plan-file")) {
        for (const auto &[name, value] : args.options) {
            // --out is a runtime binding (where results land), not
            // plan configuration, so it composes with a replay.
            if (name != "plan-file" && name != "plan-dump" &&
                name != "out") {
                std::fprintf(stderr,
                             "pstat: --%s conflicts with "
                             "--plan-file (the plan already "
                             "carries the configuration)\n",
                             name.c_str());
                return 2;
            }
        }
        engine::EvalPlan plan;
        try {
            plan = engine::readPlanFile(*plan_path);
        } catch (const engine::PlanError &error) {
            std::fprintf(stderr, "pstat: %s\n", error.what());
            return 1;
        }
        if (!args.positional.empty())
            plan.shard_paths = args.positional;
        if (const auto dumped = maybeDumpPlan(args, plan))
            return *dumped;
        return executePlan(plan, option(args, "out"));
    }

    const auto plan = planFromFlags("eval", args);
    if (!plan)
        return 2;
    if (const auto dumped = maybeDumpPlan(args, *plan))
        return *dumped;
    return executePlan(*plan, option(args, "out"));
}

// ------------------------------------------------------------- screen

int
runScreen(const Args &args)
{
    const auto plan = planFromFlags("screen", args);
    if (!plan)
        return 2;
    if (const auto dumped = maybeDumpPlan(args, *plan))
        return *dumped;
    if (plan->shard_paths.empty()) {
        std::fprintf(stderr, "pstat: screen needs shard files\n");
        return 2;
    }
    return executePlan(*plan, option(args, "out"));
}

// -------------------------------------------------------------- serve

/**
 * One PSTAT_SERVE_* environment default, strictly parsed like every
 * knob in engine/env.hh: a malformed or non-positive value warns and
 * keeps the built-in default instead of silently becoming garbage.
 */
long
serveEnvDefault(const char *name, long fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    const auto parsed = engine::parseLong(env);
    if (parsed && *parsed > 0)
        return *parsed;
    std::fprintf(stderr,
                 "pstat: ignoring invalid %s \"%s\" (keeping %ld)\n",
                 name, env, fallback);
    return fallback;
}

/** Self-pipe of the serve signal handler (async-signal-safe). */
int g_serve_signal_pipe[2] = {-1, -1};

extern "C" void
serveSignalHandler(int)
{
    const char byte = 1;
    // The return value is irrelevant: a full pipe still means a
    // signal is already pending.
    [[maybe_unused]] const ssize_t n =
        ::write(g_serve_signal_pipe[1], &byte, 1);
}

int
runServe(const Args &args)
{
    const auto socket_path = option(args, "socket");
    const auto tcp = optionLong(args, "tcp", -1);
    if (!tcp)
        return 2;
    if (!socket_path && *tcp < 0) {
        std::fprintf(stderr,
                     "pstat: serve needs --socket PATH and/or "
                     "--tcp PORT\n");
        return 2;
    }

    serve::ServerConfig config;
    if (socket_path)
        config.unix_path = *socket_path;
    config.tcp_port = static_cast<int>(*tcp);
    // Environment defaults (strict-parsed), flags override.
    config.queue_capacity = static_cast<size_t>(serveEnvDefault(
        "PSTAT_SERVE_QUEUE",
        static_cast<long>(config.queue_capacity)));
    config.coalesce_max = static_cast<size_t>(serveEnvDefault(
        "PSTAT_SERVE_COALESCE",
        static_cast<long>(config.coalesce_max)));
    config.max_frame_bytes = static_cast<uint64_t>(serveEnvDefault(
        "PSTAT_SERVE_MAX_FRAME",
        static_cast<long>(config.max_frame_bytes)));
    const auto queue = optionLong(
        args, "queue", static_cast<long>(config.queue_capacity));
    const auto coalesce = optionLong(
        args, "coalesce", static_cast<long>(config.coalesce_max));
    const auto stall = optionLong(args, "stall-ms", 0);
    if (!queue || !coalesce || !stall)
        return 2;
    if (*queue <= 0 || *coalesce <= 0 || *stall < 0) {
        std::fprintf(stderr,
                     "pstat: --queue/--coalesce must be positive "
                     "and --stall-ms non-negative\n");
        return 2;
    }
    config.queue_capacity = static_cast<size_t>(*queue);
    config.coalesce_max = static_cast<size_t>(*coalesce);
    config.stall_ms = static_cast<uint64_t>(*stall);

    if (::pipe(g_serve_signal_pipe) != 0) {
        std::fprintf(stderr, "pstat: pipe: %s\n",
                     std::strerror(errno));
        return 1;
    }
    struct sigaction action = {};
    action.sa_handler = serveSignalHandler;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    // A client that disconnects mid-response must not kill the
    // daemon; the write error is handled at the frame layer.
    ::signal(SIGPIPE, SIG_IGN);

    try {
        serve::Server server(config);
        if (!config.unix_path.empty())
            std::printf("pstat serve: listening on %s\n",
                        config.unix_path.c_str());
        if (config.tcp_port >= 0)
            std::printf("pstat serve: listening on 127.0.0.1:%u\n",
                        server.tcpPort());
        std::printf("pstat serve: queue %zu, coalesce %zu\n",
                    config.queue_capacity, config.coalesce_max);
        std::fflush(stdout);

        char byte = 0;
        while (::read(g_serve_signal_pipe[0], &byte, 1) < 0 &&
               errno == EINTR) {
        }
        std::printf("pstat serve: shutting down (draining)\n");
        server.stop();
        const serve::ServerStats stats = server.stats();
        std::printf("pstat serve: served %llu, rejected %llu, "
                    "expired %llu, errors %llu, batches %llu, "
                    "columns %llu\n",
                    static_cast<unsigned long long>(stats.served),
                    static_cast<unsigned long long>(stats.rejected),
                    static_cast<unsigned long long>(stats.expired),
                    static_cast<unsigned long long>(stats.errors),
                    static_cast<unsigned long long>(stats.batches),
                    static_cast<unsigned long long>(stats.columns));
    } catch (const serve::FrameError &error) {
        std::fprintf(stderr, "pstat: %s\n", error.what());
        return 1;
    }
    return 0;
}

// ------------------------------------------------------------ request

int
runRequest(const Args &args)
{
    const auto socket_path = option(args, "socket");
    const auto tcp = optionLong(args, "tcp", -1);
    if (!tcp)
        return 2;
    if (!socket_path && *tcp < 0) {
        std::fprintf(stderr,
                     "pstat: request needs --socket PATH or "
                     "--tcp PORT\n");
        return 2;
    }
    if (args.positional.empty()) {
        std::fprintf(stderr, "pstat: request needs shard files\n");
        return 2;
    }
    const auto deadline = optionLong(args, "deadline-ms", 0);
    if (!deadline)
        return 2;
    if (*deadline < 0) {
        std::fprintf(stderr,
                     "pstat: --deadline-ms must be non-negative\n");
        return 2;
    }

    const auto plan = planFromFlags("request", args);
    if (!plan)
        return 2;
    serve::ServeRequest request;
    request.id = 1;
    request.deadline_ms = static_cast<uint64_t>(*deadline);
    request.plan = *plan;
    try {
        for (const std::string &path : args.positional)
            for (pbd::Column &column : io::readColumnShard(path))
                request.columns.push_back(std::move(column));
    } catch (const io::ShardError &error) {
        std::fprintf(stderr, "pstat: %s\n", error.what());
        return 2;
    }

    ::signal(SIGPIPE, SIG_IGN);

    serve::ServeResponse response;
    try {
        serve::Client client =
            socket_path
                ? serve::Client::connectUnix(*socket_path)
                : serve::Client::connectTcp(
                      "127.0.0.1", static_cast<uint16_t>(*tcp));
        response = client.roundTrip(request);
    } catch (const serve::FrameError &error) {
        std::fprintf(stderr, "pstat: %s\n", error.what());
        return 1;
    }

    switch (response.status) {
    case serve::RequestStatus::Rejected:
        std::fprintf(stderr, "pstat: request rejected: %s\n",
                     response.message.c_str());
        return 3;
    case serve::RequestStatus::Expired:
        std::fprintf(stderr, "pstat: request expired: %s\n",
                     response.message.c_str());
        return 4;
    case serve::RequestStatus::Error:
        std::fprintf(stderr, "pstat: request failed: %s\n",
                     response.message.c_str());
        return 1;
    case serve::RequestStatus::Ok:
        break;
    }

    size_t invalid = 0;
    size_t underflows = 0;
    size_t skipped = 0;
    size_t certified = 0;
    for (const serve::ResponseRecord &record : response.records) {
        if (record.flags & io::result_flag_invalid)
            ++invalid;
        if (record.flags & io::result_flag_underflow)
            ++underflows;
        if (record.flags & io::result_flag_skipped)
            ++skipped;
        if (record.flags & io::result_flag_certified)
            ++certified;
    }
    std::printf("response: %zu records [%s], %zu invalid, %zu "
                "underflows, %zu skipped, %zu certified\n",
                response.records.size(), response.format_id.c_str(),
                invalid, underflows, skipped, certified);

    if (const auto out = option(args, "out")) {
        try {
            // The exact writer `pstat eval -o` uses underneath
            // (engine::ShardFileSink), so the persisted shard is
            // byte-identical to the offline output of the same plan.
            io::ShardWriter writer(*out, response.kernel,
                                   response.format_id);
            for (const serve::ResponseRecord &record :
                 response.records)
                writer.addResult(record.toShardRecord());
            writer.close();
            std::printf("wrote %s: %zu result records\n",
                        out->c_str(), response.records.size());
        } catch (const std::exception &error) {
            std::fprintf(stderr, "pstat: %s\n", error.what());
            return 1;
        }
    }
    return 0;
}

} // namespace

namespace pstat::apps
{

int
pstatMain(int argc, const char *const *argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help")
        return usage(stdout);

    std::vector<std::string> known;
    std::vector<std::string> flags;
    if (command == "gen")
        known = {"out", "shards", "columns", "seed", "prefix"};
    else if (command == "info")
        known = {};
    else if (command == "eval") {
        known = {"format", "queue", "ladder", "tol", "threshold",
                 "plan-dump", "plan-file", "out"};
        flags = {"adaptive"};
    } else if (command == "screen")
        known = {"format", "queue", "guard-bits", "plan-dump", "out"};
    else if (command == "serve")
        known = {"socket", "tcp", "queue", "coalesce", "stall-ms"};
    else if (command == "request") {
        known = {"socket",    "tcp",         "format",
                 "guard-bits", "ladder",      "tol",
                 "threshold",  "deadline-ms", "out"};
        flags = {"adaptive", "screen"};
    } else {
        std::fprintf(stderr, "pstat: unknown command \"%s\"\n",
                     command.c_str());
        return usage(stderr);
    }

    const auto args = parseArgs(argc, argv, 2, known, flags);
    if (!args)
        return 2;

    try {
        if (command == "gen")
            return runGen(*args);
        if (command == "info")
            return runInfo(*args);
        if (command == "eval")
            return runEval(*args);
        if (command == "serve")
            return runServe(*args);
        if (command == "request")
            return runRequest(*args);
        return runScreen(*args);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pstat: %s\n", error.what());
        return 1;
    }
}

} // namespace pstat::apps
