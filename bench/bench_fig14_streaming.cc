/**
 * @file
 * Figure 14 (extension): sharded dataset I/O and the streaming
 * evaluation pipeline — what it costs to never hold the dataset.
 *
 * Every evaluation here goes through EvalEngine::run on an explicit
 * EvalPlan (engine/plan.hh) — the streamed and in-memory runs differ
 * only in the plan's source field.
 *
 * (a) Shard-size sweep: the same column dataset written as shards of
 *     growing size, evaluated as a shard-stream plan (bounded
 *     producer/consumer pipeline, mmap-backed zero-copy shards) vs
 *     the in-memory plan on the fully materialized dataset.
 *     Tiny shards pay per-shard dispatch overhead; one giant shard
 *     degenerates to the in-memory footprint. The sweep maps the
 *     trade-off, reporting throughput, the pipeline's actual memory
 *     bound (largest mapped shard, peak queue depth), and process
 *     peak RSS.
 * (b) Format tier: streamed vs in-memory across the registered
 *     64/32-bit tier at a fixed shard size, with a per-column
 *     bit-identity check (the streaming contract).
 * (c) HMM forward streaming: observation-sequence shards through a
 *     forward shard-stream plan vs the in-memory forward plan on the
 *     phylo model, with the same bit-identity check.
 *
 * Knobs: PSTAT_SCALE scales the workloads, PSTAT_THREADS the lanes,
 * PSTAT_FIG14_QUEUE the stream's queue capacity (default 2).
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "engine/plan.hh"
#include "hmm/generator.hh"
#include "io/shard.hh"
#include "io/shard_stream.hh"
#include "pbd/dataset.hh"
#include "stats/table.hh"

namespace
{

using namespace pstat;

/** Streamed-vs-batch agreement on values and validity flags. */
bool
bitIdentical(const std::vector<engine::EvalResult> &got,
             const std::vector<engine::EvalResult> &want)
{
    if (got.size() != want.size())
        return false;
    for (size_t i = 0; i < got.size(); ++i) {
        if (!(got[i].value == want[i].value) ||
            got[i].invalid != want[i].invalid ||
            got[i].underflow != want[i].underflow)
            return false;
    }
    return true;
}

/** Write `columns` as shards of `shard_columns` each; return paths. */
std::vector<std::string>
writeShards(const std::filesystem::path &dir, const std::string &stem,
            const std::vector<pbd::Column> &columns,
            size_t shard_columns)
{
    std::vector<std::string> paths;
    size_t index = 0;
    for (size_t begin = 0; begin < columns.size();
         begin += shard_columns) {
        const size_t end =
            std::min(begin + shard_columns, columns.size());
        char name[64];
        std::snprintf(name, sizeof(name), "%s_%04zu.shard",
                      stem.c_str(), index++);
        const std::string path = (dir / name).string();
        io::ShardWriter writer(path, io::ShardPayload::Columns);
        for (size_t i = begin; i < end; ++i)
            writer.add(columns[i]);
        writer.close();
        paths.push_back(path);
    }
    if (paths.empty()) { // zero columns still yields one valid shard
        const std::string path = (dir / (stem + "_0000.shard")).string();
        io::ShardWriter writer(path, io::ShardPayload::Columns);
        writer.close();
        paths.push_back(path);
    }
    return paths;
}

struct StreamRun
{
    std::vector<engine::EvalResult> results;
    engine::StreamStats stats;
    double wall_ms = 0.0;
};

StreamRun
runStream(const engine::FormatOps &format,
          const std::vector<std::string> &paths, size_t queue_capacity,
          engine::EvalEngine &engine)
{
    StreamRun out;
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::ShardStream;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = format.id();
    plan.sum = engine::PlanSum::Plain;
    plan.shard_paths = paths;
    plan.queue_capacity = queue_capacity;
    engine::PlanInputs inputs;
    inputs.format = &format;
    // run() opens the shard stream itself, so the timer covers the
    // same span the hand-rolled pipeline did.
    const bench::WallTimer timer;
    engine::PlanRun run = engine.run(plan, inputs);
    out.wall_ms = timer.elapsedMs();
    out.results = std::move(run.results);
    out.stats = run.stream;
    return out;
}

/** The in-memory reference batch as a PValue x Memory plan. */
std::vector<engine::EvalResult>
runMemory(const engine::FormatOps &format,
          std::span<const pbd::Column> columns,
          engine::EvalEngine &engine)
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = format.id();
    plan.sum = engine::PlanSum::Plain;
    engine::PlanInputs inputs;
    inputs.columns = columns;
    inputs.format = &format;
    return engine.run(plan, inputs).results;
}

} // namespace

int
main()
{
    using namespace pstat;
    stats::printBanner("Figure 14 (extension): sharded I/O + "
                       "streaming evaluation pipeline");

    const bench::WallTimer total_timer;
    const size_t queue_capacity = static_cast<size_t>(
        bench::envInt("PSTAT_FIG14_QUEUE", 2));
    const int cols = bench::scaled(900, 200);

    // One coherent dataset, written as shards of several sizes.
    pbd::DatasetConfig config;
    config.num_columns = cols;
    config.median_coverage = 700.0;
    config.coverage_sigma = 0.5;
    config.mean_phred = 26.0;
    config.variant_fraction = 0.08;
    config.seed = 1409;
    const auto dataset = pbd::makeDataset(config, "F14");
    size_t dataset_bytes = 0;
    for (const auto &column : dataset.columns)
        dataset_bytes += column.success_probs.size() * sizeof(double) +
                         sizeof(pbd::Column);

    engine::EvalEngine engine;
    std::printf("dataset: %zu columns (~%.1f MiB materialized), "
                "queue capacity %zu, eval lanes %u\n",
                dataset.columns.size(),
                static_cast<double>(dataset_bytes) / (1024.0 * 1024.0),
                queue_capacity, engine.threadCount());

    const auto shard_dir =
        std::filesystem::temp_directory_path() /
        ("pstat_fig14_" + std::to_string(::getpid()));
    std::filesystem::create_directories(shard_dir);

    const auto &registry = engine::FormatRegistry::instance();

    // ---- (a) shard size vs throughput, streamed vs in-memory
    std::printf("\n--- (a) shard size vs streaming throughput ---\n");
    std::vector<bench::Json> sweep_records;
    double headline_overhead = 0.0;
    bool all_bit_identical = true;
    {
        stats::TextTable table({"format", "shard cols", "shards",
                                "batch ms", "stream ms", "overhead",
                                "cols/s", "peak queue",
                                "max shard KiB"});
        const std::vector<size_t> shard_sizes = {
            32, 128, 512, dataset.columns.size()};
        for (const char *id : {"log", "log32"}) {
            const auto &format = registry.at(id);

            // In-memory reference: the whole dataset in one batch.
            std::vector<engine::EvalResult> want;
            const double batch_ms =
                bench::timeStats(2, [&] {
                    want = runMemory(format, dataset.columns, engine);
                }).min_ms;

            for (const size_t shard_columns : shard_sizes) {
                const auto paths = writeShards(
                    shard_dir,
                    std::string(id) + "_" +
                        std::to_string(shard_columns),
                    dataset.columns, shard_columns);
                StreamRun best;
                best.wall_ms = 1.0e300;
                for (int rep = 0; rep < 2; ++rep) {
                    auto run = runStream(format, paths,
                                         queue_capacity, engine);
                    if (run.wall_ms < best.wall_ms)
                        best = std::move(run);
                }
                const bool identical =
                    bitIdentical(best.results, want);
                all_bit_identical = all_bit_identical && identical;
                const double overhead =
                    batch_ms > 0.0 ? best.wall_ms / batch_ms : 0.0;
                const double cols_per_s =
                    best.wall_ms > 0.0
                        ? 1000.0 *
                              static_cast<double>(best.stats.items) /
                              best.wall_ms
                        : 0.0;
                if (std::string(id) == "log" &&
                    shard_columns == 128)
                    headline_overhead = overhead;
                table.addRow(
                    {format.id(), std::to_string(shard_columns),
                     std::to_string(paths.size()),
                     stats::formatDouble(batch_ms, 1),
                     stats::formatDouble(best.wall_ms, 1),
                     stats::formatDouble(overhead, 2),
                     stats::formatDouble(cols_per_s, 0),
                     std::to_string(best.stats.peak_queue_depth),
                     std::to_string(best.stats.peak_mapped_bytes /
                                    1024)});
                sweep_records.push_back(
                    bench::Json()
                        .add("format", format.id())
                        .add("shard_columns", shard_columns)
                        .add("shards", paths.size())
                        .add("batch_ms", batch_ms)
                        .add("stream_ms", best.wall_ms)
                        .add("stream_over_batch_ms_ratio", overhead)
                        .add("columns_per_s", cols_per_s)
                        .add("peak_queue_depth",
                             best.stats.peak_queue_depth)
                        .add("peak_mapped_bytes",
                             best.stats.peak_mapped_bytes)
                        .add("bit_identical", identical));
            }
        }
        table.print();
        std::printf("(overhead = stream ms / in-memory batch ms; the "
                    "peak mapped column is the pipeline's whole "
                    "dataset footprint)\n");
    }

    // ---- (b) the registered 64/32-bit tier at one shard size
    std::printf("\n--- (b) streamed vs in-memory across the format "
                "tier (128-column shards) ---\n");
    std::vector<bench::Json> format_records;
    {
        const auto paths = writeShards(shard_dir, "tier",
                                       dataset.columns, 128);
        stats::TextTable table({"format", "batch ms", "stream ms",
                                "overhead", "bit-identical"});
        for (const auto &[label, id] :
             std::initializer_list<
                 std::pair<const char *, const char *>>{
                 {"binary64", "binary64"},
                 {"Log", "log"},
                 {"posit(64,9)", "posit64_9"},
                 {"posit(64,12)", "posit64_12"},
                 {"posit(64,18)", "posit64_18"},
                 {"binary32", "binary32"},
                 {"log32", "log32"},
                 {"posit(32,2)", "posit32_2"},
                 {"bfloat16", "bfloat16"}}) {
            const auto &format = registry.at(id);
            const bench::WallTimer batch_timer;
            const auto want =
                runMemory(format, dataset.columns, engine);
            const double batch_ms = batch_timer.elapsedMs();
            const auto run = runStream(format, paths, queue_capacity,
                                       engine);
            const bool identical = bitIdentical(run.results, want);
            all_bit_identical = all_bit_identical && identical;
            const double overhead =
                batch_ms > 0.0 ? run.wall_ms / batch_ms : 0.0;
            table.addRow({label, stats::formatDouble(batch_ms, 1),
                          stats::formatDouble(run.wall_ms, 1),
                          stats::formatDouble(overhead, 2),
                          identical ? "yes" : "NO"});
            format_records.push_back(
                bench::Json()
                    .add("format", label)
                    .add("batch_ms", batch_ms)
                    .add("stream_ms", run.wall_ms)
                    .add("stream_over_batch_ms_ratio", overhead)
                    .add("bit_identical", identical));
        }
        table.print();
    }

    // ---- (c) HMM forward over sequence shards
    std::printf("\n--- (c) forward streaming over sequence shards "
                "---\n");
    std::vector<bench::Json> forward_records;
    {
        stats::Rng rng(5347);
        hmm::PhyloConfig phylo;
        const hmm::Model model = hmm::makePhyloModel(rng, phylo);
        const int sequences = bench::scaled(48, 12);
        const int steps = bench::scaled(160, 60);
        std::vector<std::vector<int>> obs;
        for (int i = 0; i < sequences; ++i)
            obs.push_back(
                hmm::sampleObservations(rng, model, steps));

        std::vector<std::string> paths;
        for (int s = 0; s * 16 < sequences; ++s) {
            char name[32];
            std::snprintf(name, sizeof(name), "seq_%04d.shard", s);
            const std::string path = (shard_dir / name).string();
            io::ShardWriter writer(path,
                                   io::ShardPayload::Sequences);
            for (int i = 16 * s;
                 i < std::min(16 * (s + 1), sequences); ++i)
                writer.addSequence(obs[i]);
            writer.close();
            paths.push_back(path);
        }

        std::vector<engine::ForwardJob> jobs;
        for (const auto &seq : obs)
            jobs.push_back({&model, seq});

        stats::TextTable table({"format", "batch ms", "stream ms",
                                "bit-identical"});
        for (const char *id : {"log", "log32"}) {
            const auto &format = registry.at(id);
            engine::EvalPlan batch_plan;
            batch_plan.kernel = engine::PlanKernel::Forward;
            batch_plan.source = engine::PlanSource::Memory;
            batch_plan.policy = engine::PlanPolicy::Fixed;
            batch_plan.format_id = format.id();
            engine::PlanInputs batch_inputs;
            batch_inputs.jobs = jobs;
            batch_inputs.format = &format;
            const bench::WallTimer batch_timer;
            const auto want =
                engine.run(batch_plan, batch_inputs).results;
            const double batch_ms = batch_timer.elapsedMs();

            engine::EvalPlan stream_plan;
            stream_plan.kernel = engine::PlanKernel::Forward;
            stream_plan.source = engine::PlanSource::ShardStream;
            stream_plan.policy = engine::PlanPolicy::Fixed;
            stream_plan.format_id = format.id();
            stream_plan.shard_paths = paths;
            stream_plan.queue_capacity = queue_capacity;
            engine::PlanInputs stream_inputs;
            stream_inputs.model = &model;
            stream_inputs.format = &format;
            const bench::WallTimer stream_timer;
            const auto got =
                engine.run(stream_plan, stream_inputs).results;
            const double stream_ms = stream_timer.elapsedMs();
            const bool identical = bitIdentical(got, want);
            all_bit_identical = all_bit_identical && identical;
            table.addRow({format.id(),
                          stats::formatDouble(batch_ms, 1),
                          stats::formatDouble(stream_ms, 1),
                          identical ? "yes" : "NO"});
            forward_records.push_back(
                bench::Json()
                    .add("format", format.id())
                    .add("sequences", obs.size())
                    .add("batch_ms", batch_ms)
                    .add("stream_ms", stream_ms)
                    .add("bit_identical", identical));
        }
        table.print();
    }

    std::filesystem::remove_all(shard_dir);

    const double wall_ms = total_timer.elapsedMs();
    const size_t rss_kib = bench::peakRssKib();
    std::printf("\nheadline: streaming overhead %.2fx on log at "
                "128-column shards; every streamed result "
                "bit-identical to the in-memory path: %s\n",
                headline_overhead,
                all_bit_identical ? "yes" : "NO");
    std::printf("process peak RSS %zu KiB (the bench itself "
                "materializes the dataset for the comparison; the "
                "streamed path alone maps one shard at a time)\n",
                rss_kib);
    std::printf("wall time: %.0f ms\n", wall_ms);

    bench::writeBenchJson(
        "fig14_streaming",
        bench::Json()
            .add("bench", "fig14_streaming")
            .add("wall_ms", wall_ms)
            .add("eval_lanes", static_cast<int>(engine.threadCount()))
            .add("columns_total", dataset.columns.size())
            .add("dataset_bytes", dataset_bytes)
            .add("queue_capacity", queue_capacity)
            .add("rss_peak_kib", rss_kib)
            .add("headline_stream_overhead", headline_overhead)
            .add("all_bit_identical", all_bit_identical)
            .add("shard_sweep", sweep_records)
            .add("formats", format_records)
            .add("forward", forward_records));
    return all_bit_identical ? 0 : 1;
}
