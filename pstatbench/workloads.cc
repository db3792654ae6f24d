#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "apps/pstat_cli.hh"
#include "core/accuracy.hh"
#include "engine/eval_engine.hh"
#include "engine/plan.hh"
#include "engine/result_sink.hh"
#include "hmm/generator.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "serve/client.hh"
#include "serve/routing_sink.hh"
#include "serve/server.hh"
#include "trace.hh"

namespace pstatbench
{

namespace
{

namespace fs = std::filesystem;
using namespace pstat;


/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 5;

/** Wall time of each set-up phase, one set-up. */
struct SetupTimes
{
    double generate_ms = 0.0;
    double shard_write_ms = 0.0;
    double reference_ms = 0.0;
    double server_start_ms = 0.0;
    double total_ms = 0.0;
};

/** setup_s (untraced) or the setup.* phase medians (traced). */
void
reportSetup(const std::vector<SetupTimes> &setups, bool trace,
            Report &report)
{
    const auto phase = [&](double SetupTimes::*field) {
        std::vector<double> values;
        for (const SetupTimes &times : setups)
            values.push_back(times.*field);
        return median(values);
    };
    if (!trace) {
        report.set("setup_s", phase(&SetupTimes::total_ms) / 1000.0, "s");
        return;
    }
    report.set("setup.generate_ms", phase(&SetupTimes::generate_ms), "ms");
    report.set("setup.shard_write_ms", phase(&SetupTimes::shard_write_ms),
               "ms");
    report.set("setup.reference_ms", phase(&SetupTimes::reference_ms),
               "ms");
    report.set("setup.server_start_ms",
               phase(&SetupTimes::server_start_ms), "ms");
}

/** Per-iteration samples of per-layer metrics, reported as medians. */
class LayerSeries
{
  public:
    void
    add(const std::string &name, const char *unit, double value)
    {
        for (Series &series : series_)
            if (series.name == name) {
                series.values.push_back(value);
                return;
            }
        series_.push_back({name, unit, {value}});
    }

    void
    report(Report &report) const
    {
        for (const Series &series : series_)
            report.set(series.name, median(series.values), series.unit);
    }

  private:
    struct Series
    {
        std::string name;
        std::string unit;
        std::vector<double> values;
    };
    std::vector<Series> series_;
};

/**
 * Call iteration(i) until @p seconds have passed; returns what each
 * call returned (its timed wall, ms).
 */
template <typename Iteration>
std::vector<double>
timedLoop(double seconds, Iteration &&iteration)
{
    std::vector<double> walls;
    const Clock::time_point start = Clock::now();
    while (msSince(start) < seconds * 1000.0)
        walls.push_back(iteration(walls.size()));
    return walls;
}

/** Tracing state of one timed operation (tracer null: untraced). */
struct Probe
{
    Tracer *tracer = nullptr;
    uint64_t request = 0;
    double wall_ms = 0.0; //!< the operation as its user waits for it
    RunLayers layers;     //!< filled by traced runs
};

/**
 * EvalEngine::run, wrapped in a RunTrace (bound as the run's result
 * sink, forwarding to the caller's) when the probe traces.
 */
engine::PlanRun
execute(engine::EvalEngine &engine, const engine::EvalPlan &plan,
        engine::PlanInputs inputs, Probe &probe)
{
    if (probe.tracer == nullptr)
        return engine.run(plan, inputs);
    RunTrace trace(engine.executor(), engine.threadCount(),
                   inputs.result_sink);
    inputs.result_sink = &trace;
    trace.start();
    engine::PlanRun out = engine.run(plan, inputs);
    probe.layers = trace.publish(*probe.tracer, probe.request);
    return out;
}

/** A Fixed x Memory p-value plan, as `pstat request --format id` builds. */
engine::EvalPlan
fixedMemoryPlan(const std::string &format_id)
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = format_id;
    return plan;
}

/** Reference 2^-200 calls of every column, from the scaled_dd format. */
std::vector<uint8_t>
referenceCalls(engine::EvalEngine &engine,
               const std::vector<pbd::Column> &columns)
{
    engine::PlanInputs inputs;
    inputs.columns = columns;
    const auto results =
        engine.run(fixedMemoryPlan("scaled_dd"), inputs).results;
    const BigFloat threshold = BigFloat::twoPow(
        static_cast<int64_t>(kThresholdLog2));
    std::vector<uint8_t> below(results.size());
    for (size_t i = 0; i < results.size(); ++i)
        below[i] = results[i].value < threshold ? 1 : 0;
    return below;
}

/** DP multiply-adds of one column, N * max(K, 1) (Fig 7/8 convention). */
uint64_t
mulAdds(const pbd::Column &column)
{
    return static_cast<uint64_t>(column.coverage()) *
           static_cast<uint64_t>(std::max(column.k, 1));
}

/**
 * Bytes one column's p-value DP touches, computed from array sizes:
 * the N input probabilities, plus one 8-byte state read and one write
 * per multiply-add. Not measured.
 */
uint64_t
computedBytes(const pbd::Column &column)
{
    return 8 * static_cast<uint64_t>(column.coverage()) +
           16 * mulAdds(column);
}

// ------------------------------------------------------ batch workloads

/**
 * A workload whose operation is one EvalEngine::run over a fixed input
 * (closed loop: the next run starts when the previous one returns).
 */
class BatchWorkload
{
  public:
    explicit BatchWorkload(unsigned lanes) : engine_(lanes) {}
    virtual ~BatchWorkload() = default;

    BatchWorkload(const BatchWorkload &) = delete;
    BatchWorkload &operator=(const BatchWorkload &) = delete;

    /** Generate the inputs from the seed under dir; time each phase. */
    virtual void setup(uint64_t seed, const std::string &dir,
                       SetupTimes &times) = 0;
    /** Items one operation completes. */
    virtual size_t items() const = 0;
    /** What the items are (report text). */
    virtual const char *itemName() const = 0;
    /** One operation; sets probe.wall_ms. */
    virtual void run(Probe &probe) = 0;
    /** Check the last operation's outputs into the report's tally. */
    virtual void check(Report &report) = 0;
    /** Workload-specific per-layer samples after a traced operation. */
    virtual void layers(const Probe &, LayerSeries &) {}
    /** Checks that need the whole timed phase to be over. */
    virtual void finalCheck(Report &) {}

    unsigned lanes() const { return engine_.threadCount(); }

  protected:
    engine::EvalEngine engine_;
};

/**
 * LoFreq-profile Columns shards streamed through PValue x ShardStream x
 * Fixed in `log`, with a result shard written as `pstat eval -o` does.
 * Small shards, so io, source, the executor barrier and the sink all
 * carry a real share of each run.
 */
class LofreqStream final : public BatchWorkload
{
  public:
    using BatchWorkload::BatchWorkload;

    static constexpr size_t kShards = 32;
    static constexpr size_t kShardColumns = 32;
    static constexpr size_t kVariantEvery = 16;

    void
    setup(uint64_t seed, const std::string &dir,
          SetupTimes &times) override
    {
        // Background columns of the LoFreq profile, with one variant
        // column every kVariantEvery whose p-value lies just below the
        // 2^-200 call threshold (targets stratified over 200..320
        // bits). The deep-tail variants of pbd::makeDataset are left
        // out, and coverage spreads less than in fig14: one deep
        // variant can carry 40% of a run's multiply-adds, and a run's
        // cost should depend on the code, not on the seed.
        Clock::time_point start = Clock::now();
        const size_t total = kShards * kShardColumns;
        const size_t variants = total / kVariantEvery;
        pbd::DatasetConfig config;
        config.num_columns = static_cast<int>(total - variants);
        config.median_coverage = 700.0;
        config.coverage_sigma = 0.25;
        config.mean_phred = 26.0;
        config.variant_fraction = 0.0;
        config.seed = seed;
        auto background = pbd::makeDataset(config, "lofreq-stream").columns;
        stats::Rng rng(seed ^ 0x6c6f66726571ULL);
        columns_.clear();
        for (size_t i = 0, b = 0, v = 0; i < total; ++i) {
            if (i % kVariantEvery != kVariantEvery / 2) {
                columns_.push_back(std::move(background[b++]));
                continue;
            }
            const double bits =
                200.0 + 120.0 * (static_cast<double>(v++) + rng.uniform()) /
                            static_cast<double>(variants);
            columns_.push_back(pbd::makeColumnWithTarget(rng, bits));
        }
        times.generate_ms = msSince(start);

        start = Clock::now();
        paths_.clear();
        for (size_t s = 0; s < kShards; ++s) {
            const std::string path =
                dir + "/in_" + std::to_string(s) + ".shard";
            io::ShardWriter writer(path, io::ShardPayload::Columns);
            for (size_t i = s * kShardColumns;
                 i < (s + 1) * kShardColumns; ++i)
                writer.add(columns_[i]);
            writer.close();
            paths_.push_back(path);
        }
        times.shard_write_ms = msSince(start);

        plan_ = dumpEvalPlan(dir + "/plan.bin");
        out_path_ = dir + "/out.shard";

        start = Clock::now();
        ref_below_ = referenceCalls(engine_, columns_);
        times.reference_ms = msSince(start);

        muladds_ = 0;
        bytes_computed_ = 0;
        for (const pbd::Column &column : columns_) {
            muladds_ += mulAdds(column);
            bytes_computed_ += computedBytes(column);
        }
    }

    size_t items() const override { return columns_.size(); }
    const char *itemName() const override { return "columns"; }

    void
    run(Probe &probe) override
    {
        const Clock::time_point start = Clock::now();
        engine::ShardFileSink sink(out_path_, plan_.kernel,
                                   engine::resultFormatLabel(plan_));
        engine::PlanInputs inputs;
        inputs.result_sink = &sink;
        last_ = execute(engine_, plan_, inputs, probe);
        probe.wall_ms = msSince(start);
    }

    void
    check(Report &report) override
    {
        report.tally(columns_.size(),
                     callFailures(last_.results, ref_below_));
    }

    void
    layers(const Probe &probe, LayerSeries &series) override
    {
        // The stream opens its shards on its producer thread, out of
        // reach of the benchmark, so the io layer is timed on the same
        // files through the same public entry point right after.
        double open_ms = 0.0;
        size_t bytes = 0;
        for (const std::string &path : paths_) {
            const Clock::time_point start = Clock::now();
            const io::ShardReader reader(path);
            open_ms += msSince(start);
            bytes += reader.fileBytes();
        }
        series.add("io.open_ms", "ms", open_ms);
        series.add("io.bytes_read", "B", static_cast<double>(bytes));
        series.add("kernel.muladds", "count",
                   static_cast<double>(muladds_));
        series.add("kernel.mmaps", "Mmadd/s",
                   probe.layers.busy_ms > 0.0
                       ? static_cast<double>(muladds_) /
                             (probe.layers.busy_ms * 1000.0)
                       : 0.0);
        series.add("kernel.bytes_computed", "B",
                   static_cast<double>(bytes_computed_));
        series.add("sink.bytes_written", "B",
                   static_cast<double>(fs::file_size(out_path_)));
    }

    /** The last result shard must decode to the last run's results. */
    void
    finalCheck(Report &report) override
    {
        const engine::ResultShardData data =
            engine::readResultShard(out_path_);
        const size_t n = last_.results.size();
        size_t failed = data.results.size() == n ? 0 : n;
        for (size_t i = 0; failed < n && i < data.results.size(); ++i)
            if (!(data.results[i].value == last_.results[i].value) ||
                data.results[i].invalid != last_.results[i].invalid ||
                data.results[i].underflow != last_.results[i].underflow)
                ++failed;
        report.tally(n, failed);
    }

  private:
    /** The plan `pstat eval --format log` builds over these shards. */
    engine::EvalPlan
    dumpEvalPlan(const std::string &plan_path) const
    {
        std::vector<std::string> args = {"pstat", "eval", "--format",
                                         "log", "--plan-dump", plan_path};
        args.insert(args.end(), paths_.begin(), paths_.end());
        std::vector<const char *> argv;
        for (const std::string &arg : args)
            argv.push_back(arg.c_str());
        if (apps::pstatMain(static_cast<int>(argv.size()), argv.data()) !=
            0)
            throw std::runtime_error("pstat eval --plan-dump failed");
        return engine::readPlanFile(plan_path);
    }

    std::vector<pbd::Column> columns_;
    std::vector<std::string> paths_;
    std::string out_path_;
    engine::EvalPlan plan_;
    std::vector<uint8_t> ref_below_;
    engine::PlanRun last_;
    uint64_t muladds_ = 0;
    uint64_t bytes_computed_ = 0;
};

/**
 * fig16-profile columns (deep coverage plus a borderline slice near
 * 2^-200) decided in memory under the default Adaptive ladder, the plan
 * `pstat request --adaptive` sends. Escalation does most of the work;
 * io and the sink do none.
 */
class AdaptiveDecide final : public BatchWorkload
{
  public:
    using BatchWorkload::BatchWorkload;

    static constexpr int kDatasets = 6;
    static constexpr int kColumnsPerDataset = 180;

    void
    setup(uint64_t seed, const std::string &, SetupTimes &times) override
    {
        Clock::time_point start = Clock::now();
        columns_.clear();
        for (int d = 0; d < kDatasets; ++d) {
            pbd::DatasetConfig config;
            config.num_columns = kColumnsPerDataset;
            config.median_coverage = 1800.0 + 250.0 * d;
            config.coverage_sigma = 0.40;
            config.mean_phred = 22.0 + 1.0 * (d % 3);
            config.phred_sigma = 3.0;
            // No deep-tail variants: they certify analytically, but
            // their scaled_dd reference would make set-up cost swing
            // with the seed.
            config.variant_fraction = 0.0;
            config.seed = seed + 97ULL * static_cast<uint64_t>(d);
            auto dataset = pbd::makeDataset(config, "adaptive-decide");
            stats::Rng rng(seed * 31ULL + 7907ULL +
                           static_cast<uint64_t>(d));
            // The borderline slice, stratified over 150..260 bits.
            const int borderline = kColumnsPerDataset / 5;
            for (int i = 0; i < borderline; ++i)
                dataset.columns.push_back(pbd::makeColumnWithTarget(
                    rng, 150.0 + 110.0 * (i + rng.uniform()) / borderline));
            for (pbd::Column &column : dataset.columns)
                columns_.push_back(std::move(column));
        }
        times.generate_ms = msSince(start);

        // The default ladder without its first tier, as `pstat request
        // --adaptive --ladder binary32,binary64,log,scaled_dd` sends
        // it. The emulated bfloat16 DP runs through float subnormals on
        // some columns: one such column cost 12 ms of a 25 ms run, so
        // with it the run's cost was a property of the seed.
        plan_.kernel = engine::PlanKernel::PValue;
        plan_.source = engine::PlanSource::Memory;
        plan_.policy = engine::PlanPolicy::Adaptive;
        plan_.cert = engine::defaultPValueCert();
        plan_.ladder_ids = {"binary32", "binary64", "log", "scaled_dd"};

        start = Clock::now();
        ref_below_ = referenceCalls(engine_, columns_);
        times.reference_ms = msSince(start);
    }

    size_t items() const override { return columns_.size(); }
    const char *itemName() const override { return "decisions"; }

    void
    run(Probe &probe) override
    {
        const Clock::time_point start = Clock::now();
        engine::PlanInputs inputs;
        inputs.columns = columns_;
        last_ = execute(engine_, plan_, inputs, probe);
        probe.wall_ms = msSince(start);
    }

    void
    check(Report &report) override
    {
        report.tally(columns_.size(),
                     decisionFailures(last_.adaptive, ref_below_));
    }

    void
    layers(const Probe &, LayerSeries &series) override
    {
        const auto &tiers = last_.adaptive.tiers;
        const auto find = [&](const std::string &id) {
            const auto it = std::find_if(
                tiers.begin(), tiers.end(),
                [&](const engine::TierStats &t) { return t.format_id == id; });
            return it == tiers.end() ? engine::TierStats{} : *it;
        };
        const engine::TierStats analytic = find("analytic");
        series.add("escalate.analytic_ms", "ms", analytic.wall_ms);
        series.add("escalate.analytic_certified", "count",
                   static_cast<double>(analytic.certified));
        for (const engine::FormatOps *format :
             engine::defaultLadder().tiers) {
            const engine::TierStats tier = find(format->id());
            const std::string key = "escalate." + format->id();
            series.add(key + ".evaluated", "count",
                       static_cast<double>(tier.evaluated));
            series.add(key + ".certified", "count",
                       static_cast<double>(tier.certified));
            series.add(key + ".ms", "ms", tier.wall_ms);
            series.add(key + ".certify_ratio", "ratio",
                       tier.evaluated == 0
                           ? 0.0
                           : static_cast<double>(tier.certified) /
                                 static_cast<double>(tier.evaluated));
        }

        // The ROADMAP's acceptance ratio: a Fixed binary64 plan on the
        // same columns against the adaptive plan, both untraced and
        // back to back.
        engine::PlanInputs inputs;
        inputs.columns = columns_;
        Clock::time_point start = Clock::now();
        const engine::PlanRun adaptive = engine_.run(plan_, inputs);
        const double adaptive_ms = msSince(start);
        start = Clock::now();
        const engine::PlanRun binary64 =
            engine_.run(fixedMemoryPlan("binary64"), inputs);
        const double binary64_ms = msSince(start);
        series.add("escalate.speedup_vs_binary64", "ratio",
                   binary64_ms / adaptive_ms);
    }

  private:
    std::vector<pbd::Column> columns_;
    engine::EvalPlan plan_;
    std::vector<uint8_t> ref_below_;
    engine::PlanRun last_;
};

/**
 * HMM forward likelihoods of seeded phylo-model sequences, Forward x
 * Memory x Fixed in `log` with the Accelerator (n-ary LSE) dataflow:
 * the only workload that reaches hmm and the striped LSE.
 */
class PhyloForward final : public BatchWorkload
{
  public:
    using BatchWorkload::BatchWorkload;

    static constexpr int kSequences = 48;
    static constexpr size_t kSteps = 300;

    void
    setup(uint64_t seed, const std::string &, SetupTimes &times) override
    {
        Clock::time_point start = Clock::now();
        stats::Rng rng(seed);
        model_ = hmm::makePhyloModel(rng, hmm::PhyloConfig{});
        sequences_.clear();
        for (int i = 0; i < kSequences; ++i)
            sequences_.push_back(
                hmm::sampleObservations(rng, model_, kSteps));
        jobs_.clear();
        cells_ = 0;
        const uint64_t states = static_cast<uint64_t>(model_.num_states);
        for (const std::vector<int> &obs : sequences_) {
            jobs_.push_back({&model_, obs});
            cells_ += obs.size() * states * states;
        }
        times.generate_ms = msSince(start);

        plan_.kernel = engine::PlanKernel::Forward;
        plan_.source = engine::PlanSource::Memory;
        plan_.policy = engine::PlanPolicy::Fixed;
        plan_.format_id = "log";
        plan_.dataflow = engine::Dataflow::Accelerator;

        start = Clock::now();
        engine::EvalPlan reference_plan = plan_;
        reference_plan.format_id = "scaled_dd";
        engine::PlanInputs inputs;
        inputs.jobs = jobs_;
        reference_.clear();
        for (const engine::EvalResult &result :
             engine_.run(reference_plan, inputs).results)
            reference_.push_back(result.value);
        times.reference_ms = msSince(start);
    }

    size_t items() const override { return jobs_.size(); }
    const char *itemName() const override { return "sequences"; }

    void
    run(Probe &probe) override
    {
        const Clock::time_point start = Clock::now();
        engine::PlanInputs inputs;
        inputs.jobs = jobs_;
        last_ = execute(engine_, plan_, inputs, probe);
        probe.wall_ms = msSince(start);
    }

    void
    check(Report &report) override
    {
        report.tally(jobs_.size(),
                     likelihoodFailures(last_.results, reference_));
    }

    void
    layers(const Probe &probe, LayerSeries &series) override
    {
        series.add("hmm.cells", "count", static_cast<double>(cells_));
        series.add("hmm.cell_updates_per_s", "1/s",
                   probe.layers.busy_ms > 0.0
                       ? static_cast<double>(cells_) /
                             (probe.layers.busy_ms / 1000.0)
                       : 0.0);
    }

  private:
    hmm::Model model_;
    std::vector<std::vector<int>> sequences_;
    std::vector<engine::ForwardJob> jobs_;
    engine::EvalPlan plan_;
    std::vector<BigFloat> reference_;
    engine::PlanRun last_;
    uint64_t cells_ = 0;
};

/** Set up several times, then the timed phase (see README.md). */
void
runBatch(BatchWorkload &workload, const Options &options, Report &report)
{
    std::vector<SetupTimes> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::string dir = "setup" + std::to_string(rep);
        fs::create_directories(dir);
        SetupTimes times;
        const Clock::time_point start = Clock::now();
        workload.setup(options.seed, dir, times);
        Probe warm;
        workload.run(warm);
        workload.check(report);
        times.total_ms = msSince(start);
        setups.push_back(times);
        if (rep > 0)
            fs::remove_all("setup" + std::to_string(rep - 1));
    }
    reportSetup(setups, options.trace, report);

    const auto untraced = [&](size_t) {
        Probe probe;
        workload.run(probe);
        workload.check(report);
        return probe.wall_ms;
    };

    if (!options.trace) {
        const Summary runs =
            summarize(timedLoop(options.seconds, untraced));
        workload.finalCheck(report);
        report.set("throughput_per_s",
                   static_cast<double>(workload.items()) /
                       (runs.median / 1000.0),
                   "1/s");
        report.set("p50_ms", runs.median, "ms");
        report.set("peak_rss_mib", peakRssMib(), "MiB");
        note("%s: %u lanes, %zu runs of %zu %s: median %.4f ms, p%d "
             "%.4f ms (%zu samples)",
             options.workload.c_str(), workload.lanes(), runs.samples,
             workload.items(), workload.itemName(), runs.median,
             runs.tail_pct, runs.tail, runs.samples);
        return;
    }

    // Traced run: untraced and traced operations alternate, so the
    // overhead base sees the same machine as the traced operations.
    Tracer tracer;
    LayerSeries series;
    std::vector<double> plain_walls;
    std::vector<double> traced_walls;
    timedLoop(options.seconds, [&](size_t i) {
        if (i % 2 == 0) {
            plain_walls.push_back(untraced(i));
            return plain_walls.back();
        }
        Probe probe;
        probe.tracer = &tracer;
        probe.request = i;
        workload.run(probe);
        workload.check(report);
        const RunLayers &run = probe.layers;
        series.add("source.wait_ms", "ms", run.wait_ms);
        series.add("source.blocks", "count", static_cast<double>(run.blocks));
        series.add("exec.busy_ms", "ms", run.busy_ms);
        series.add("exec.chunks", "count", static_cast<double>(run.chunks));
        series.add("exec.span_ms", "ms", run.span_ms);
        series.add("exec.utilization", "ratio",
                   run.span_ms > 0.0
                       ? run.busy_ms / (workload.lanes() * run.span_ms)
                       : 0.0);
        series.add("exec.tail_ms", "ms", run.tail_ms);
        series.add("sink.consume_ms", "ms", run.consume_ms);
        workload.layers(probe, series);
        traced_walls.push_back(probe.wall_ms);
        return probe.wall_ms;
    });
    const double plain_ms = median(plain_walls);
    workload.finalCheck(report);
    series.report(report);

    // Self time per span name; "run" self time is what the source,
    // executor and sink spans leave unexplained.
    const std::map<std::string, double> self = tracer.selfTimes();
    double run_total = 0.0;
    for (const Span &span : tracer.spans())
        if (std::string(span.name) == "run")
            run_total += span.end_ms - span.start_ms;
    const auto selfOf = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const double traced_ms = median(traced_walls);
    report.set("trace.overhead", traced_ms / plain_ms, "ratio");
    report.set("trace.accounted",
               run_total > 0.0 ? 1.0 - selfOf("run") / run_total : 0.0,
               "ratio");
    note("%s traced: %zu runs, median %.4f ms traced vs %.4f ms "
         "untraced",
         options.workload.c_str(), traced_walls.size(), traced_ms,
         plain_ms);
    for (const auto &[name, ms] : self)
        note("  self time %-13s %10.3f ms (%.1f%% of run spans)",
             name.c_str(), ms,
             run_total > 0.0 ? 100.0 * ms / run_total : 0.0);
    if (!options.trace_out.empty() && !tracer.write(options.trace_out))
        note("warning: could not write spans to %s",
             options.trace_out.c_str());
}

// ------------------------------------------------------- serve-openloop

/** The open-loop p99 latency limit a ladder rate must hold. */
constexpr double kLatencyLimitMs = 20.0;
/** The two fixed rates of serve-openloop, requests per second. */
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 8000.0;
/** Server lanes, and the CPUs the daemon is pinned to. */
constexpr unsigned kServerLanes = 1;
/** CPUs the pinned layout needs: the server's, a sender, a receiver. */
constexpr unsigned kServeCpus = kServerLanes + 2;
/**
 * Restrict the calling thread, and the threads it starts from now on,
 * to CPUs [first, first + count). Returns false (and changes nothing)
 * when the machine has fewer CPUs than the layout needs.
 */
bool
pinThread(unsigned first, unsigned count)
{
    if (std::thread::hardware_concurrency() < kServeCpus)
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned cpu = first; cpu < first + count; ++cpu)
        CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

/** Measurement rounds of an untraced serve-openloop run. */
constexpr int kRounds = 8;
/** Requests kept in flight when measuring the daemon's capacity. */
constexpr size_t kInFlight = 64;
/** Columns per request (small, so the protocol dominates). */
constexpr int kRequestColumns = 8;
/**
 * Admission-queue bound. Every request of a step fits, so overload
 * shows up as latency and backlog; a rejection is a failed request.
 */
constexpr size_t kServeQueue = 1 << 16;

/** Requests per latency window (p99 with ten samples beyond it). */
constexpr size_t kLatencyWindow = 1000;

/** The max_rps ladder: 1000 * 2^(i/16) requests per second, to 64k. */
std::vector<double>
rateLadder()
{
    std::vector<double> rates;
    for (int i = 0; i <= 96; ++i)
        rates.push_back(std::round(1000.0 * std::exp2(i / 16.0)));
    return rates;
}

/** One open-loop step at a fixed rate. */
struct Step
{
    double rate = 0.0;
    size_t sent = 0;
    size_t failed = 0;
    /** From the intended send time, per kLatencyWindow window. */
    Summary latency;
    Summary whole;            //!< the same over the whole step
    Summary lag;              //!< how late the generator sent
    std::vector<double> send_us;
    size_t queue_depth_max = 0;
    bool aborted = false;     //!< stopped sending: too far behind
    bool backlog = false;     //!< queue or lag still rising at the end
    uint64_t served = 0;      //!< ServerStats delta
    uint64_t batches = 0;     //!< ServerStats delta

    bool
    holds() const
    {
        return !backlog && failed == 0 && latency.tail_pct == 99 &&
               latency.tail <= kLatencyLimitMs;
    }
};

/** Median of values[begin, end). */
double
rangeMedian(const std::vector<double> &values, size_t begin, size_t end)
{
    return median(std::vector<double>(
        values.begin() + static_cast<std::ptrdiff_t>(begin),
        values.begin() + static_cast<std::ptrdiff_t>(end)));
}

/**
 * The daemon behind a Unix socket plus one client connection, driven
 * open-loop: one sender thread releases requests on a fixed schedule
 * and one receiver thread collects the responses, so latency is taken
 * from each request's intended send time.
 */
class ServeOpenLoop
{
  public:
    explicit ServeOpenLoop(const Options &options)
        : options_(options), engine_(options.lanes)
    {
    }

    ~ServeOpenLoop() { shutdown(); }

    ServeOpenLoop(const ServeOpenLoop &) = delete;
    ServeOpenLoop &operator=(const ServeOpenLoop &) = delete;

    void
    setup(const std::string &dir, SetupTimes &times)
    {
        shutdown();
        Clock::time_point start = Clock::now();
        // An allele-fraction scan of a short region: every column has
        // the same coverage and K, so a request costs the same whatever
        // the seed draws for its read probabilities.
        pbd::DatasetConfig config;
        config.num_columns = kRequestColumns;
        config.median_coverage = 120.0;
        config.coverage_sigma = 0.0;
        config.seed = options_.seed;
        request_.plan = fixedMemoryPlan("binary64");
        request_.columns =
            pbd::makeScanDataset(config, 0.05, "serve").columns;
        times.generate_ms = msSince(start);

        start = Clock::now();
        serve::ServerConfig server_config;
        server_config.unix_path = dir + "/serve.sock";
        server_config.queue_capacity = kServeQueue;
        server_config.threads = std::min(options_.lanes, kServerLanes);
        // The daemon's threads inherit the CPUs of the thread that
        // starts them: the server gets its own, then the sending (this)
        // thread and each receiving thread get one each, so the load
        // generator never runs on the server's CPUs. Left to the
        // scheduler, the daemon's capacity flipped between two modes
        // (about 13k and 33k responses/s) from run to run.
        pinned_ = pinThread(0, kServerLanes);
        server_ = std::make_unique<serve::Server>(server_config);
        if (pinned_)
            pinThread(kServerLanes, 1);
        client_.emplace(serve::Client::connectUnix(server_config.unix_path));
        times.server_start_ms = msSince(start);

        // The in-process run of the same request, encoded by the same
        // RoutingSink the daemon demultiplexes with.
        start = Clock::now();
        serve::RoutingSink routing;
        engine::PlanInputs inputs;
        inputs.columns = request_.columns;
        inputs.result_sink = &routing;
        engine_.run(request_.plan, inputs);
        expected_ = routing.records();
        times.reference_ms = msSince(start);
    }

    /** Closed-loop round trips: warm-up, and the server_ms floor. */
    std::vector<double>
    roundTrips(size_t count, Report &report, Tracer *tracer)
    {
        std::vector<double> walls;
        size_t failed = 0;
        for (size_t i = 0; i < count; ++i) {
            request_.id = next_id_++;
            const Clock::time_point start = Clock::now();
            client_->send(request_);
            const Clock::time_point sent = Clock::now();
            const serve::ServeResponse response = client_->receive();
            const Clock::time_point end = Clock::now();
            walls.push_back(msBetween(start, end));
            if (!responseMatches(response, expected_) ||
                response.id != request_.id)
                ++failed;
            if (tracer != nullptr) {
                const int64_t trip = tracer->add(
                    "serve.roundtrip", start, end, kNoParent, request_.id);
                tracer->add("client.send", start, sent, trip, request_.id);
                tracer->add("client.receive", sent, end, trip,
                            request_.id);
            }
        }
        report.tally(count, failed);
        return walls;
    }

    Step
    step(double rate, double seconds, Report &report, Tracer *tracer)
    {
        Step out;
        out.rate = rate;
        const size_t n = std::max<size_t>(
            1, static_cast<size_t>(std::llround(rate * seconds)));
        const auto interval = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate));
        const uint64_t base = next_id_;
        next_id_ += n;
        // Stop sending once this many requests are unanswered: the
        // rate cannot hold the latency limit, and a longer queue would
        // only lengthen the drain.
        const size_t max_outstanding = std::max<size_t>(
            64, static_cast<size_t>(4.0 * rate * kLatencyLimitMs / 1000.0));

        std::vector<double> latency(n, -1.0);
        std::vector<std::atomic<int64_t>> spans(tracer != nullptr ? n : 0);
        std::vector<double> lag;
        lag.reserve(n);
        std::mutex mutex;
        std::condition_variable cv;
        size_t sent = 0;
        bool done = false;
        std::atomic<size_t> received{0};
        size_t failed = 0;
        std::exception_ptr receive_error; // read after the join only
        std::atomic<bool> receiver_failed{false};
        const serve::ServerStats before = server_->stats();
        const Clock::time_point start =
            Clock::now() + std::chrono::milliseconds(1);

        std::thread receiver([&] {
            if (pinned_)
                pinThread(kServerLanes + 1, 1);
            try {
                for (;;) {
                    {
                        std::unique_lock<std::mutex> lock(mutex);
                        cv.wait(lock, [&] {
                            return done || received.load() < sent;
                        });
                        if (received.load() == sent)
                            return; // done, and nothing outstanding
                    }
                    const serve::ServeResponse response =
                        client_->receive();
                    const Clock::time_point now = Clock::now();
                    const uint64_t index = response.id - base;
                    if (index < n) {
                        latency[index] =
                            msBetween(start + interval * index, now);
                        if (tracer != nullptr)
                            tracer->close(spans[index].load(
                                              std::memory_order_acquire),
                                          now);
                    }
                    if (index >= n || !responseMatches(response, expected_))
                        ++failed;
                    received.fetch_add(1);
                }
            } catch (...) {
                receive_error = std::current_exception();
                receiver_failed.store(true);
            }
        });

        try {
            for (size_t i = 0; i < n; ++i) {
                const Clock::time_point due = start + interval * i;
                std::this_thread::sleep_until(due);
                const Clock::time_point now = Clock::now();
                lag.push_back(msBetween(due, now));
                if (receiver_failed.load() ||
                    i - received.load() > max_outstanding) {
                    out.aborted = true;
                    break;
                }
                request_.id = base + i;
                if (tracer != nullptr) {
                    out.queue_depth_max = std::max(out.queue_depth_max,
                                                   server_->queueDepth());
                    spans[i].store(tracer->open("serve.request", due,
                                                kNoParent, request_.id),
                                   std::memory_order_release);
                }
                client_->send(request_);
                if (tracer != nullptr) {
                    const Clock::time_point sent_at = Clock::now();
                    out.send_us.push_back(1000.0 * msBetween(now, sent_at));
                    tracer->add("client.send", now, sent_at,
                                spans[i].load(std::memory_order_relaxed),
                                request_.id);
                }
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    ++sent;
                }
                cv.notify_one();
            }
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(mutex);
                done = true;
            }
            cv.notify_one();
            receiver.join();
            throw;
        }
        {
            const std::lock_guard<std::mutex> lock(mutex);
            done = true;
        }
        cv.notify_one();
        receiver.join();
        if (receive_error)
            std::rethrow_exception(receive_error);

        const serve::ServerStats after = server_->stats();
        out.served = after.served - before.served;
        out.batches = after.batches - before.batches;
        out.sent = sent;
        out.failed = failed;
        report.tally(sent, failed);

        std::vector<double> completed;
        for (double ms : latency)
            if (ms >= 0.0)
                completed.push_back(ms);
        out.latency = windowedSummary(completed, kLatencyWindow);
        out.whole = summarize(completed);
        out.lag = summarize(lag);
        // A growing backlog: latency (or the generator's lag) at the
        // end of the step well above where the step began.
        const size_t m = completed.size();
        const size_t k = lag.size();
        const bool latency_rising =
            m >= 20 && rangeMedian(completed, m - m / 10, m) >
                           2.0 * rangeMedian(completed, 0, m / 2) + 1.0;
        const bool lag_rising =
            k >= 20 && rangeMedian(lag, k - k / 10, k) >
                           2.0 * rangeMedian(lag, 0, k / 2) + 1.0;
        out.backlog = out.aborted || latency_rising || lag_rising;
        return out;
    }

    /** The highest ladder rate that holds the limit (binary search). */
    double
    maxRate(double probe_seconds, Report &report)
    {
        const std::vector<double> ladder = rateLadder();
        int lo = -1;
        int hi = static_cast<int>(ladder.size());
        while (hi - lo > 1) {
            const int mid = (lo + hi) / 2;
            const Step probe = step(ladder[static_cast<size_t>(mid)],
                                    probe_seconds, report, nullptr);
            note("  ladder %7.0f req/s: p99 %.3f ms over %zu, %s",
                 probe.rate, probe.latency.tail, probe.latency.samples,
                 probe.holds() ? "holds"
                 : probe.backlog ? "backlog grows"
                                 : "misses the limit");
            (probe.holds() ? lo : hi) = mid;
        }
        return lo < 0 ? 0.0 : ladder[static_cast<size_t>(lo)];
    }

    /**
     * Responses per second with @p window requests kept in flight for
     * @p seconds: the daemon's capacity on one connection, at a
     * latency of window / capacity by Little's law.
     */
    double
    saturate(double seconds, size_t window, Report &report)
    {
        std::mutex mutex;
        std::condition_variable cv;
        size_t sent = 0;
        size_t received = 0;
        size_t failed = 0;
        bool done = false;
        bool dead = false;
        std::exception_ptr receive_error;
        Clock::time_point last = Clock::now();
        std::thread receiver([&] {
            if (pinned_)
                pinThread(kServerLanes + 1, 1);
            try {
                for (;;) {
                    {
                        std::unique_lock<std::mutex> lock(mutex);
                        cv.wait(lock, [&] { return done || received < sent; });
                        if (received == sent)
                            return;
                    }
                    const serve::ServeResponse response = client_->receive();
                    const bool ok = responseMatches(response, expected_);
                    {
                        const std::lock_guard<std::mutex> lock(mutex);
                        ++received;
                        failed += ok ? 0 : 1;
                        last = Clock::now();
                    }
                    cv.notify_all();
                }
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex);
                receive_error = std::current_exception();
                dead = true;
            }
            cv.notify_all();
        });

        const Clock::time_point start = Clock::now();
        const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
        try {
            while (Clock::now() < stop) {
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    cv.wait(lock, [&] { return dead || sent - received < window; });
                    if (dead)
                        break;
                }
                request_.id = next_id_++;
                client_->send(request_);
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    ++sent;
                }
                cv.notify_all();
            }
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(mutex);
                done = true;
            }
            cv.notify_all();
            receiver.join();
            throw;
        }
        {
            const std::lock_guard<std::mutex> lock(mutex);
            done = true;
        }
        cv.notify_all();
        receiver.join();
        if (receive_error)
            std::rethrow_exception(receive_error);
        report.tally(sent, failed);
        return static_cast<double>(received) / (msBetween(start, last) / 1000.0);
    }

    /** Per-call medians of the four body codecs, in microseconds. */
    struct Codecs
    {
        double encode_request_us = 0.0;
        double encode_response_us = 0.0;
        double decode_request_us = 0.0;
        double decode_response_us = 0.0;
    };

    Codecs
    codecs(size_t calls)
    {
        serve::ServeResponse response;
        response.status = serve::RequestStatus::Ok;
        response.kernel = static_cast<uint32_t>(request_.plan.kernel);
        response.format_id = engine::resultFormatLabel(request_.plan);
        response.records = expected_;
        std::vector<double> times[4];
        const auto lap = [&](int which, Clock::time_point &since) {
            const Clock::time_point now = Clock::now();
            times[which].push_back(1000.0 * msBetween(since, now));
            since = now;
        };
        for (size_t i = 0; i < calls; ++i) {
            Clock::time_point since = Clock::now();
            const auto request_body = serve::encodeRequestBody(request_);
            lap(0, since);
            const auto response_body = serve::encodeResponseBody(response);
            lap(1, since);
            const auto decoded_request =
                serve::decodeRequestBody(request_body);
            lap(2, since);
            const auto decoded_response =
                serve::decodeResponseBody(response_body);
            lap(3, since);
            if (decoded_request.columns.size() != request_.columns.size() ||
                !responseMatches(decoded_response, expected_))
                throw std::runtime_error("serve codec round trip failed");
        }
        return {median(times[0]), median(times[1]), median(times[2]),
                median(times[3])};
    }

    /** Median in-process EvalEngine::run of the request, ms. */
    double
    evalFloor(size_t runs)
    {
        engine::PlanInputs inputs;
        inputs.columns = request_.columns;
        std::vector<double> walls;
        for (size_t i = 0; i < runs; ++i) {
            const Clock::time_point start = Clock::now();
            engine_.run(request_.plan, inputs);
            walls.push_back(msSince(start));
        }
        return median(walls);
    }

    serve::ServerStats stats() const { return server_->stats(); }

  private:
    void
    shutdown()
    {
        client_.reset();
        if (server_) {
            server_->stop();
            server_.reset();
        }
    }

    const Options &options_;
    engine::EvalEngine engine_;
    serve::ServeRequest request_;
    std::vector<serve::ResponseRecord> expected_;
    std::unique_ptr<serve::Server> server_;
    std::optional<serve::Client> client_;
    uint64_t next_id_ = 1;
    bool pinned_ = false;
};

void
noteStep(const char *label, const Step &step)
{
    note("  %-4s %6.0f req/s: %zu sent; per %zu-request window p50 "
         "%.4f ms, p%d %.4f ms; whole step p50 %.4f ms, p%d %.4f ms "
         "(%zu samples); lag p%d %.3f ms; %llu served in %llu batches%s",
         label, step.rate, step.sent, kLatencyWindow, step.latency.median,
         step.latency.tail_pct, step.latency.tail, step.whole.median,
         step.whole.tail_pct, step.whole.tail, step.whole.samples,
         step.lag.tail_pct, step.lag.tail,
         static_cast<unsigned long long>(step.served),
         static_cast<unsigned long long>(step.batches),
         step.backlog ? ", BACKLOG GROWING" : "");
}

void
runServe(const Options &options, Report &report)
{
    ServeOpenLoop serve(options);
    std::vector<SetupTimes> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::string dir = "setup" + std::to_string(rep);
        fs::create_directories(dir);
        SetupTimes times;
        const Clock::time_point start = Clock::now();
        serve.setup(dir, times);
        serve.roundTrips(200, report, nullptr);
        times.total_ms = msSince(start);
        setups.push_back(times);
        if (rep > 0)
            fs::remove_all("setup" + std::to_string(rep - 1));
    }
    reportSetup(setups, options.trace, report);
    const double s = options.seconds;

    if (!options.trace) {
        // Rounds interleave the two measurements over the whole run, so
        // a slow spell of the shared machine lands in a few rounds of
        // each instead of in all of one; each figure is the median
        // over rounds.
        std::vector<double> capacity;
        std::vector<double> high_p50;
        for (int round = 0; round < kRounds; ++round) {
            capacity.push_back(
                serve.saturate(0.4 * s / kRounds, kInFlight, report));
            const Step high =
                serve.step(kHighRate, 0.5 * s / kRounds, report, nullptr);
            noteStep("high", high);
            high_p50.push_back(high.latency.median);
        }
        report.set("throughput_per_s", median(capacity), "1/s");
        report.set("p50_ms", median(high_p50), "ms");
        report.set("peak_rss_mib", peakRssMib(), "MiB");
        note("serve-openloop: %.0f responses/s with %zu requests in "
             "flight (median of %d rounds)",
             median(capacity), kInFlight, kRounds);
        return;
    }

    const Step low = serve.step(kLowRate, 0.15 * s, report, nullptr);
    noteStep("low", low);
    const Step high = serve.step(kHighRate, 0.15 * s, report, nullptr);
    noteStep("high", high);
    const double max_rps = serve.maxRate(0.04 * s, report);
    note("serve-openloop: max_rps %.0f at p99 <= %.0f ms", max_rps,
         kLatencyLimitMs);
    Tracer tracer;
    const Step traced = serve.step(kHighRate, 0.15 * s, report, &tracer);
    noteStep("high", traced);
    const std::vector<double> trips =
        serve.roundTrips(static_cast<size_t>(500.0 * s), report, &tracer);

    const auto codecs = serve.codecs(2000);
    const double eval_ms = serve.evalFloor(1000);
    const serve::ServerStats stats = serve.stats();

    report.set("serve.max_rps", max_rps, "1/s");
    report.set("serve.p50_ms.low", low.latency.median, "ms");
    report.set("serve.p99_ms.low", low.latency.tail, "ms");
    report.set("serve.p99_ms.high", high.latency.tail, "ms");
    report.set("serve.encode_us",
               codecs.encode_request_us + codecs.encode_response_us, "us");
    report.set("serve.decode_us",
               codecs.decode_request_us + codecs.decode_response_us, "us");
    report.set("serve.send_us", median(traced.send_us), "us");
    report.set("serve.eval_ms", eval_ms, "ms");
    // Client-side work of a round trip: encode the request, decode the
    // response; the rest is socket, queue, scheduler and evaluation.
    report.set("serve.server_ms",
               median(trips) - (codecs.encode_request_us +
                                codecs.decode_response_us) /
                                   1000.0,
               "ms");
    report.set("serve.coalesce_ratio",
               traced.batches == 0
                   ? 0.0
                   : static_cast<double>(traced.served) /
                         static_cast<double>(traced.batches),
               "ratio");
    report.set("serve.queue_depth_max",
               static_cast<double>(traced.queue_depth_max), "count");
    report.set("serve.rejected", static_cast<double>(stats.rejected),
               "count");
    report.set("serve.expired", static_cast<double>(stats.expired),
               "count");
    report.set("serve.send_lag_ms", high.lag.tail, "ms");
    report.set("trace.overhead", traced.latency.median / high.latency.median,
               "ratio");
    for (const auto &[name, ms] : tracer.selfTimes())
        note("  self time %-15s %10.3f ms", name.c_str(), ms);
    if (!options.trace_out.empty() && !tracer.write(options.trace_out))
        note("warning: could not write spans to %s",
             options.trace_out.c_str());
}

} // namespace

// --------------------------------------------------------------- checks

size_t
callFailures(std::span<const engine::EvalResult> results,
             const std::vector<uint8_t> &ref_below)
{
    if (results.size() != ref_below.size())
        return std::max(results.size(), ref_below.size());
    const BigFloat threshold =
        BigFloat::twoPow(static_cast<int64_t>(kThresholdLog2));
    size_t failed = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const bool below = results[i].value < threshold;
        if (results[i].invalid || results[i].underflow ||
            below != (ref_below[i] != 0))
            ++failed;
    }
    return failed;
}

size_t
decisionFailures(const engine::AdaptiveBatch &batch,
                 const std::vector<uint8_t> &ref_below)
{
    if (batch.results.size() != ref_below.size())
        return std::max(batch.results.size(), ref_below.size());
    size_t failed = 0;
    for (size_t i = 0; i < batch.results.size(); ++i) {
        const engine::EscalationResult &item = batch.results[i];
        const bool below = item.interval.hi_log2 < kThresholdLog2;
        if (!item.certified || below != (ref_below[i] != 0))
            ++failed;
    }
    return failed;
}

bool
responseMatches(const serve::ServeResponse &response,
                const std::vector<serve::ResponseRecord> &expected)
{
    if (response.status != serve::RequestStatus::Ok ||
        response.records.size() != expected.size())
        return false;
    for (size_t i = 0; i < expected.size(); ++i) {
        const serve::ResponseRecord &got = response.records[i];
        const serve::ResponseRecord &want = expected[i];
        if (got.flags != want.flags || got.exp != want.exp ||
            got.limbs != want.limbs || got.aux != want.aux ||
            got.path != want.path)
            return false;
    }
    return true;
}

size_t
likelihoodFailures(std::span<const engine::EvalResult> results,
                   const std::vector<BigFloat> &reference)
{
    if (results.size() != reference.size())
        return std::max(results.size(), reference.size());
    size_t failed = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const BigFloat &value = results[i].value;
        if (results[i].invalid || results[i].underflow ||
            !value.isFinite() || value.isZero() ||
            !(accuracy::relErrLog10(reference[i], value) <=
              kForwardBoundLog10))
            ++failed;
    }
    return failed;
}

void
runWorkload(const Options &options, Report &report)
{
    if (options.workload == "serve-openloop") {
        runServe(options, report);
        return;
    }
    std::unique_ptr<BatchWorkload> workload;
    if (options.workload == "lofreq-stream")
        workload = std::make_unique<LofreqStream>(options.lanes);
    else if (options.workload == "adaptive-decide")
        workload = std::make_unique<AdaptiveDecide>(options.lanes);
    else if (options.workload == "phylo-forward")
        workload = std::make_unique<PhyloForward>(options.lanes);
    else
        throw std::invalid_argument("unknown workload " + options.workload);
    runBatch(*workload, options, report);
}

} // namespace pstatbench
