#include "engine/eval_engine.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

#include "core/accuracy.hh"
#include "pbd/pbd.hh"

namespace pstat::engine
{

EvalEngine::EvalEngine(unsigned num_threads, size_t grain)
    : executor_(num_threads, grain)
{
}

EvalEngine::~EvalEngine() = default;

PlanRun
EvalEngine::run(const EvalPlan &plan, const PlanInputs &inputs)
{
    validatePlan(plan);

    // Format / ladder resolution: the plan's ids against the
    // registry (validatePlan has checked the ids the policy uses).
    const FormatRegistry &registry = FormatRegistry::instance();
    const FormatOps *format = registry.find(plan.format_id);
    Ladder ladder;
    for (const std::string &id : plan.ladder_ids)
        ladder.tiers.push_back(registry.find(id));
    std::optional<pbd::ScreenConfig> screen;
    if (plan.policy == PlanPolicy::Screened ||
        plan.policy == PlanPolicy::ScreenedAdaptive)
        screen = plan.screen;

    PlanRun out;

    // Sink resolution: the caller's bound sink is the primary route
    // and nothing accumulates; without one, results accumulate into
    // the returned PlanRun. A bound inputs.result_sink is teed into
    // every delivery on top of either.
    AccumulateSink accumulate(out);
    ResultSink *primary =
        inputs.sink != nullptr ? inputs.sink : &accumulate;
    std::optional<TeeSink> tee;
    ResultSink *sink = primary;
    if (inputs.result_sink != nullptr) {
        tee.emplace(
            std::vector<ResultSink *>{primary, inputs.result_sink});
        sink = &*tee;
    }

    // Source resolution: memory spans become a single WorkBlock; a
    // shard-stream plan binds the caller's open stream or opens one
    // from the plan's own paths, then yields one block per shard.
    std::optional<io::ShardStream> owned_stream;
    std::unique_ptr<JobSource> source;
    if (plan.source == PlanSource::Memory) {
        if (plan.kernel == PlanKernel::PValue)
            source =
                std::make_unique<MemoryColumnSource>(inputs.columns);
        else
            source = std::make_unique<MemoryJobSource>(inputs.jobs);
    } else {
        io::ShardStream *stream = inputs.stream;
        if (stream == nullptr) {
            if (plan.shard_paths.empty())
                throw std::invalid_argument(
                    "plan: shard-stream source has no shard paths and "
                    "no bound stream");
            io::ShardStreamConfig config;
            config.queue_capacity =
                static_cast<size_t>(plan.queue_capacity);
            owned_stream.emplace(plan.shard_paths, config);
            stream = &*owned_stream;
        }
        if (plan.kernel == PlanKernel::Forward) {
            if (inputs.model == nullptr)
                throw std::invalid_argument(
                    "plan: forward shard-stream needs a bound model");
            source = std::make_unique<ShardSource>(
                *stream, io::ShardPayload::Sequences, inputs.model);
        } else {
            source = std::make_unique<ShardSource>(
                *stream, io::ShardPayload::Columns);
        }
    }

    // Drive: pull blocks off the source, run each through its kernel
    // x policy stage over the executor, hand the results to the
    // sink. Block order is source order, so accumulation is
    // deterministic.
    while (auto block = source->next()) {
        switch (plan.kernel) {
        case PlanKernel::PValue:
            if (plan.policy == PlanPolicy::Fixed) {
                const std::vector<EvalResult> results =
                    pvalueFixedStage(*format, *block, plan.sum);
                sink->consumeResults(*block, results);
            } else if (plan.policy == PlanPolicy::Screened) {
                const ScreenedPValueBatch batch =
                    screenedEval(*format, block->items, block->column,
                                 plan.screen, plan.sum);
                sink->consumeScreened(*block, batch);
            } else {
                const AdaptiveBatch batch =
                    adaptiveEval(ladder, block->items, block->column,
                                 plan.cert, screen, plan.sum);
                sink->consumeAdaptive(*block, batch);
            }
            break;
        case PlanKernel::Forward: {
            const std::vector<EvalResult> results =
                forwardFixedStage(*format, *block, plan.dataflow);
            sink->consumeResults(*block, results);
            break;
        }
        case PlanKernel::Backward: {
            const std::vector<EvalResult> results =
                backwardStage(*format, block->jobs, plan.dataflow);
            sink->consumeResults(*block, results);
            break;
        }
        case PlanKernel::Posterior: {
            const std::vector<PosteriorResult> posteriors =
                posteriorStage(*format, block->jobs, plan.dataflow,
                               plan.renormalize);
            sink->consumePosteriors(*block, posteriors);
            break;
        }
        case PlanKernel::Viterbi: {
            const std::vector<ViterbiResult> decodes =
                viterbiStage(*format, block->jobs);
            sink->consumeDecodes(*block, decodes);
            break;
        }
        }
    }
    sink->finish();
    out.stream = source->stats();
    return out;
}

std::vector<EvalResult>
EvalEngine::pvalueFixedStage(const FormatOps &format,
                             const WorkBlock &block, SumPolicy sum)
{
    std::vector<EvalResult> out(block.items);
    // Each lane hands its whole claimed chunk to the format's batch
    // entry, so the SIMD formats tile across the chunk's columns
    // instead of dispatching one at a time.
    parallelForChunks(block.items, [&](size_t begin, size_t end) {
        std::vector<pbd::ColumnView> views;
        views.reserve(end - begin);
        for (size_t i = begin; i < end; ++i)
            views.push_back(block.column(i));
        format.pbdPValueBatch(
            views, sum,
            std::span<EvalResult>(out).subspan(begin, end - begin));
    });
    return out;
}

std::vector<EvalResult>
EvalEngine::forwardFixedStage(const FormatOps &format,
                              const WorkBlock &block, Dataflow dataflow)
{
    std::vector<EvalResult> out(block.items);
    parallelFor(block.items, [&](size_t i) {
        const ForwardJob job =
            block.job ? block.job(i) : block.jobs[i];
        out[i] = format.hmmForward(*job.model, job.obs, dataflow);
    });
    return out;
}

ScreenedPValueBatch
EvalEngine::screenedEval(
    const FormatOps &format, size_t n,
    const std::function<pbd::ColumnView(size_t)> &column,
    const pbd::ScreenConfig &config, SumPolicy sum)
{
    ScreenedPValueBatch out;
    out.config = config;

    // Stage 1: the O(N) estimate on every column, over the pool.
    out.estimates_log2.resize(n);
    parallelFor(n, [&](size_t i) {
        const pbd::ColumnView view = column(i);
        out.estimates_log2[i] =
            pbd::pvalueLog2Estimate(view.success_probs, view.k);
    });

    auto decisions = pbd::applyScreen(out.estimates_log2, config);
    out.skipped = std::move(decisions.skip);
    out.stats = decisions.stats;

    // Stage 2: the exact O(N*K) DP only where the screen demands
    // it. Skipped slots get a magnitude placeholder (their estimate
    // is finite: -inf and deeply negative estimates never skip).
    // Each chunk gathers its surviving columns into one batch call
    // (the SIMD formats tile across them) and scatters the results
    // back — same per-column bits as the serial per-index loop.
    out.results.resize(n);
    parallelForChunks(n, [&](size_t begin, size_t end) {
        std::vector<pbd::ColumnView> views;
        std::vector<size_t> survivors;
        for (size_t i = begin; i < end; ++i) {
            if (out.skipped[i]) {
                out.results[i].value = BigFloat::twoPow(
                    std::llround(out.estimates_log2[i]));
                continue;
            }
            survivors.push_back(i);
            views.push_back(column(i));
        }
        if (survivors.empty())
            return;
        std::vector<EvalResult> evaluated(survivors.size());
        format.pbdPValueBatch(views, sum, evaluated);
        for (size_t j = 0; j < survivors.size(); ++j)
            out.results[survivors[j]] = evaluated[j];
    });
    return out;
}

std::vector<EvalResult>
EvalEngine::backwardStage(const FormatOps &format,
                          std::span<const ForwardJob> jobs,
                          Dataflow dataflow)
{
    std::vector<EvalResult> out(jobs.size());
    parallelFor(jobs.size(), [&](size_t i) {
        out[i] = format.hmmBackward(*jobs[i].model, jobs[i].obs,
                                    dataflow);
    });
    return out;
}

std::vector<PosteriorResult>
EvalEngine::posteriorStage(const FormatOps &format,
                           std::span<const ForwardJob> jobs,
                           Dataflow dataflow, bool renormalize)
{
    std::vector<PosteriorResult> out(jobs.size());
    parallelFor(jobs.size(), [&](size_t i) {
        out[i] = format.hmmPosterior(*jobs[i].model, jobs[i].obs,
                                     dataflow, renormalize);
    });
    return out;
}

std::vector<ViterbiResult>
EvalEngine::viterbiStage(const FormatOps &format,
                         std::span<const ForwardJob> jobs)
{
    std::vector<ViterbiResult> out(jobs.size());
    parallelFor(jobs.size(), [&](size_t i) {
        out[i] = format.hmmViterbi(*jobs[i].model, jobs[i].obs);
    });
    return out;
}

AccuracyTally::AccuracyTally(std::string label,
                             double range_floor_log2,
                             std::vector<stats::ExponentBin> bins)
    : label_(std::move(label)), range_floor_(range_floor_log2),
      bins_(std::move(bins))
{
    // The floor is a log2 magnitude: 0 disables, any finite nonzero
    // value (typically negative, e.g. posit minpos) is honored.
    assert(std::isfinite(range_floor_));
    binned_.resize(bins_.size());
}

AccuracyTally::Outcome
AccuracyTally::add(const BigFloat &oracle, const EvalResult &result)
{
    if (oracle.isZero())
        return Outcome::ZeroOracle;
    ++samples_;

    const double err = accuracy::relErrLog10(oracle, result.value);
    errors_.push_back(err);

    // A nonzero floor applies regardless of sign; the old
    // `range_floor_ < 0.0` predicate silently ignored positive
    // floors, contradicting the documented "0 disables" contract.
    const bool out_of_range =
        range_floor_ != 0.0 && oracle.log2Abs() < range_floor_;
    if (out_of_range || result.underflow) {
        ++underflows_;
        return Outcome::Underflow;
    }
    if (err >= 0.0) {
        ++huge_errors_;
        worst_log10_ =
            worst_log10_ ? std::max(*worst_log10_, err) : err;
        return Outcome::HugeError;
    }
    const int bin = stats::binIndex(bins_, oracle.log2Abs());
    if (bin >= 0)
        binned_[bin].push_back(err);
    return Outcome::Recorded;
}

void
AccuracyTally::recordTiers(std::span<const TierStats> tiers)
{
    for (const TierStats &tier : tiers) {
        const auto it = std::find_if(
            tiers_.begin(), tiers_.end(), [&](const TierStats &t) {
                return t.format_id == tier.format_id;
            });
        if (it == tiers_.end()) {
            tiers_.push_back(tier);
            continue;
        }
        it->evaluated += tier.evaluated;
        it->certified += tier.certified;
        it->bypassed += tier.bypassed;
        it->wall_ms += tier.wall_ms;
    }
}

} // namespace pstat::engine
