#include "engine/eval_engine.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>

#include "core/accuracy.hh"
#include "pbd/pbd.hh"

namespace pstat::engine
{

namespace
{

/** A pvalueEval hand-back that moves each result into its slot. */
auto
storeInto(std::vector<EvalResult> &out)
{
    return [&out](std::span<const size_t> indices,
                  std::span<EvalResult> results) {
        for (size_t j = 0; j < indices.size(); ++j)
            out[indices[j]] = std::move(results[j]);
    };
}

/** Chunks of a batch: chunk c is order[ends[c - 1], ends[c]). */
struct TileChunks
{
    std::vector<size_t> order;
    std::vector<size_t> ends;
};

/**
 * Chunks shaped like a p-value tile: the indices sorted once by the
 * batch kernel's packed (K, N) key, descending, as
 * pbd::pvalueBatchSimd sorts inside a batch (K <= 0 columns, which it
 * answers outright, key 0 and sort last), then cut into runs of
 * tile.width columns. Each column past the tile's K cap, which the
 * kernel runs alone anyway, is a chunk of its own, so lanes can
 * spread them.
 */
TileChunks
planTileChunks(std::span<const pbd::ColumnView> columns,
               std::span<const size_t> indices, const pbd::TileShape &tile)
{
    std::vector<std::pair<uint64_t, size_t>> keyed(indices.size());
    for (size_t j = 0; j < indices.size(); ++j) {
        const pbd::ColumnView &col = columns[indices[j]];
        const uint64_t len =
            std::min<size_t>(col.success_probs.size(), 0xffffffff);
        keyed[j] = {col.k > 0 ? (static_cast<uint64_t>(col.k) << 32) | len
                              : 0,
                    indices[j]};
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });

    TileChunks plan;
    plan.order.reserve(keyed.size());
    for (const auto &entry : keyed)
        plan.order.push_back(entry.second);
    size_t i = 0;
    while (i < keyed.size() && (keyed[i].first >> 32) > tile.k_cap)
        plan.ends.push_back(++i);
    while (i < keyed.size()) {
        i = std::min(i + tile.width, keyed.size());
        plan.ends.push_back(i);
    }
    return plan;
}

} // namespace

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
    // the returned PlanRun. Every block then goes to a bound
    // inputs.result_sink as well, after the primary route.
    AccumulateSink accumulate(out);
    ResultSink *primary =
        inputs.sink != nullptr ? inputs.sink : &accumulate;
    const auto deliver = [&](const auto &consume) {
        consume(*primary);
        if (inputs.result_sink != nullptr)
            consume(*inputs.result_sink);
    };

    // Source resolution: memory spans become a single WorkBlock; a
    // shard-stream plan opens a stream over the plan's own paths,
    // which yields one block per shard.
    std::optional<io::ShardStream> stream;
    std::unique_ptr<JobSource> source;
    if (plan.source == PlanSource::Memory) {
        if (plan.kernel == PlanKernel::PValue)
            source =
                std::make_unique<MemoryColumnSource>(inputs.columns);
        else
            source = std::make_unique<MemoryJobSource>(inputs.jobs);
    } else {
        if (plan.shard_paths.empty())
            throw std::invalid_argument(
                "plan: shard-stream source has no shard paths");
        io::ShardStreamConfig config;
        config.queue_capacity = static_cast<size_t>(plan.queue_capacity);
        stream.emplace(plan.shard_paths, config);
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
    // sinks. Block order is source order, so accumulation is
    // deterministic.
    while (auto block = source->next()) {
        switch (plan.kernel) {
        case PlanKernel::PValue:
            if (plan.policy == PlanPolicy::Fixed) {
                std::vector<size_t> all(block->items);
                std::iota(all.begin(), all.end(), size_t{0});
                std::vector<EvalResult> results(block->items);
                pvalueEval(*format, block->columns, all, plan.sum,
                           storeInto(results));
                deliver([&](ResultSink &sink) {
                    sink.consumeResults(*block, results);
                });
            } else if (plan.policy == PlanPolicy::Screened) {
                ScreenedPValueBatch batch;
                const std::vector<size_t> kept =
                    screenStep(block->columns, plan.screen, batch);
                pvalueEval(*format, block->columns, kept, plan.sum,
                           storeInto(batch.results));
                deliver([&](ResultSink &sink) {
                    sink.consumeScreened(*block, batch);
                });
            } else {
                const AdaptiveBatch batch =
                    adaptiveEval(ladder, block->columns, plan.cert,
                                 screen, plan.sum);
                deliver([&](ResultSink &sink) {
                    sink.consumeAdaptive(*block, batch);
                });
            }
            break;
        case PlanKernel::Forward: {
            const std::vector<EvalResult> results =
                forwardFixedStage(*format, block->jobs, plan.dataflow);
            deliver([&](ResultSink &sink) {
                sink.consumeResults(*block, results);
            });
            break;
        }
        case PlanKernel::Backward: {
            const std::vector<EvalResult> results =
                backwardStage(*format, block->jobs, plan.dataflow);
            deliver([&](ResultSink &sink) {
                sink.consumeResults(*block, results);
            });
            break;
        }
        case PlanKernel::Posterior: {
            const std::vector<PosteriorResult> posteriors =
                posteriorStage(*format, block->jobs, plan.dataflow,
                               plan.renormalize);
            deliver([&](ResultSink &sink) {
                sink.consumePosteriors(*block, posteriors);
            });
            break;
        }
        case PlanKernel::Viterbi: {
            const std::vector<ViterbiResult> decodes =
                viterbiStage(*format, block->jobs);
            deliver([&](ResultSink &sink) {
                sink.consumeDecodes(*block, decodes);
            });
            break;
        }
        }
    }
    deliver([](ResultSink &sink) { sink.finish(); });
    out.stream = source->stats();
    return out;
}

std::vector<size_t>
EvalEngine::screenStep(std::span<const pbd::ColumnView> columns,
                       const pbd::ScreenConfig &config,
                       ScreenedPValueBatch &out)
{
    const size_t n = columns.size();
    out.config = config;
    out.estimates_log2.resize(n);
    parallelFor(n, [&](size_t i) {
        out.estimates_log2[i] = pbd::pvalueLog2Estimate(
            columns[i].success_probs, columns[i].k);
    });

    auto decisions = pbd::applyScreen(out.estimates_log2, config);
    out.skipped = std::move(decisions.skip);
    out.stats = decisions.stats;

    // Skipped slots get a magnitude placeholder (their estimate is
    // finite: -inf and deeply negative estimates never skip).
    out.results.resize(n);
    std::vector<size_t> kept;
    kept.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (out.skipped[i])
            out.results[i].value =
                BigFloat::twoPow(std::llround(out.estimates_log2[i]));
        else
            kept.push_back(i);
    }
    return kept;
}

void
EvalEngine::pvalueEval(const FormatOps &format,
                       std::span<const pbd::ColumnView> columns,
                       std::span<const size_t> indices, SumPolicy sum,
                       const PValueChunk &take)
{
    const auto evalChunk = [&](std::span<const size_t> chunk) {
        std::vector<pbd::ColumnView> views;
        views.reserve(chunk.size());
        for (const size_t i : chunk)
            views.push_back(columns[i]);
        std::vector<EvalResult> results(chunk.size());
        format.pbdPValueBatch(views, sum, results);
        take(chunk, results);
    };

    // A batch too small for the auto grain to hand a lane a whole
    // tile (a 32-column shard over 3 lanes has grain 1) gets chunks
    // shaped like the format's tile instead. Only then: a one-lane
    // executor runs the whole batch as one chunk, an explicit grain
    // is the caller's, and a big batch's chunks already hold tiles.
    const pbd::TileShape tile = format.pbdTileShape(sum);
    if (executor_.laneCount() > 1 && executor_.autoGrain() &&
        executor_.grainFor(indices.size()) < tile.width) {
        const TileChunks plan = planTileChunks(columns, indices, tile);
        parallelFor(plan.ends.size(), [&](size_t c) {
            const size_t begin = c == 0 ? 0 : plan.ends[c - 1];
            evalChunk(std::span<const size_t>(plan.order)
                          .subspan(begin, plan.ends[c] - begin));
        });
        return;
    }

    parallelForChunks(indices.size(), [&](size_t begin, size_t end) {
        evalChunk(indices.subspan(begin, end - begin));
    });
}

std::vector<EvalResult>
EvalEngine::forwardFixedStage(const FormatOps &format,
                              std::span<const ForwardJob> jobs,
                              Dataflow dataflow)
{
    std::vector<EvalResult> out(jobs.size());
    parallelFor(jobs.size(), [&](size_t i) {
        out[i] = format.hmmForward(*jobs[i].model, jobs[i].obs,
                                   dataflow);
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

} // namespace pstat::engine
