/**
 * @file
 * The source layer: where evaluation work comes from.
 *
 * The middle layer of the source → executor → sink decomposition
 * (docs/ARCHITECTURE.md). A JobSource yields WorkBlocks — batches of
 * evaluation items as spans of column views or HMM jobs, built once
 * per block — so the engine's kernel stages index one array shape
 * regardless of whether the items live in caller-owned memory (one
 * block covering the whole span) or arrive shard-by-shard off a
 * bounded ShardStream pipeline (one block per shard, unmapped before
 * the next is pulled, so peak memory stays O(shard)). The plan's
 * PlanSource resolves to one of the concrete sources here; policies
 * and kernels never see the difference, which is what keeps batch
 * and stream results bit-identical.
 */

#ifndef PSTAT_ENGINE_JOB_SOURCE_HH
#define PSTAT_ENGINE_JOB_SOURCE_HH

#include <optional>
#include <span>
#include <vector>

#include "hmm/model.hh"
#include "io/shard_stream.hh"
#include "pbd/dataset.hh"

namespace pstat::engine
{

/**
 * One HMM work item (model is borrowed, not owned) — the input of
 * every HMM batch: forward, backward, posterior, and Viterbi.
 */
struct ForwardJob
{
    const hmm::Model *model = nullptr; //!< borrowed model (A, B, pi)
    std::span<const int> obs;          //!< observation sequence
};

/**
 * Bookkeeping of one streamed evaluation: how much flowed through
 * the pipeline and how tight its memory bound actually was.
 */
struct StreamStats
{
    size_t shards = 0; //!< shards evaluated
    size_t items = 0;  //!< records (columns / sequences) evaluated
    /** Largest single mapped shard (bytes) — the O(shard) footprint. */
    size_t peak_mapped_bytes = 0;
    /** High-water mark of loaded-but-unconsumed shards in the queue. */
    size_t peak_queue_depth = 0;
};

/**
 * One batch of evaluation work. The span matching the producing
 * source's payload holds `items` entries — `columns` for p-value
 * work, `jobs` for HMM work — and the other is empty. The source
 * fills them once per block. The block, its spans and every view in
 * them are only valid until the source's next() is called again: a
 * shard-backed block points into a mapping the source unmaps before
 * pulling the next shard, and into view and job arrays the source
 * rebuilds for it.
 */
struct WorkBlock
{
    /** Block sequence number (the shard index for shard sources). */
    size_t index = 0;
    /** Items in this block. */
    size_t items = 0;
    /** The backing shard, when there is one (null for memory). */
    const io::ShardReader *shard = nullptr;
    /** Column views of a p-value block (empty otherwise). */
    std::span<const pbd::ColumnView> columns;
    /** HMM jobs of an HMM block (empty otherwise). */
    std::span<const ForwardJob> jobs;
};

/**
 * Where evaluation work comes from: a pull-based sequence of
 * WorkBlocks. next() is called from the composition root only (never
 * concurrently); a source may throw from next() — e.g. a shard
 * stream surfacing its producer's error after the valid prefix.
 */
class JobSource
{
  public:
    virtual ~JobSource() = default;

    /** The next block, or empty when the source is exhausted. */
    virtual std::optional<WorkBlock> next() = 0;

    /**
     * Pipeline bookkeeping accumulated so far (all-zero for memory
     * sources, matching the pre-layer PlanRun contract). Complete
     * once next() has returned empty.
     */
    virtual StreamStats stats() const { return {}; }
};

/**
 * A caller-owned column span as one WorkBlock — the PValue x Memory
 * source. Always yields exactly one block (possibly empty), so the
 * downstream stage runs once, exactly like the pre-layer batch entry
 * points. The source owns the block's column views.
 */
class MemoryColumnSource final : public JobSource
{
  public:
    /** Wraps `columns` (borrowed; must outlive the source). */
    explicit MemoryColumnSource(std::span<const pbd::Column> columns)
        : columns_(columns)
    {
    }

    std::optional<WorkBlock> next() override;

  private:
    std::span<const pbd::Column> columns_;
    std::vector<pbd::ColumnView> views_;
    bool delivered_ = false;
};

/**
 * A caller-owned job span as one WorkBlock — the HMM-kernel x Memory
 * source. Always yields exactly one block (possibly empty).
 */
class MemoryJobSource final : public JobSource
{
  public:
    /** Wraps `jobs` (borrowed; must outlive the source). */
    explicit MemoryJobSource(std::span<const ForwardJob> jobs)
        : jobs_(jobs)
    {
    }

    std::optional<WorkBlock> next() override;

  private:
    std::span<const ForwardJob> jobs_;
    bool delivered_ = false;
};

/**
 * One WorkBlock per shard popped off a ShardStream — the
 * ShardStream-source half of every streamed plan. The previous
 * shard's mapping is released before the next shard is pulled, so at
 * most one consumer-side shard is alive at a time (the queue bound
 * governs the rest). Rejects a shard whose payload tag does not
 * match the expected kind with io::ShardError — a Sequences shard
 * fed to a p-value plan must fail loudly, not read garbage records —
 * and, before its block is handed out, a sequences shard with any
 * symbol outside the bound model's [0, num_symbols), naming the
 * shard and the record: the kernels index the emission table with
 * those symbols unchecked. A shard's column views (or, after the
 * symbol check, its jobs) are built once, and live until the next
 * next().
 */
class ShardSource final : public JobSource
{
  public:
    /**
     * @param stream the open pipeline to pull from (borrowed)
     * @param expected payload kind every shard must carry
     * @param model borrowed model bound to each sequence job
     *        (required iff `expected` is Sequences)
     */
    ShardSource(io::ShardStream &stream, io::ShardPayload expected,
                const hmm::Model *model = nullptr)
        : stream_(stream), expected_(expected), model_(model)
    {
    }

    std::optional<WorkBlock> next() override;

    StreamStats stats() const override { return stats_; }

  private:
    io::ShardStream &stream_;
    io::ShardPayload expected_;
    const hmm::Model *model_ = nullptr;
    std::optional<io::ShardReader> current_;
    std::vector<pbd::ColumnView> views_;
    std::vector<ForwardJob> jobs_;
    StreamStats stats_;
    size_t index_ = 0;
};

} // namespace pstat::engine

#endif // PSTAT_ENGINE_JOB_SOURCE_HH
