/**
 * @file
 * The sink layer: where evaluation results go.
 *
 * The top layer of the source → executor → sink decomposition
 * (docs/ARCHITECTURE.md). The composition root hands each WorkBlock's
 * results to its primary route (a bound sink, or an AccumulateSink
 * into the PlanRun) and then to a bound result sink, block by block,
 * so what happens to results — accumulate in memory, report per
 * shard, persist to a result shard — is a policy chosen per run, not
 * fused into the evaluation loops. RecordSink is the one translation
 * of deliveries into lossless Results records; its two children only
 * say where a record goes. The file sink closes the io loop: it
 * writes the shard encoding's Results payload (io/shard.hh), so a
 * distributed evaluation leaves one idempotent, CRC-validated result
 * file per worker that any ShardReader can audit, and
 * `pstat eval -o out.shard` gets a file output mode. The file is
 * replaced whole when the run finishes, never truncated, and not
 * fsynced (io/file_replacement.hh). The daemon's serve::RoutingSink
 * is the other child: the same records, sliced into responses.
 */

#ifndef PSTAT_ENGINE_RESULT_SINK_HH
#define PSTAT_ENGINE_RESULT_SINK_HH

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/escalate.hh"
#include "engine/format_registry.hh"
#include "engine/job_source.hh"
#include "engine/plan.hh"
#include "io/shard.hh"

namespace pstat::engine
{

/**
 * One screened p-value batch: the two-stage pipeline of
 * pbd/screen.hh evaluated over the engine. Columns the screen
 * evaluated carry the format's exact DP result, bit-identical to the
 * Fixed plan's slot; skipped columns carry only an
 * order-of-magnitude placeholder (2^round(estimate)) — consult the
 * skipped mask before trusting a value.
 */
struct ScreenedPValueBatch
{
    /** Per-column results (placeholder-valued where skipped). */
    std::vector<EvalResult> results;
    /** 1 where the exact DP was skipped, 0 where it ran. */
    std::vector<uint8_t> skipped;
    /** Per-column pvalueLog2Estimate values, in column order. */
    std::vector<double> estimates_log2;
    /** The screen configuration the batch was evaluated under. */
    pbd::ScreenConfig config;
    /** Screening tallies (skips, DP dispatches, guard-band hits). */
    pbd::ScreenStats stats;
};

/**
 * Everything one plan execution produced. Only the fields matching
 * the plan's kernel x source x policy are populated; the rest stay
 * default-constructed. Executions without a bound PlanInputs::sink
 * accumulate here (streamed batches concatenated in shard order, tier
 * and screen tallies merged), so small callers need no sink at all;
 * with one bound, everything but the stream stats stays empty.
 */
struct PlanRun
{
    /** Per-item results of the Fixed policy (pvalue / forward /
     *  backward kernels; concatenated across shards for streams). */
    std::vector<EvalResult> results;
    /** Per-job posterior marginals of a Posterior plan. */
    std::vector<PosteriorResult> posteriors;
    /** Per-job decodes of a Viterbi plan. */
    std::vector<ViterbiResult> decodes;
    /** The screened batch of a Screened plan (merged for streams). */
    ScreenedPValueBatch screened;
    /** The adaptive batch of an adaptive plan (merged for streams). */
    AdaptiveBatch adaptive;
    /** Pipeline bookkeeping of a ShardStream plan. */
    StreamStats stream;
};

/**
 * Where evaluation results go: one consume call per WorkBlock, on
 * the composition-root thread (never concurrently), in block order.
 * Exactly one of the consume channels fires per run — the one
 * matching the plan's kernel x policy; the base implementations
 * throw std::logic_error so a sink wired to a channel it does not
 * implement fails loudly instead of dropping results. The block
 * reference (and any shard view behind it) is only valid for the
 * duration of the call. finish() is called once after the source is
 * exhausted — the flush/close point for buffering sinks.
 */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Fixed-policy per-item results (pvalue / forward / backward). */
    virtual void consumeResults(const WorkBlock &block,
                                std::span<const EvalResult> results);
    /** One screened batch (Screened policy). */
    virtual void consumeScreened(const WorkBlock &block,
                                 const ScreenedPValueBatch &batch);
    /** One adaptive batch (Adaptive / ScreenedAdaptive policy). */
    virtual void consumeAdaptive(const WorkBlock &block,
                                 const AdaptiveBatch &batch);
    /** Per-job posterior marginals (Posterior kernel). */
    virtual void
    consumePosteriors(const WorkBlock &block,
                      std::span<const PosteriorResult> posteriors);
    /** Per-job Viterbi decodes (Viterbi kernel). */
    virtual void consumeDecodes(const WorkBlock &block,
                                std::span<const ViterbiResult> decodes);
    /** Called once after the last block; default is a no-op. */
    virtual void finish() {}
};

/**
 * The default sink: accumulate everything into a PlanRun, exactly as
 * the pre-layer run() did — fixed results concatenated in block
 * order, screened/adaptive batches merged (screen tallies summed,
 * tier tallies folded by mergeTiers). Memory plans deliver one
 * block, so the merge degenerates to plain assignment and the
 * PlanRun is bit-identical to the old direct-return fields.
 */
class AccumulateSink final : public ResultSink
{
  public:
    /** Accumulates into `out` (borrowed; must outlive the sink). */
    explicit AccumulateSink(PlanRun &out) : out_(out) {}

    void consumeResults(const WorkBlock &block,
                        std::span<const EvalResult> results) override;
    void consumeScreened(const WorkBlock &block,
                         const ScreenedPValueBatch &batch) override;
    void consumeAdaptive(const WorkBlock &block,
                         const AdaptiveBatch &batch) override;
    void consumePosteriors(
        const WorkBlock &block,
        std::span<const PosteriorResult> posteriors) override;
    void
    consumeDecodes(const WorkBlock &block,
                   std::span<const ViterbiResult> decodes) override;

  private:
    PlanRun &out_;
};

/**
 * The base of every sink that turns deliveries into Results records
 * (io/codec.hh): one record per item, in delivery order, encoded by
 * encodeResultRecord. Screened batches add the skipped bit, adaptive
 * batches the skipped and certified bits, and Viterbi decodes carry
 * their path and first_underflow_step (in aux). Each record goes to
 * one virtual, emit(). A result shard (ShardFileSink) and a served
 * response (serve::RoutingSink) both come from this one translation,
 * which is what makes the two byte-identical for the same run.
 * Posteriors are not record-shaped (T x H gamma matrices) and keep
 * the base's throwing channel.
 */
class RecordSink : public ResultSink
{
  public:
    void consumeResults(const WorkBlock &block,
                        std::span<const EvalResult> results) final;
    void consumeScreened(const WorkBlock &block,
                         const ScreenedPValueBatch &batch) final;
    void consumeAdaptive(const WorkBlock &block,
                         const AdaptiveBatch &batch) final;
    void consumeDecodes(const WorkBlock &block,
                        std::span<const ViterbiResult> decodes) final;

  private:
    /** Where one record goes; its path borrows the delivery. */
    virtual void emit(const io::ShardResultRecord &record) = 0;
};

/**
 * Persist results as one Results-payload shard file (io/shard.hh),
 * one RecordSink record per item. finish() writes the header and CRC
 * trailer and swaps the finished shard in place of `path` whole; a
 * sink that never finishes (a run that threw) leaves whatever file
 * was there untouched, which is the idempotency story for
 * distributed per-shard outputs.
 */
class ShardFileSink final : public RecordSink
{
  public:
    /**
     * Starts a replacement of `path` (io::ShardWriter), stamping
     * the meta block; the file at `path` is not touched until
     * finish().
     * @param path output file
     * @param kernel the plan kernel producing the records
     * @param format_id the producing format (or ladder) id
     */
    ShardFileSink(const std::string &path, PlanKernel kernel,
                  const std::string &format_id);

    void finish() override;

    /** Records written so far. */
    size_t written() const { return writer_.items(); }

  private:
    void emit(const io::ShardResultRecord &record) override;

    io::ShardWriter writer_;
};

/**
 * Encode one evaluation result as a Results-payload record: the
 * invalid/underflow bookkeeping and the exact BigFloat value (kind,
 * sign, exponent, all four mantissa limbs — lossless).
 * @param result the result to encode
 * @param extra_flags additional result_flag_* bits (skipped,
 *        certified) OR-ed into the record
 */
io::ShardResultRecord encodeResultRecord(const EvalResult &result,
                                         uint32_t extra_flags = 0);

/**
 * Decode one Results-payload record back to an evaluation result —
 * the exact inverse of encodeResultRecord (the record's extra flags
 * are not represented in EvalResult and are simply ignored here;
 * read them off record.flags).
 */
EvalResult decodeResultValue(const io::ShardResultRecord &record);

/** Everything one result shard holds, decoded. */
struct ResultShardData
{
    /** The kernel tag stamped in the meta block. */
    PlanKernel kernel = PlanKernel::PValue;
    /** The producing format (or ladder) id from the meta block. */
    std::string format_id;
    /** Decoded per-item results (empty for a Viterbi shard). */
    std::vector<EvalResult> results;
    /** 1 where the record carried result_flag_skipped. */
    std::vector<uint8_t> skipped;
    /** 1 where the record carried result_flag_certified. */
    std::vector<uint8_t> certified;
    /** Decoded Viterbi records (Viterbi shards only). */
    std::vector<ViterbiResult> decodes;
};

/**
 * Open, validate, and fully decode one result shard. Throws
 * io::ShardError on any structural problem, including a kernel tag
 * that is not a known PlanKernel value.
 */
ResultShardData readResultShard(const std::string &path);

} // namespace pstat::engine

#endif // PSTAT_ENGINE_RESULT_SINK_HH
