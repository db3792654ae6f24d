/**
 * @file
 * Batched, multi-threaded evaluation of the statistical kernels.
 *
 * The accuracy figures evaluate thousands of independent work items
 * (alignment columns, HMM sequences) per format; the seed ran them
 * one nested loop at a time. EvalEngine composes the three runtime
 * layers — a JobSource yielding WorkBlocks (engine/job_source.hh),
 * the persistent chunk-claiming Executor (engine/executor.hh), and a
 * ResultSink receiving each block's results (engine/result_sink.hh)
 * — behind one entry point, run(EvalPlan): whole batches of p-values
 * (exact, screened, adaptive; see pbd/screen.hh and escalate.hh) and
 * the full HMM kernel family (forward, backward, posterior marginals,
 * Viterbi), through the type-erased FormatOps interface. The four
 * p-value policies are one pipeline with two optional steps: a screen
 * (screenStep), one batch evaluator over a list of column indices
 * (pvalueEval) run once for the fixed and screened policies and once
 * per ladder tier for the adaptive ones, and one merge of the
 * tallies (pbd::ScreenStats::operator+=, mergeTiers). The ScaledDD
 * oracle the accuracy figures measure against is one more plan
 * (oraclePlan, engine/plan.hh). Each item's result lands in its own
 * slot, so the batched output is bit-identical to the serial
 * per-item FormatOps calls, just computed on every core.
 * AccuracyTally then folds results against oracle
 * values serially (deterministic order) using the core/accuracy.hh
 * measurement, replacing the per-format tally code that was
 * copy-pasted across the benches.
 */

#ifndef PSTAT_ENGINE_EVAL_ENGINE_HH
#define PSTAT_ENGINE_EVAL_ENGINE_HH

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "engine/escalate.hh"
#include "engine/executor.hh"
#include "engine/format_registry.hh"
#include "engine/job_source.hh"
#include "engine/plan.hh"
#include "engine/result_sink.hh"
#include "pbd/dataset.hh"
#include "pbd/screen.hh"
#include "stats/summary.hh"

namespace pstat::engine
{

/**
 * Runtime bindings of one plan execution — everything a plan cannot
 * carry across a process boundary: the in-memory spans, the borrowed
 * HMM model, and the result sinks. A shard-stream plan names its own
 * files (EvalPlan::shard_paths), and run() opens the stream. All
 * fields are optional; EvalEngine::run throws std::invalid_argument
 * when the plan needs a binding the caller did not supply (e.g. a
 * Forward shard-stream plan without a model).
 */
struct PlanInputs
{
    /** Columns of a PValue x Memory plan. */
    std::span<const pbd::Column> columns;
    /** Jobs of an HMM-kernel x Memory plan. */
    std::span<const ForwardJob> jobs;
    /** Borrowed model of a Forward x ShardStream plan. */
    const hmm::Model *model = nullptr;
    /**
     * The primary route (borrowed): when bound, every block's results
     * go here and the returned PlanRun accumulates none of them, so a
     * streamed run holds O(shard) results, never O(dataset). When
     * null, run() accumulates into the returned PlanRun.
     */
    ResultSink *sink = nullptr;
    /**
     * Extra sink (borrowed) that run() hands every block after the
     * primary route, whichever it is — how a run persists a result
     * shard (engine/result_sink.hh ShardFileSink) while still
     * returning its PlanRun. Receives finish() after the last block,
     * after the primary route's.
     */
    ResultSink *result_sink = nullptr;
};

/** The composition root: source → executor → sink, per plan. */
class EvalEngine
{
  public:
    /**
     * @param num_threads worker count; 0 picks the PSTAT_THREADS
     *        environment override when set, else
     *        std::thread::hardware_concurrency(). The calling thread
     *        also participates, so 1 means no extra threads.
     * @param grain scheduling grain: how many consecutive indices a
     *        lane claims per work-mutex acquisition. 0 (the default)
     *        picks the PSTAT_GRAIN environment override when set,
     *        else auto-sizes per batch to max(1, n / (lanes * 8)) —
     *        about eight chunks per lane, so a 100k-item batch takes
     *        hundreds of mutex acquisitions instead of 100k. Grain 1
     *        reproduces the old per-index claiming exactly.
     */
    explicit EvalEngine(unsigned num_threads = 0, size_t grain = 0);
    /** Drains the pool and joins every worker. */
    ~EvalEngine();

    EvalEngine(const EvalEngine &) = delete;            //!< not copyable
    EvalEngine &operator=(const EvalEngine &) = delete; //!< not copyable

    /** Total evaluation lanes (workers + the calling thread). */
    unsigned threadCount() const { return executor_.laneCount(); }

    /**
     * The scheduling grain an n-item batch would run with: the
     * constructor/PSTAT_GRAIN override when set, else the auto size
     * max(1, n / (lanes * 8)). Exposed so the grain resolution is
     * testable and benches can report it.
     */
    size_t grainForBatch(size_t n) const
    {
        return executor_.grainFor(n);
    }

    /**
     * The executor layer the engine schedules on — exposed so
     * callers can install per-chunk instrumentation
     * (Executor::setChunkHook) between runs.
     */
    Executor &executor() { return executor_; }

    /**
     * Run fn(i) for every i in [0, n), distributed over the pool.
     * Blocks until all items finish; exceptions from fn are rethrown
     * on the calling thread. fn must be safe to call concurrently
     * for distinct i.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn)
    {
        executor_.parallelFor(n, fn);
    }

    /**
     * Run fn(begin, end) over a partition of [0, n): each call is one
     * claimed chunk of consecutive indices (grainForBatch-sized, so a
     * lane sees whole multi-column spans, not single indices — the
     * entry the SoA SIMD batch kernels ride on). The serial fast path
     * is one fn(0, n) call. Blocks until the batch drains; exceptions
     * from fn abandon that chunk's remainder and are rethrown on the
     * calling thread. fn must be safe to call concurrently for
     * disjoint chunks.
     */
    void parallelForChunks(size_t n,
                           const std::function<void(size_t, size_t)> &fn)
    {
        executor_.parallelForChunks(n, fn);
    }

    /**
     * The one evaluation entry point: validate the plan (validatePlan,
     * plus binding-level checks against @p inputs), resolve its
     * format or ladder ids against the registry, then compose the three
     * layers — the plan's source (memory spans or a shard stream)
     * yields WorkBlocks, each block runs its kernel x policy stage
     * over the executor, and each block's results go to the primary
     * route (inputs.sink when bound, else accumulation into the
     * returned PlanRun), then to inputs.result_sink when bound; each
     * gets one finish() after the last block. The p-value stages run
     * each item through the format's bit-identical batch entry, so
     * their results match the scalar per-item loop bit for bit from
     * either source (ctest-enforced per registered format).
     *
     * Every plan field is consumed here, and only the plan decides
     * result bits: kernel, source, policy, format_id / ladder_ids,
     * cert, screen, sum, dataflow, renormalize, shard_paths /
     * queue_capacity. run() reads no environment variable that moves
     * a bit. Lanes, grain and SIMD backend are process settings (the
     * constructor, PSTAT_THREADS, PSTAT_GRAIN, PSTAT_SIMD), not plan
     * fields: they move time only.
     *
     * Throws std::invalid_argument on an invalid plan, an unsupported
     * combination, or a missing binding; propagates io errors from
     * shard streaming.
     */
    PlanRun run(const EvalPlan &plan, const PlanInputs &inputs = {});

  private:
    /**
     * Receives one chunk of pvalueEval on the lane that computed it:
     * the chunk's column indices and their results, in the same
     * order. Called concurrently for disjoint chunks.
     */
    using PValueChunk = std::function<void(
        std::span<const size_t> indices, std::span<EvalResult> results)>;

    /**
     * The one screen step of the screened policies: the O(N)
     * estimate of every column over the pool, pbd::applyScreen, and
     * the magnitude placeholder 2^llround(estimate) in every skipped
     * slot of @p out (its config, estimates, mask and stats are set;
     * its evaluated slots are left default). Returns the indices of
     * the columns the screen keeps for the exact DP, in column order:
     * the Screened policy runs pvalueEval over them into @p out.
     */
    std::vector<size_t>
    screenStep(std::span<const pbd::ColumnView> columns,
               const pbd::ScreenConfig &config, ScreenedPValueBatch &out);

    /**
     * The one batch evaluator of the p-value policies: claims chunks
     * over @p indices, gathers each chunk's views of @p columns into
     * one FormatOps::pbdPValueBatch call — the SIMD formats tile
     * across them — and hands the chunk to @p take. Chunks are
     * grainForBatch(indices.size()) columns, except where several
     * lanes share a batch too small for the auto grain to hold one
     * FormatOps::pbdTileShape tile: then they are tile-shaped, the
     * indices sorted by (K, N) and cut into runs of the tile's width,
     * each column past its K cap alone. Results do not depend on how
     * columns are grouped into chunks (the pbd_simd.hh contract).
     */
    void pvalueEval(const FormatOps &format,
                    std::span<const pbd::ColumnView> columns,
                    std::span<const size_t> indices, SumPolicy sum,
                    const PValueChunk &take);

    /**
     * @name Kernel stages of run()
     * One stage per kernel x policy shape, each evaluating one
     * WorkBlock's span over the executor with every item in its own
     * slot, whatever the block's source.
     */
    ///@{
    std::vector<EvalResult>
    forwardFixedStage(const FormatOps &format,
                      std::span<const ForwardJob> jobs,
                      Dataflow dataflow);
    std::vector<EvalResult>
    backwardStage(const FormatOps &format,
                  std::span<const ForwardJob> jobs, Dataflow dataflow);
    std::vector<PosteriorResult>
    posteriorStage(const FormatOps &format,
                   std::span<const ForwardJob> jobs, Dataflow dataflow,
                   bool renormalize);
    std::vector<ViterbiResult>
    viterbiStage(const FormatOps &format,
                 std::span<const ForwardJob> jobs);
    ///@}

    /**
     * The adaptive policies (engine/escalate.hh): with a screen, the
     * screen step first — skipped columns keep its placeholder and
     * are never escalated. Analytic bounds then certify what they
     * can, and the rest climb the ladder cheapest-tier-first, each
     * tier one batch evaluator run, until the CertConfig criteria
     * hold or the ladder tops out. run() has validated the ladder
     * and the CertConfig (validatePlan).
     */
    AdaptiveBatch
    adaptiveEval(const Ladder &ladder,
                 std::span<const pbd::ColumnView> columns,
                 const CertConfig &cert,
                 const std::optional<pbd::ScreenConfig> &screen,
                 SumPolicy sum);

    Executor executor_;
};

/**
 * Accuracy bookkeeping of one format against the oracle, shared by
 * the Figure 9/10/11 benches (formerly three hand-rolled copies).
 *
 * add() measures accuracy::relErrLog10 and records it in the flat
 * errors() series (CDF figures include every evaluated sample, with
 * underflow/NaR mapped to the invalid sentinel). It also applies the
 * Figure 9 box-plot policy: out-of-range and underflowed results
 * count as underflows, relative error >= 1 counts as a huge error,
 * and everything else lands in the magnitude bin of the oracle
 * value. Samples with a zero oracle are skipped entirely.
 */
class AccuracyTally
{
  public:
    /**
     * @param label display label for tables
     * @param range_floor_log2 out-of-range cut-off: samples whose
     *        oracle magnitude is below 2^range_floor count as
     *        underflows even when the scalar saturated instead of
     *        flushing (posit minpos). Any nonzero value is honored —
     *        the floor is a log2 magnitude and is typically negative
     *        (e.g. Posit::scale_min), but positive floors classify
     *        too; exactly 0 disables the check. Must be finite
     *        (asserted).
     * @param bins oracle-magnitude bins for the box-plot series;
     *        empty for CDF-style use.
     */
    explicit AccuracyTally(std::string label,
                           double range_floor_log2 = 0.0,
                           std::vector<stats::ExponentBin> bins = {});

    /** Classification of one sample. */
    enum class Outcome
    {
        Recorded,   //!< error measured (and binned when in a bin)
        Underflow,  //!< out of range or computed zero
        HugeError,  //!< relative error >= 1
        ZeroOracle  //!< skipped: oracle is exactly zero
    };

    /** Measure and classify one sample against its oracle value. */
    Outcome add(const BigFloat &oracle, const EvalResult &result);

    /** The display label given at construction. */
    const std::string &label() const { return label_; }
    /** Every evaluated sample's log10 relative error (CDF input). */
    const std::vector<double> &errors() const { return errors_; }
    /** Box-plot samples (log10 rel err < 0) per magnitude bin. */
    const std::vector<std::vector<double>> &binned() const
    {
        return binned_;
    }
    /** Samples that underflowed or fell below the range floor. */
    int underflows() const { return underflows_; }
    /** Samples whose relative error reached 1 or more. */
    int hugeErrors() const { return huge_errors_; }
    /**
     * Largest log10 relative error among huge-error samples, or an
     * empty optional when no huge error was recorded (instead of the
     * former private -1e9 sentinel leaking to callers).
     */
    std::optional<double> worstLog10() const { return worst_log10_; }
    /** Total samples with a nonzero oracle. */
    size_t samples() const { return samples_; }

  private:
    std::string label_;
    double range_floor_;
    std::vector<stats::ExponentBin> bins_;
    std::vector<double> errors_;
    std::vector<std::vector<double>> binned_;
    int underflows_ = 0;
    int huge_errors_ = 0;
    std::optional<double> worst_log10_;
    size_t samples_ = 0;
};

} // namespace pstat::engine

#endif // PSTAT_ENGINE_EVAL_ENGINE_HH
