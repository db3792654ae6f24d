/**
 * @file
 * Spans recorded at the layer boundaries of a traced benchmark run.
 *
 * The benchmark traces from its own code only: it timestamps its calls
 * into each layer's public functions and the hooks the layers already
 * offer (Executor::setChunkHook, a forwarding ResultSink bound as
 * PlanInputs::result_sink). Spans stay in memory during the run and are
 * written out once at the end, so the timed phase never touches a file
 * for tracing. A layer's self time is its spans' duration minus the
 * part of each interval its child spans cover.
 */

#ifndef PSTATBENCH_TRACE_HH
#define PSTATBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/executor.hh"
#include "engine/result_sink.hh"
#include "measure.hh"

namespace pstatbench
{

/** No parent: a root span. */
inline constexpr int64_t kNoParent = -1;

/** One recorded interval. Names are string literals (not owned). */
struct Span
{
    const char *name = "";
    double start_ms = 0.0; //!< from the tracer's origin
    double end_ms = 0.0;
    int64_t parent = kNoParent; //!< index of the causing span
    uint64_t request = 0;       //!< shared by the spans of one operation
};

/** Thread-safe in-memory span store (see the file header). */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    /** Record a complete span; returns its index (a parent handle). */
    int64_t
    add(const char *name, Clock::time_point start, Clock::time_point end,
        int64_t parent, uint64_t request)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, msBetween(origin_, start),
                          msBetween(origin_, end), parent, request});
        return static_cast<int64_t>(spans_.size() - 1);
    }

    /** Open a span whose end is not known yet (children come first). */
    int64_t
    open(const char *name, Clock::time_point start, int64_t parent,
         uint64_t request)
    {
        return add(name, start, start, parent, request);
    }

    /** Set the end of a span opened with open(). */
    void
    close(int64_t index, Clock::time_point end)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<size_t>(index)].end_ms = msBetween(origin_, end);
    }

    /** Every span recorded so far (call once recording has stopped). */
    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Total self time per span name: each span's duration minus the
     * union of its children's intervals (children may overlap, as the
     * executor's parallel chunks do).
     */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<std::vector<std::pair<double, double>>> children(
            spans_.size());
        for (const Span &span : spans_)
            if (span.parent != kNoParent)
                children[static_cast<size_t>(span.parent)].push_back(
                    {span.start_ms, span.end_ms});
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &span = spans_[i];
            auto &kids = children[i];
            std::sort(kids.begin(), kids.end());
            double covered = 0.0;
            double reach = span.start_ms;
            for (const auto &[start, end] : kids) {
                const double lo = std::max(start, reach);
                const double hi = std::min(end, span.end_ms);
                if (hi > lo)
                    covered += hi - lo;
                reach = std::max(reach, std::min(end, span.end_ms));
            }
            out[span.name] += (span.end_ms - span.start_ms) - covered;
        }
        return out;
    }

    /**
     * Write every span as one tab-separated line (index order, so a
     * line's number is the parent handle). Returns false on I/O error.
     */
    bool
    write(const std::string &path) const
    {
        std::FILE *file = std::fopen(path.c_str(), "w");
        if (file == nullptr)
            return false;
        std::fprintf(file, "name\tstart_ms\tend_ms\tparent\trequest\n");
        for (const Span &span : spans_)
            std::fprintf(file, "%s\t%.6f\t%.6f\t%lld\t%llu\n", span.name,
                         span.start_ms, span.end_ms,
                         static_cast<long long>(span.parent),
                         static_cast<unsigned long long>(span.request));
        return std::fclose(file) == 0;
    }

  private:
    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Executor and sink totals of one traced plan run. */
struct RunLayers
{
    double wait_ms = 0.0;    //!< source: previous consume end -> first chunk
    double busy_ms = 0.0;    //!< executor: sum of chunk walls
    double span_ms = 0.0;    //!< executor: first chunk -> last chunk, per block
    double tail_ms = 0.0;    //!< executor: per block, span - busy / lanes
    double consume_ms = 0.0; //!< sink: forwarded consume calls + finish
    size_t chunks = 0;
    size_t blocks = 0;
};

/**
 * Instruments one EvalEngine::run at the executor and sink boundaries.
 * Installs itself as the executor's chunk hook and acts as the run's
 * PlanInputs::result_sink, forwarding every delivery to an optional
 * inner sink (the ShardFileSink a `pstat eval -o` run binds). Chunks
 * seen between two sink deliveries belong to the block delivered
 * second, because the engine evaluates one block at a time. Only the
 * channels the benchmark's plans use (fixed results, adaptive batches)
 * are forwarded; the others keep ResultSink's throwing defaults.
 */
class RunTrace final : public pstat::engine::ResultSink
{
  public:
    /** Hooks @p executor until destruction. */
    RunTrace(pstat::engine::Executor &executor, unsigned lanes,
             pstat::engine::ResultSink *inner)
        : executor_(executor), lanes_(lanes), inner_(inner)
    {
        executor_.setChunkHook([this](size_t, size_t, double wall_ms) {
            const Clock::time_point end = Clock::now();
            const auto wall = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(wall_ms));
            chunks_.push_back({end - wall, end});
        });
    }

    ~RunTrace() override { executor_.setChunkHook({}); }

    RunTrace(const RunTrace &) = delete;
    RunTrace &operator=(const RunTrace &) = delete;

    /** Mark the start of the EvalEngine::run call. */
    void start() { run_start_ = Clock::now(); }

    void
    consumeResults(const pstat::engine::WorkBlock &block,
                   std::span<const pstat::engine::EvalResult> results)
        override
    {
        deliver([&] {
            if (inner_ != nullptr)
                inner_->consumeResults(block, results);
        });
    }

    void
    consumeAdaptive(const pstat::engine::WorkBlock &block,
                    const pstat::engine::AdaptiveBatch &batch) override
    {
        deliver([&] {
            if (inner_ != nullptr)
                inner_->consumeAdaptive(block, batch);
        });
    }

    void
    finish() override
    {
        finish_start_ = Clock::now();
        if (inner_ != nullptr)
            inner_->finish();
        finish_end_ = Clock::now();
    }

    /**
     * Close the run (call right after EvalEngine::run returns), record
     * its spans under @p request, and return the layer totals.
     */
    RunLayers
    publish(Tracer &tracer, uint64_t request)
    {
        const Clock::time_point run_end = Clock::now();
        RunLayers out;
        const int64_t run = tracer.open("run", run_start_, kNoParent,
                                        request);
        Clock::time_point boundary = run_start_;
        for (const Block &block : blocks_) {
            if (block.chunks.empty())
                continue;
            Clock::time_point first = block.chunks.front().start;
            Clock::time_point last = block.chunks.front().end;
            double busy = 0.0;
            for (const Chunk &chunk : block.chunks) {
                first = std::min(first, chunk.start);
                last = std::max(last, chunk.end);
                busy += msBetween(chunk.start, chunk.end);
            }
            tracer.add("source.wait", boundary, first, run, request);
            const int64_t exec =
                tracer.add("exec.block", first, last, run, request);
            for (const Chunk &chunk : block.chunks)
                tracer.add("exec.chunk", chunk.start, chunk.end, exec,
                           request);
            tracer.add("sink.consume", block.consume_start,
                       block.consume_end, run, request);
            const double span = msBetween(first, last);
            out.wait_ms += msBetween(boundary, first);
            out.busy_ms += busy;
            out.span_ms += span;
            out.tail_ms += span - busy / lanes_;
            out.consume_ms +=
                msBetween(block.consume_start, block.consume_end);
            out.chunks += block.chunks.size();
            ++out.blocks;
            boundary = block.consume_end;
        }
        tracer.add("sink.finish", finish_start_, finish_end_, run,
                   request);
        out.consume_ms += msBetween(finish_start_, finish_end_);
        tracer.close(run, run_end);
        return out;
    }

  private:
    struct Chunk
    {
        Clock::time_point start;
        Clock::time_point end;
    };
    struct Block
    {
        std::vector<Chunk> chunks;
        Clock::time_point consume_start;
        Clock::time_point consume_end;
    };

    template <typename Forward>
    void
    deliver(const Forward &forward)
    {
        Block block;
        block.chunks = std::move(chunks_);
        chunks_.clear();
        block.consume_start = Clock::now();
        forward();
        block.consume_end = Clock::now();
        blocks_.push_back(std::move(block));
    }

    pstat::engine::Executor &executor_;
    unsigned lanes_;
    pstat::engine::ResultSink *inner_;
    Clock::time_point run_start_;
    Clock::time_point finish_start_;
    Clock::time_point finish_end_;
    std::vector<Chunk> chunks_; //!< chunks of the block in flight
    std::vector<Block> blocks_;
};

} // namespace pstatbench

#endif // PSTATBENCH_TRACE_HH
