/**
 * @file
 * EvalPlan — the one serializable description of an evaluation.
 *
 * Seven PRs of feature growth left EvalEngine with the cross product
 * of {pvalue, forward, backward, posterior, viterbi} x {batch,
 * stream} x {plain, screened, adaptive} as ad-hoc public entry
 * points, and every new axis multiplied the surface again. EvalPlan
 * collapses that matrix into one value type composing four
 * orthogonal axes:
 *
 *  - **kernel**: which statistical kernel runs (PValue, Forward,
 *    Backward, Posterior, Viterbi);
 *  - **source**: where the work items come from (an in-memory span
 *    handed over at run time, or a shard stream described by paths
 *    + queue capacity);
 *  - **accuracy policy**: how accuracy/runtime is traded (a fixed
 *    registry format, the two-stage screen, the adaptive escalation
 *    ladder, or screen + ladder composed), with the ScreenConfig /
 *    CertConfig / ladder tiers folded into the plan;
 *  - **execution knobs**: summation policy, HMM dataflow and
 *    posterior renormalization — the knobs that decide result bits.
 *
 * EvalEngine::run(plan, inputs) (eval_engine.hh) is the one entry
 * point that executes a plan, and it reads every field. A plan
 * names every setting that moves a result bit: run() resolves no
 * default from the environment, so a plan replays to the same bits
 * on any host and under any shell. Lanes, scheduling grain and SIMD
 * backend are not plan fields: they move time, never bits, and stay
 * process settings (PSTAT_THREADS, PSTAT_GRAIN, PSTAT_SIMD;
 * ServerConfig for the daemon). A plan
 * also has a versioned binary encoding (encodePlan / decodePlan, shard-style
 * magic + version + CRC-32 trailer, see io/shard.hh) so the same
 * description can be dumped for debugging (`pstat eval --plan-dump`)
 * today and travel over a socket to a `pstat serve` daemon or a
 * `pstat work` worker unchanged tomorrow — which is exactly the
 * "statistical risk vs runtime as an explicit, schedulable control
 * surface" framing of Jordan (PAPERS.md) that the ROADMAP's next
 * subsystems build on.
 *
 * This header deliberately depends only on the policy structs
 * (escalate.hh, pbd/screen.hh) and not on EvalEngine itself, so a
 * coordinator can parse, validate, and route plans without linking
 * the worker pool.
 */

#ifndef PSTAT_ENGINE_PLAN_HH
#define PSTAT_ENGINE_PLAN_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/escalate.hh"
#include "engine/format_registry.hh"
#include "pbd/screen.hh"

namespace pstat::engine
{

/** Any plan-encoding failure: truncation, bad magic/version/CRC. */
class PlanError : public std::runtime_error
{
  public:
    /** Inherits the message constructor. */
    using std::runtime_error::runtime_error;
};

/** Which statistical kernel a plan evaluates. */
enum class PlanKernel : uint32_t
{
    PValue = 1,    //!< Listing-2 PBD upper-tail p-values (columns)
    Forward = 2,   //!< Listing-1/3 HMM forward likelihoods
    Backward = 3,  //!< HMM backward likelihoods
    Posterior = 4, //!< forward-backward posterior marginals
    Viterbi = 5,   //!< Viterbi decodes
};

/** Where a plan's work items come from. */
enum class PlanSource : uint32_t
{
    Memory = 1,      //!< an in-memory span handed over via PlanInputs
    ShardStream = 2, //!< shard files streamed through io::ShardStream
};

/** How a plan trades accuracy against runtime. */
enum class PlanPolicy : uint32_t
{
    Fixed = 1,    //!< one registry format, every item evaluated
    Screened = 2, //!< two-stage screen, exact DP in the guard band
    Adaptive = 3, //!< certified escalation up the format ladder
    /** Screen first, then escalate only the surviving columns. */
    ScreenedAdaptive = 4,
};

/**
 * A composable, serializable description of one evaluation: what to
 * evaluate, from where, with which accuracy policy, under which
 * execution knobs. Runtime-only bindings (the in-memory spans, the
 * borrowed HMM model, result sinks) are *not* part of the plan —
 * they arrive separately as PlanInputs (eval_engine.hh), which is
 * what keeps the plan itself free to travel across processes.
 */
struct EvalPlan
{
    PlanKernel kernel = PlanKernel::PValue;  //!< which kernel
    PlanSource source = PlanSource::Memory;  //!< where items come from
    PlanPolicy policy = PlanPolicy::Fixed;   //!< accuracy policy

    /**
     * Registry format id of the Fixed / Screened tier (ignored by the
     * adaptive policies, whose tiers come from ladder_ids).
     */
    std::string format_id;

    /**
     * Escalation tiers (registry ids, cheapest first) of the adaptive
     * policies. An adaptive plan names at least one tier.
     */
    std::vector<std::string> ladder_ids;

    /** Certification criteria of the adaptive policies. */
    CertConfig cert;

    /** Screen configuration of Screened / ScreenedAdaptive. */
    pbd::ScreenConfig screen;

    /** Summation policy of the PBD kernel. */
    SumPolicy sum = SumPolicy::Plain;

    /** Dataflow of the HMM kernels (reduction trees vs n-ary LSE). */
    Dataflow dataflow = Dataflow::Accelerator;

    /** Per-step renormalization of the Posterior kernel. */
    bool renormalize = false;

    /** Shard files of a ShardStream source, evaluated in order. */
    std::vector<std::string> shard_paths;

    /** Prefetch bound of a ShardStream source (loaded shards). */
    uint64_t queue_capacity = 2;

    /** Field-wise comparison (spans every serialized field). */
    bool operator==(const EvalPlan &other) const;
};

/**
 * The oracle every accuracy figure measures against, as a plan: a
 * Fixed, memory-source `scaled_dd` evaluation of `kernel` with
 * sum = Plain, dataflow = Software and renormalize = false. Both
 * pins are load-bearing. The Accelerator dataflow would map to a
 * Tree reduction, and a Compensated sum would switch ScaledDD (a
 * Compensable format) to Neumaier summation; either moves the
 * oracle's bits off the serial ScaledDD recursions
 * (pbd::pvalueOracle, hmm::forwardOracle, hmm::backward /
 * posterior / viterbi<ScaledDD>).
 */
EvalPlan oraclePlan(PlanKernel kernel);

/** @name Plan axis names (stable, used in messages and dumps) */
///@{
/** "pvalue", "forward", ... — stable name of a kernel. */
const char *planKernelName(PlanKernel kernel);
/** "memory" / "shard-stream" — stable name of a source. */
const char *planSourceName(PlanSource source);
/** "fixed", "screened", ... — stable name of a policy. */
const char *planPolicyName(PlanPolicy policy);
///@}

/**
 * Structural validation of a plan against the format registry and
 * the supported kernel x source x policy matrix. Throws
 * std::invalid_argument with a caller-actionable message on the
 * first violation: an unknown format or ladder tier, a screened or
 * adaptive non-p-value kernel, a streamed decode kernel, an adaptive
 * plan with no ladder tier, an adaptive certification with no
 * criterion, a tolerance that is not a negative finite log2, a
 * non-finite threshold, a zero queue capacity. It is the one check
 * on certification settings. Valid plans return normally.
 * Binding-level checks (does the caller actually supply columns / a
 * model?) happen in EvalEngine::run, because they depend on
 * PlanInputs.
 */
void validatePlan(const EvalPlan &plan);

/**
 * One-line human description of a plan, e.g.
 * "pvalue over shard-stream (3 shards), screened-adaptive [...]".
 */
std::string describePlan(const EvalPlan &plan);

/**
 * The format label stamped into a result shard's meta block (and
 * into a serve-mode response): the plan's format id for the fixed
 * policies, or a composite "adaptive:tier1,tier2,..." label naming
 * the ladder tiers — the results of an adaptive run mix tiers, so
 * no single registry id is honest. Shared by `pstat eval -o` and the
 * serve daemon so the two paths stamp byte-identical meta blocks.
 */
std::string resultFormatLabel(const EvalPlan &plan);

/** The on-wire magic, first 8 bytes of every encoded plan. */
inline constexpr char plan_magic[8] = {'P', 'S', 'T', 'P',
                                       'L', 'A', 'N', '1'};
/** Current plan encoding version; decoders reject anything else. */
inline constexpr uint32_t plan_version = 2;

/**
 * Versioned binary encoding of a plan, following the shard record
 * conventions (io/shard.hh): little-endian fixed-width fields, the
 * plan_magic / plan_version header, length-prefixed strings, doubles
 * as IEEE bit patterns, and an 8-byte trailer holding the CRC-32 of
 * every preceding byte (zero-extended, exactly like the shard
 * trailer). The encoding is deterministic: equal plans encode to
 * equal bytes (golden-tested).
 */
std::vector<uint8_t> encodePlan(const EvalPlan &plan);

/**
 * Decode an encoded plan. Throws PlanError on anything malformed:
 * a buffer too small for header + trailer, bad magic, an unsupported
 * version, a CRC mismatch, a field or string overrunning the buffer,
 * an out-of-range enum value (a sum of 0, the retired "process
 * default" policy, among them), or trailing bytes after the last
 * field. A successfully decoded plan is structurally well-formed at
 * the encoding level but is *not* semantically validated — callers
 * run validatePlan (EvalEngine::run does) before executing it.
 */
EvalPlan decodePlan(std::span<const uint8_t> bytes);

/**
 * Encode `plan` into `path`, replacing any file there whole
 * (io/file_replacement.hh): readers see the old plan or the new
 * one, and a failed write leaves the old file. Throws PlanError on
 * I/O failure or a target that is not a regular file.
 */
void writePlanFile(const std::string &path, const EvalPlan &plan);

/** Read and decode `path`; throws PlanError on I/O or decode. */
EvalPlan readPlanFile(const std::string &path);

} // namespace pstat::engine

#endif // PSTAT_ENGINE_PLAN_HH
