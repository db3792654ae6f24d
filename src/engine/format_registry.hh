/**
 * @file
 * Type-erased runtime dispatch over the RealTraits format family.
 *
 * Every kernel in this repo is a template over a scalar type T; the
 * paper's experiments sweep the same kernels across binary64,
 * log-space, LNS, three posit configurations, the two oracles, and
 * the reduced-precision tier (binary32, log-space binary32,
 * posit(32,2), bfloat16). The seed wired each sweep by hand, one
 * template instantiation per call site. FormatOps erases the scalar
 * type behind a small virtual interface — the kernels still run
 * fully typed inside each implementation, so per-element cost is
 * unchanged — and FormatRegistry lets callers select formats by
 * name or id from configuration instead of template parameters.
 *
 * All results cross the type boundary as exact BigFloat values plus
 * validity flags, which is also how every accuracy figure consumes
 * them.
 */

#ifndef PSTAT_ENGINE_FORMAT_REGISTRY_HH
#define PSTAT_ENGINE_FORMAT_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bigfloat/bigfloat.hh"
#include "core/real_traits.hh"
#include "hmm/decode.hh"
#include "hmm/forward.hh"
#include "hmm/model.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd_simd.hh"

/**
 * @namespace pstat::engine
 * The engine layer: runtime dispatch over the RealTraits format
 * family (FormatRegistry / FormatOps) and batched multi-threaded
 * kernel evaluation (EvalEngine), plus the shared accuracy
 * bookkeeping (AccuracyTally) the paper figures are built from.
 */
namespace pstat::engine
{

/**
 * One scalar evaluation, exact-valued for accuracy analysis. This is
 * the common currency of the engine: apps::PValueResult and
 * apps::VicarResult are aliases of it.
 */
struct EvalResult
{
    BigFloat value;         //!< exact value of the format's result
    bool invalid = false;   //!< NaR / NaN
    bool underflow = false; //!< computed exactly 0
};

/**
 * The one conversion of a format-T value into an EvalResult: invalid
 * is the format's NaN/NaR predicate, underflow its zero, and value its
 * exact image in the oracle (all through RealTraits<T>).
 */
template <typename T>
inline EvalResult
evalResultOf(const T &v)
{
    EvalResult out;
    out.invalid = RealTraits<T>::isInvalid(v);
    out.underflow = RealTraits<T>::isZero(v);
    out.value = RealTraits<T>::toBigFloat(v);
    return out;
}

/**
 * Posterior state marginals of one sequence, exact-valued: gamma is
 * flattened row-major (gamma[t * H + q] is P(state q at t | O)),
 * each entry the exact value of the format's normalized posterior.
 */
struct PosteriorResult
{
    std::vector<EvalResult> gamma; //!< T x H marginals, row-major
    /**
     * P(O | lambda): the raw final forward sum, or the product of
     * the per-step normalizers under renormalization (which may
     * underflow in narrow linear formats even when the gammas
     * survive).
     */
    EvalResult likelihood;
    /** First step where every alpha was zero, or -1 (see hmm). */
    int first_underflow_step = -1;
};

/**
 * Viterbi decoding of one sequence: the argmax path plus the joint
 * probability of that path as computed in the format.
 */
struct ViterbiResult
{
    std::vector<int> path;  //!< most likely hidden state per position
    EvalResult probability; //!< joint probability of the path
    /** First step where every delta was zero, or -1 (see hmm). */
    int first_underflow_step = -1;
};

/**
 * Which dataflow evaluates the HMM forward kernel.
 *
 * Software is the straightforward sequential loop (Listing 1; for the
 * log formats this is the binary LSE chain that log-space software
 * performs). Accelerator is the paper's PE dataflow: pairwise
 * reduction trees for linear-domain formats, and the n-ary LSE of
 * Listing 3 / Equation (3) for the log formats (binary64 and
 * binary32 function units respectively). SoftwareCompensated is the
 * sequential loop with Neumaier-compensated accumulation — the knob
 * that keeps the reduced-precision tier usable on long chains; log
 * formats fall back to plain Software.
 */
enum class Dataflow
{
    Software,            //!< sequential Listing-1 loop
    Accelerator,         //!< reduction trees / n-ary LSE (Listing 3)
    SoftwareCompensated  //!< sequential loop + Neumaier summation
};

/**
 * Summation policy for the running p-value accumulation of the
 * Listing-2 PBD kernel. Compensated carries the p-value in a
 * NeumaierSum (see pbd::pvalueCompensated); log-domain formats have
 * no subtraction and return bit-identical results under either
 * policy. The values are the plan wire encoding of EvalPlan::sum
 * (engine/plan.hh); no policy encodes as 0.
 */
enum class SumPolicy : uint32_t
{
    Plain = 1,      //!< straightforward running sum
    Compensated = 2 //!< Kahan/Neumaier compensated running sum
};

/**
 * Rounding-error model of one format — the per-format input of the
 * running error analysis behind the adaptive escalation ladder
 * (engine/escalate.hh). The model describes how the format perturbs
 * the Listing-1/2 recurrences: in which domain the error lives, the
 * unit roundoff of one operation, and the absolute error a flush to
 * zero (underflow / FTZ) can inject. Formats whose rounding is not
 * amenable to a uniform a-priori bound (the posit and LNS tapered
 * formats, whose precision varies with magnitude) report
 * Domain::None and are never certified by the ladder.
 */
struct ErrorModel
{
    /** Where the format's rounding error lives. */
    enum class Domain
    {
        None,   //!< no uniform bound (tapered formats) — uncertifiable
        Linear, //!< relative error per op, plus absolute flush error
        Log     //!< absolute error in ln x per op (log-domain carriers)
    };

    Domain domain = Domain::None; //!< error domain of the format

    /**
     * log2 of the unit roundoff u of one arithmetic operation (and of
     * one input conversion): -53 for binary64, -24 for binary32, and
     * so on. For Domain::Log formats u applies to the carried ln x.
     * Meaningless (0) under Domain::None.
     */
    double unit_roundoff_log2 = 0.0;

    /**
     * log2 of the largest absolute error a single flush to zero can
     * inject (Domain::Linear only): -1075 for binary64 subnormal
     * rounding, -126 for bfloat16's flush-to-zero. -infinity when the
     * format cannot flush (the oracles and, in exact-zero-only
     * semantics, the log-domain carriers).
     */
    double flush_abs_log2 = 0.0;

    /**
     * true when the format supports Neumaier-compensated accumulation
     * (core/compensated.hh Compensable): under SumPolicy::Compensated
     * the running p-value's accumulation error collapses from O(N)
     * roundings to O(1), and the escalation bound reuses that
     * NeumaierSum guarantee to tighten the certified interval.
     */
    bool compensable = false;
};

/** @name ErrorModel helpers */
///@{
/** true when the model supports any certification at all. */
inline bool
certifiable(const ErrorModel &model)
{
    return model.domain != ErrorModel::Domain::None;
}
///@}

/** Type-erased operations of one number format under study. */
class FormatOps
{
  public:
    /** Virtual destructor (implementations live in the registry). */
    virtual ~FormatOps() = default;

    /** Stable machine id, e.g. "posit64_18". */
    virtual const std::string &id() const = 0;
    /** Display name as printed by RealTraits, e.g. "posit(64,18)". */
    virtual const std::string &name() const = 0;

    /**
     * log2 of the smallest positive representable magnitude for
     * formats that saturate rather than underflow (posit minpos), or
     * 0 when the notion does not apply. Used by the Figure 9
     * bookkeeping to detect out-of-range results that the paper's
     * hardware would flush to zero.
     */
    virtual double rangeFloorLog2() const = 0;

    /**
     * The format's rounding-error model, consumed by the adaptive
     * escalation bounds (engine/escalate.hh). The base implementation
     * returns the uncertifiable Domain::None model; the registry's
     * IEEE, log-domain, and oracle formats override it.
     */
    virtual ErrorModel errorModel() const;

    /** Exact value of the format's rounding of a double. */
    virtual BigFloat fromDouble(double v) const = 0;
    /** Exact value of the format's rounding of an oracle value. */
    virtual BigFloat fromBigFloat(const BigFloat &v) const = 0;

    /**
     * Listing-2 PBD upper-tail p-value P(X >= k), accumulated with
     * the chosen summation policy. (No default argument here on
     * purpose: defaults on virtuals bind statically; the policy of
     * a run is the plan's EvalPlan::sum.)
     */
    virtual EvalResult pbdPValue(std::span<const double> success_probs,
                                 int k_threshold,
                                 SumPolicy sum) const = 0;

    /**
     * pbdPValue over a span of columns in one call — the multi-column
     * SoA entry the SIMD backends hook into. The base implementation
     * is the per-column scalar loop; binary64, binary32, `log` and
     * the scaled_dd oracle's plain sums override it with the
     * vectorized batch kernel (pbd::pvalueBatchSimd), which is
     * bit-identical to the scalar path by the simd.hh contract.
     * @p out must have columns.size() entries.
     */
    virtual void pbdPValueBatch(std::span<const pbd::ColumnView> columns,
                                SumPolicy sum,
                                std::span<EvalResult> out) const;

    /**
     * The tile the engine cuts small batches into chunks of: the SoA
     * tile pbdPValueBatch runs under @p sum on the active ISA
     * (pbd::pvalueTileShape), its lane count and K cap, for `log` and
     * the scaled_dd oracle's plain sum; width 0 otherwise. binary64
     * and binary32 run tiles too but report none: a tile runs every
     * lane to its deepest lane's K, and in those formats the extra
     * rows can sink through subnormals, whose arithmetic is slow
     * enough that binary32 streams of LoFreq shards ran 2.7x slower
     * in tiles than one column at a time.
     */
    virtual pbd::TileShape pbdTileShape(SumPolicy sum) const;

    /** Listing-1/3 HMM forward likelihood. */
    virtual EvalResult hmmForward(const hmm::Model &model,
                                  std::span<const int> obs,
                                  Dataflow dataflow) const = 0;

    /**
     * HMM backward likelihood: P(O) from the backward termination
     * sum. The Accelerator dataflow maps to the tree reduction for
     * linear formats and the n-ary LSE (backwardLogNary) for the
     * log formats, mirroring hmmForward.
     */
    virtual EvalResult hmmBackward(const hmm::Model &model,
                                   std::span<const int> obs,
                                   Dataflow dataflow) const = 0;

    /**
     * Forward-backward posterior state marginals. @p renormalize
     * selects the per-step rescaling defense against underflow (the
     * scales cancel in the marginals); the dataflow maps to the
     * Reduction policy of every inner sum exactly as in hmmForward's
     * generic path.
     */
    virtual PosteriorResult hmmPosterior(const hmm::Model &model,
                                         std::span<const int> obs,
                                         Dataflow dataflow,
                                         bool renormalize) const = 0;

    /**
     * Viterbi decoding with all products carried in the format.
     * max/argmax are order operations, so there is no reduction
     * policy: the failure mode under study is delta underflow.
     */
    virtual ViterbiResult hmmViterbi(const hmm::Model &model,
                                     std::span<const int> obs) const = 0;
};

/**
 * The runtime catalog of every registered format. Construction
 * registers the whole RealTraits family; lookup accepts the stable
 * id, the RealTraits display name, or a common alias ("log",
 * "lns64", "oracle", ...).
 */
class FormatRegistry
{
  public:
    /** The process-wide registry with all built-in formats. */
    static const FormatRegistry &instance();

    /** Lookup by id, display name, or alias; nullptr when absent. */
    const FormatOps *find(const std::string &key) const;

    /** Lookup that throws std::out_of_range on an unknown key. */
    const FormatOps &at(const std::string &key) const;

    /** Ids of every registered format, in registration order. */
    std::vector<std::string> ids() const;

    /** All registered formats, in registration order. */
    std::vector<const FormatOps *> all() const;

    /** Number of registered formats. */
    size_t size() const { return formats_.size(); }

  private:
    FormatRegistry();

    void add(std::unique_ptr<FormatOps> ops,
             std::vector<std::string> aliases);

    std::vector<std::unique_ptr<FormatOps>> formats_;
    // key (id / name / alias) -> index into formats_
    std::vector<std::pair<std::string, size_t>> index_;
};

} // namespace pstat::engine

#endif // PSTAT_ENGINE_FORMAT_REGISTRY_HH
