#include "engine/format_registry.hh"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/real_traits.hh"
#include "hmm/forward_simd.hh"
#include "pbd/pbd.hh"
#include "pbd/pbd_simd.hh"

namespace pstat::engine
{

void
FormatOps::pbdPValueBatch(std::span<const pbd::ColumnView> columns,
                          SumPolicy sum,
                          std::span<EvalResult> out) const
{
    assert(columns.size() == out.size());
    for (size_t i = 0; i < columns.size(); ++i)
        out[i] = pbdPValue(columns[i].success_probs, columns[i].k, sum);
}

ErrorModel
FormatOps::errorModel() const
{
    return {}; // Domain::None: not certifiable by the ladder.
}

pbd::TileShape
FormatOps::pbdTileShape(SumPolicy) const
{
    return {}; // the per-column loop: no tile
}

namespace
{

/** log2(minpos) for saturating formats; 0 where not applicable. */
template <typename T>
double
rangeFloorOf()
{
    if constexpr (requires { T::scale_min; })
        return static_cast<double>(T::scale_min);
    else
        return 0.0;
}

/**
 * Per-scalar-type ErrorModel. The IEEE carriers get the textbook
 * linear model (unit roundoff 2^-(p), worst flush error at the
 * subnormal floor — or the FTZ cutoff for bfloat16, which flushes
 * whole subnormal results); the log-domain carriers carry ln x in an
 * IEEE scalar, so their per-op error is absolute in ln x with that
 * scalar's roundoff and they never flush (log zero is reserved for
 * exact zeros). The oracles get their extended significands with no
 * flush. Posits and LNS taper: no uniform per-op bound exists, so
 * they stay Domain::None and the ladder never certifies them.
 */
template <typename T>
ErrorModel
errorModelOf()
{
    using D = ErrorModel::Domain;
    constexpr double kNoFlush =
        -std::numeric_limits<double>::infinity();
    if constexpr (std::is_same_v<T, double>)
        return {D::Linear, -53.0, -1075.0, true};
    else if constexpr (std::is_same_v<T, float>)
        return {D::Linear, -24.0, -150.0, true};
    else if constexpr (std::is_same_v<T, BFloat16>)
        return {D::Linear, -8.0, -126.0, true};
    else if constexpr (std::is_same_v<T, LogDouble>)
        return {D::Log, -53.0, kNoFlush, false};
    else if constexpr (std::is_same_v<T, LogFloat>)
        return {D::Log, -24.0, kNoFlush, false};
    else if constexpr (std::is_same_v<T, ScaledDD>)
        // Double-double: >= 2*53 - 2 significand bits; -104 is the
        // conservative published bound for DD arithmetic.
        return {D::Linear, -104.0, kNoFlush, false};
    else if constexpr (std::is_same_v<T, BigFloat>)
        // 256-bit significand; -250 leaves slack for the library's
        // last-place behavior.
        return {D::Linear, -250.0, kNoFlush, false};
    else
        return {}; // posits, LNS: tapered — Domain::None.
}

/** The Reduction policy a generic (non-log-PE) dataflow maps to. */
hmm::Reduction
reductionOf(Dataflow dataflow)
{
    switch (dataflow) {
    case Dataflow::Accelerator:
        return hmm::Reduction::Tree;
    case Dataflow::SoftwareCompensated:
        return hmm::Reduction::Compensated;
    case Dataflow::Software:
        break;
    }
    return hmm::Reduction::Sequential;
}

/** The one FormatOps implementation, fully typed inside. */
template <typename T>
class FormatOpsImpl final : public FormatOps
{
  public:
    explicit FormatOpsImpl(std::string id)
        : id_(std::move(id)), name_(RealTraits<T>::name())
    {
    }

    const std::string &id() const override { return id_; }
    const std::string &name() const override { return name_; }

    double rangeFloorLog2() const override { return rangeFloorOf<T>(); }

    ErrorModel errorModel() const override { return errorModelOf<T>(); }

    BigFloat
    fromDouble(double v) const override
    {
        return RealTraits<T>::toBigFloat(RealTraits<T>::fromDouble(v));
    }

    BigFloat
    fromBigFloat(const BigFloat &v) const override
    {
        return RealTraits<T>::toBigFloat(
            RealTraits<T>::fromBigFloat(v));
    }

    EvalResult
    pbdPValue(std::span<const double> success_probs, int k_threshold,
              SumPolicy sum) const override
    {
        if (sum == SumPolicy::Compensated)
            return evalResultOf(
                pbd::pvalueCompensated<T>(success_probs, k_threshold));
        return evalResultOf(pbd::pvalue<T>(success_probs, k_threshold));
    }

    void
    pbdPValueBatch(std::span<const pbd::ColumnView> columns,
                   SumPolicy sum,
                   std::span<EvalResult> out) const override
    {
        // The IEEE carrier formats run the SoA SIMD batch kernel —
        // bit-identical to the scalar per-column path by the
        // pbd_simd_tile.hh contract (and ctest-enforced).
        if constexpr (std::is_same_v<T, double> ||
                      std::is_same_v<T, float>) {
            assert(columns.size() == out.size());
            std::vector<T> values(columns.size());
            if (sum == SumPolicy::Compensated)
                pbd::pvalueBatchCompensatedSimd<T>(columns, values);
            else
                pbd::pvalueBatchSimd<T>(columns, values);
            for (size_t i = 0; i < values.size(); ++i)
                out[i] = evalResultOf(values[i]);
        } else if constexpr (std::is_same_v<T, ScaledDD> ||
                             std::is_same_v<T, LogDouble>) {
            // The oracle's plain sums and both of `log`'s policies
            // (log is not Compensable: they are the same sum) run
            // their lanes tiles, under the same contract. The
            // oracle's Neumaier sum subtracts, which its tile cannot:
            // that stays per column.
            if (std::is_same_v<T, ScaledDD> &&
                sum == SumPolicy::Compensated) {
                FormatOps::pbdPValueBatch(columns, sum, out);
                return;
            }
            assert(columns.size() == out.size());
            std::vector<T> values(columns.size());
            pbd::pvalueBatchSimd<T>(columns, values);
            for (size_t i = 0; i < values.size(); ++i)
                out[i] = evalResultOf(values[i]);
        } else {
            FormatOps::pbdPValueBatch(columns, sum, out);
        }
    }

    pbd::TileShape
    pbdTileShape(SumPolicy sum) const override
    {
        // The lanes tiles pbdPValueBatch runs: `log` under both
        // policies, the oracle under its plain sum. binary64 and
        // binary32 report none (see the FormatOps comment).
        if constexpr (std::is_same_v<T, LogDouble>) {
            (void)sum;
            return pbd::pvalueTileShape<T>();
        } else if constexpr (std::is_same_v<T, ScaledDD>) {
            if (sum == SumPolicy::Plain)
                return pbd::pvalueTileShape<T>();
        }
        (void)sum;
        return {};
    }

    EvalResult
    hmmForward(const hmm::Model &model, std::span<const int> obs,
               Dataflow dataflow) const override
    {
        if (dataflow == Dataflow::Accelerator) {
            // The log accelerator PE is the n-ary LSE of Listing 3
            // (in the format's own function-unit width), not a
            // pairwise tree over binary LSEs. On `log` it runs the
            // vectorized state tile, bit-identical to forwardLogNary.
            if constexpr (std::is_same_v<T, LogDouble>)
                return evalResultOf(
                    hmm::forwardLogNarySimd(model, obs).likelihood);
            if constexpr (std::is_same_v<T, LogFloat>)
                return evalResultOf(
                    hmm::forwardLogNary<float>(model, obs).likelihood);
        }
        // Software dataflow on the IEEE carriers takes the vectorized
        // state-tile kernel, bit-identical to the sequential loop.
        if constexpr (std::is_same_v<T, double> ||
                      std::is_same_v<T, float>) {
            if (dataflow == Dataflow::Software)
                return evalResultOf(
                    hmm::forwardSimd<T>(model, obs).likelihood);
        }
        return evalResultOf(
            hmm::forward<T>(model, obs, reductionOf(dataflow))
                .likelihood);
    }

    EvalResult
    hmmBackward(const hmm::Model &model, std::span<const int> obs,
                Dataflow dataflow) const override
    {
        if (dataflow == Dataflow::Accelerator) {
            // Same PE story as forward: the log accelerator runs the
            // n-ary LSE dataflow, not a tree of binary LSEs.
            if constexpr (std::is_same_v<T, LogDouble>)
                return evalResultOf(
                    hmm::backwardLogNary(model, obs).likelihood);
            if constexpr (std::is_same_v<T, LogFloat>)
                return evalResultOf(
                    hmm::backwardLogNary<float>(model, obs).likelihood);
        }
        return evalResultOf(
            hmm::backward<T>(model, obs, reductionOf(dataflow))
                .likelihood);
    }

    PosteriorResult
    hmmPosterior(const hmm::Model &model, std::span<const int> obs,
                 Dataflow dataflow, bool renormalize) const override
    {
        const auto res = hmm::posterior<T>(
            model, obs, reductionOf(dataflow), renormalize);
        PosteriorResult out;
        out.gamma.reserve(res.gamma.size());
        for (const T &g : res.gamma)
            out.gamma.push_back(evalResultOf(g));
        out.likelihood = evalResultOf(res.likelihood);
        out.first_underflow_step = res.first_underflow_step;
        return out;
    }

    ViterbiResult
    hmmViterbi(const hmm::Model &model,
               std::span<const int> obs) const override
    {
        auto res = hmm::viterbi<T>(model, obs);
        ViterbiResult out;
        out.path = std::move(res.path);
        out.probability = evalResultOf(res.probability);
        out.first_underflow_step = res.first_underflow_step;
        return out;
    }

  private:
    std::string id_;
    std::string name_;
};

} // namespace

FormatRegistry::FormatRegistry()
{
    add(std::make_unique<FormatOpsImpl<double>>("binary64"),
        {"double", "ieee754"});
    add(std::make_unique<FormatOpsImpl<LogDouble>>("log"),
        {"logdouble", "log-space"});
    add(std::make_unique<FormatOpsImpl<Lns64>>("lns64"), {"lns"});
    add(std::make_unique<FormatOpsImpl<Posit<64, 9>>>("posit64_9"),
        {});
    add(std::make_unique<FormatOpsImpl<Posit<64, 12>>>("posit64_12"),
        {});
    add(std::make_unique<FormatOpsImpl<Posit<64, 18>>>("posit64_18"),
        {});
    // The reduced-precision (32-bit and below) tier.
    add(std::make_unique<FormatOpsImpl<float>>("binary32"),
        {"float", "single"});
    add(std::make_unique<FormatOpsImpl<LogFloat>>("log32"),
        {"logfloat", "log-space32"});
    add(std::make_unique<FormatOpsImpl<Posit<32, 2>>>("posit32_2"),
        {"posit32"});
    add(std::make_unique<FormatOpsImpl<BFloat16>>("bfloat16"),
        {"bf16"});
    add(std::make_unique<FormatOpsImpl<ScaledDD>>("scaled_dd"),
        {"scaled-dd", "oracle"});
    add(std::make_unique<FormatOpsImpl<BigFloat>>("bigfloat256"),
        {"bigfloat"});
}

void
FormatRegistry::add(std::unique_ptr<FormatOps> ops,
                    std::vector<std::string> aliases)
{
    const size_t slot = formats_.size();
    index_.emplace_back(ops->id(), slot);
    index_.emplace_back(ops->name(), slot);
    for (auto &alias : aliases)
        index_.emplace_back(std::move(alias), slot);
    formats_.push_back(std::move(ops));
}

const FormatRegistry &
FormatRegistry::instance()
{
    static const FormatRegistry registry;
    return registry;
}

const FormatOps *
FormatRegistry::find(const std::string &key) const
{
    for (const auto &[name, slot] : index_) {
        if (name == key)
            return formats_[slot].get();
    }
    return nullptr;
}

const FormatOps &
FormatRegistry::at(const std::string &key) const
{
    const FormatOps *ops = find(key);
    if (ops == nullptr)
        throw std::out_of_range("unknown number format: " + key);
    return *ops;
}

std::vector<std::string>
FormatRegistry::ids() const
{
    std::vector<std::string> out;
    out.reserve(formats_.size());
    for (const auto &f : formats_)
        out.push_back(f->id());
    return out;
}

std::vector<const FormatOps *>
FormatRegistry::all() const
{
    std::vector<const FormatOps *> out;
    out.reserve(formats_.size());
    for (const auto &f : formats_)
        out.push_back(f.get());
    return out;
}

} // namespace pstat::engine
