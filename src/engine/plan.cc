#include "engine/plan.hh"

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "io/codec.hh"
#include "io/file_replacement.hh"
#include "io/shard.hh"

namespace pstat::engine
{

namespace
{

/** Serialized-field double equality: bit patterns, so NaN == NaN. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool
sameOptional(const std::optional<double> &a,
             const std::optional<double> &b)
{
    if (a.has_value() != b.has_value())
        return false;
    return !a || sameBits(*a, *b);
}

/** An enum decoded from the wire, range-checked. */
template <typename E>
E
decodeEnum(uint32_t raw, uint32_t lo, uint32_t hi, const char *what)
{
    if (raw < lo || raw > hi) {
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "plan %s value %" PRIu32 " is out of range",
                      what, raw);
        throw PlanError(msg);
    }
    return static_cast<E>(raw);
}

/** Presence flags of the flags word. */
constexpr uint32_t flag_renormalize = 1u << 0;
constexpr uint32_t flag_tol = 1u << 1;
constexpr uint32_t flag_threshold = 1u << 2;
constexpr uint32_t flag_known_mask =
    flag_renormalize | flag_tol | flag_threshold;

[[noreturn]] void
invalid(const std::string &message)
{
    throw std::invalid_argument("plan: " + message);
}

} // namespace

bool
EvalPlan::operator==(const EvalPlan &other) const
{
    return kernel == other.kernel && source == other.source &&
           policy == other.policy && format_id == other.format_id &&
           ladder_ids == other.ladder_ids &&
           sameOptional(cert.tol_rel_log2, other.cert.tol_rel_log2) &&
           sameOptional(cert.threshold_log2,
                        other.cert.threshold_log2) &&
           sameBits(screen.threshold_log2,
                    other.screen.threshold_log2) &&
           sameBits(screen.guard_band_log2,
                    other.screen.guard_band_log2) &&
           sum == other.sum && dataflow == other.dataflow &&
           renormalize == other.renormalize &&
           shard_paths == other.shard_paths &&
           queue_capacity == other.queue_capacity;
}

const char *
planKernelName(PlanKernel kernel)
{
    switch (kernel) {
    case PlanKernel::PValue:
        return "pvalue";
    case PlanKernel::Forward:
        return "forward";
    case PlanKernel::Backward:
        return "backward";
    case PlanKernel::Posterior:
        return "posterior";
    case PlanKernel::Viterbi:
        return "viterbi";
    }
    return "?";
}

const char *
planSourceName(PlanSource source)
{
    switch (source) {
    case PlanSource::Memory:
        return "memory";
    case PlanSource::ShardStream:
        return "shard-stream";
    }
    return "?";
}

const char *
planPolicyName(PlanPolicy policy)
{
    switch (policy) {
    case PlanPolicy::Fixed:
        return "fixed";
    case PlanPolicy::Screened:
        return "screened";
    case PlanPolicy::Adaptive:
        return "adaptive";
    case PlanPolicy::ScreenedAdaptive:
        return "screened-adaptive";
    }
    return "?";
}

void
validatePlan(const EvalPlan &plan)
{
    const auto kernel = static_cast<uint32_t>(plan.kernel);
    if (kernel < 1 || kernel > 5)
        invalid("kernel is out of range");
    const auto source = static_cast<uint32_t>(plan.source);
    if (source < 1 || source > 2)
        invalid("source is out of range");
    const auto policy = static_cast<uint32_t>(plan.policy);
    if (policy < 1 || policy > 4)
        invalid("policy is out of range");
    const auto sum = static_cast<uint32_t>(plan.sum);
    if (sum < 1 || sum > 2)
        invalid("summation policy is out of range");
    if (static_cast<uint32_t>(plan.dataflow) >
        static_cast<uint32_t>(Dataflow::SoftwareCompensated))
        invalid("dataflow is out of range");

    const bool screened = plan.policy == PlanPolicy::Screened ||
                          plan.policy == PlanPolicy::ScreenedAdaptive;
    const bool adaptive = plan.policy == PlanPolicy::Adaptive ||
                          plan.policy == PlanPolicy::ScreenedAdaptive;

    // The supported kernel x source x policy matrix. Everything
    // outside it fails loudly here instead of deep inside a stage.
    if (screened && plan.kernel != PlanKernel::PValue)
        invalid(std::string("the screen applies to the pvalue kernel "
                            "only, not ") +
                planKernelName(plan.kernel));
    if (adaptive && plan.kernel != PlanKernel::PValue)
        invalid(std::string("no adaptive ladder exists for the ") +
                planKernelName(plan.kernel) + " kernel");
    if (plan.source == PlanSource::ShardStream &&
        (plan.kernel == PlanKernel::Backward ||
         plan.kernel == PlanKernel::Posterior ||
         plan.kernel == PlanKernel::Viterbi))
        invalid(std::string("the ") + planKernelName(plan.kernel) +
                " kernel has no shard-stream source yet");

    const auto &registry = FormatRegistry::instance();
    if (!adaptive) {
        if (plan.format_id.empty())
            invalid(std::string(planPolicyName(plan.policy)) +
                    " policy needs a format_id");
        if (registry.find(plan.format_id) == nullptr)
            invalid("unknown format \"" + plan.format_id + "\"");
    } else {
        if (plan.ladder_ids.empty())
            invalid(std::string(planPolicyName(plan.policy)) +
                    " policy needs at least one ladder tier");
        for (const std::string &id : plan.ladder_ids)
            if (registry.find(id) == nullptr)
                invalid("unknown ladder tier \"" + id + "\"");
        // Certification criteria, checked here and nowhere else, so
        // a bad plan fails before any tier runs.
        if (!plan.cert.tol_rel_log2 && !plan.cert.threshold_log2)
            invalid("adaptive certification needs at least one "
                    "criterion (tol_rel_log2 or threshold_log2)");
        if (plan.cert.tol_rel_log2 &&
            (!std::isfinite(*plan.cert.tol_rel_log2) ||
             !(*plan.cert.tol_rel_log2 < 0.0)))
            invalid("tol_rel_log2 must be a negative finite log2");
        if (plan.cert.threshold_log2 &&
            !std::isfinite(*plan.cert.threshold_log2))
            invalid("threshold_log2 must be finite");
    }

    if (plan.source == PlanSource::ShardStream &&
        plan.queue_capacity == 0)
        invalid("queue_capacity must be positive");
}

EvalPlan
oraclePlan(PlanKernel kernel)
{
    EvalPlan plan;
    plan.kernel = kernel;
    plan.source = PlanSource::Memory;
    plan.policy = PlanPolicy::Fixed;
    plan.format_id = "scaled_dd";
    plan.sum = SumPolicy::Plain;
    plan.dataflow = Dataflow::Software;
    plan.renormalize = false;
    return plan;
}

std::string
describePlan(const EvalPlan &plan)
{
    std::string out = planKernelName(plan.kernel);
    out += " over ";
    out += planSourceName(plan.source);
    if (plan.source == PlanSource::ShardStream) {
        out += " (" + std::to_string(plan.shard_paths.size()) +
               " shards, queue " +
               std::to_string(plan.queue_capacity) + ")";
    }
    out += ", ";
    out += planPolicyName(plan.policy);
    const bool adaptive = plan.policy == PlanPolicy::Adaptive ||
                          plan.policy == PlanPolicy::ScreenedAdaptive;
    if (!adaptive) {
        out += " format " + plan.format_id;
    } else {
        out += " ladder ";
        for (size_t i = 0; i < plan.ladder_ids.size(); ++i) {
            if (i > 0)
                out += "->";
            out += plan.ladder_ids[i];
        }
        char buf[64];
        if (plan.cert.tol_rel_log2) {
            std::snprintf(buf, sizeof(buf), ", tol 2^%g",
                          *plan.cert.tol_rel_log2);
            out += buf;
        }
        if (plan.cert.threshold_log2) {
            std::snprintf(buf, sizeof(buf), ", threshold 2^%g",
                          *plan.cert.threshold_log2);
            out += buf;
        }
    }
    if (plan.policy == PlanPolicy::Screened ||
        plan.policy == PlanPolicy::ScreenedAdaptive) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), ", guard %g bits",
                      plan.screen.guard_band_log2);
        out += buf;
    }
    out += plan.sum == SumPolicy::Compensated ? ", sum compensated"
                                              : ", sum plain";
    return out;
}

std::string
resultFormatLabel(const EvalPlan &plan)
{
    if (plan.policy != PlanPolicy::Adaptive &&
        plan.policy != PlanPolicy::ScreenedAdaptive)
        return plan.format_id;
    std::string label = "adaptive:";
    for (size_t i = 0; i < plan.ladder_ids.size(); ++i) {
        if (i > 0)
            label += ",";
        label += plan.ladder_ids[i];
    }
    return label;
}

std::vector<uint8_t>
encodePlan(const EvalPlan &plan)
{
    std::vector<uint8_t> bytes;
    bytes.reserve(160);
    io::ByteWriter out(bytes);
    out.bytes(plan_magic, sizeof(plan_magic));
    out.put(plan_version);
    out.put(static_cast<uint32_t>(plan.kernel));
    out.put(static_cast<uint32_t>(plan.source));
    out.put(static_cast<uint32_t>(plan.policy));
    out.put(static_cast<uint32_t>(plan.sum));
    out.put(static_cast<uint32_t>(plan.dataflow));
    uint32_t flags = 0;
    if (plan.renormalize)
        flags |= flag_renormalize;
    if (plan.cert.tol_rel_log2)
        flags |= flag_tol;
    if (plan.cert.threshold_log2)
        flags |= flag_threshold;
    out.put(flags);
    out.put(plan.queue_capacity);
    // Absent optionals serialize as 0.0 so equal plans always encode
    // to equal bytes (the flags word carries the presence).
    out.put(plan.cert.tol_rel_log2.value_or(0.0));
    out.put(plan.cert.threshold_log2.value_or(0.0));
    out.put(plan.screen.threshold_log2);
    out.put(plan.screen.guard_band_log2);
    out.str(plan.format_id);
    out.put(static_cast<uint32_t>(plan.ladder_ids.size()));
    for (const std::string &id : plan.ladder_ids)
        out.str(id);
    out.put(static_cast<uint32_t>(plan.shard_paths.size()));
    for (const std::string &path : plan.shard_paths)
        out.str(path);
    // The shard-trailer convention: CRC-32 of every preceding byte,
    // zero-extended to 8 bytes.
    out.put(uint64_t{io::crc32(0, bytes.data(), bytes.size())});
    return bytes;
}

EvalPlan
decodePlan(std::span<const uint8_t> bytes)
{
    constexpr size_t min_bytes = sizeof(plan_magic) + 4 + 8;
    if (bytes.size() < min_bytes)
        throw PlanError("plan too small to hold a header and "
                        "trailer (" +
                        std::to_string(bytes.size()) + " bytes)");
    if (std::memcmp(bytes.data(), plan_magic, sizeof(plan_magic)) != 0)
        throw PlanError("bad plan magic");

    // The trailer is validated before any field parsing, exactly like
    // ShardReader: corruption surfaces as one CRC error, never as a
    // half-parsed plan.
    const size_t trailer_pos = bytes.size() - 8;
    uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + trailer_pos, sizeof(stored));
    if (stored != io::crc32(0, bytes.data(), trailer_pos))
        throw PlanError("plan CRC mismatch");

    io::ByteReader<PlanError> in(bytes.first(trailer_pos), "plan",
                                 sizeof(plan_magic));
    const auto version = in.take<uint32_t>("version");
    if (version != plan_version)
        throw PlanError("unsupported plan version " +
                        std::to_string(version) + " (this build "
                        "reads version " +
                        std::to_string(plan_version) + ")");

    EvalPlan plan;
    plan.kernel = decodeEnum<PlanKernel>(in.take<uint32_t>("kernel"), 1,
                                         5, "kernel");
    plan.source = decodeEnum<PlanSource>(in.take<uint32_t>("source"), 1,
                                         2, "source");
    plan.policy = decodeEnum<PlanPolicy>(in.take<uint32_t>("policy"), 1,
                                         4, "policy");
    plan.sum =
        decodeEnum<SumPolicy>(in.take<uint32_t>("sum"), 1, 2, "sum");
    plan.dataflow = decodeEnum<Dataflow>(
        in.take<uint32_t>("dataflow"), 0,
        static_cast<uint32_t>(Dataflow::SoftwareCompensated),
        "dataflow");
    const auto flags = in.take<uint32_t>("flags");
    if ((flags & ~flag_known_mask) != 0)
        throw PlanError("plan carries unknown flag bits");
    plan.renormalize = (flags & flag_renormalize) != 0;
    plan.queue_capacity = in.take<uint64_t>("queue_capacity");
    const auto tol = in.take<double>("tol_rel_log2");
    const auto threshold = in.take<double>("threshold_log2");
    if (flags & flag_tol)
        plan.cert.tol_rel_log2 = tol;
    if (flags & flag_threshold)
        plan.cert.threshold_log2 = threshold;
    plan.screen.threshold_log2 = in.take<double>("screen threshold");
    plan.screen.guard_band_log2 = in.take<double>("screen guard band");
    plan.format_id = in.str("format_id");
    // Every string carries at least its 4-byte length.
    const auto ladder_count = in.count<uint32_t>("ladder count", 4);
    plan.ladder_ids.reserve(ladder_count);
    for (uint32_t i = 0; i < ladder_count; ++i)
        plan.ladder_ids.push_back(in.str("ladder tier"));
    const auto path_count = in.count<uint32_t>("shard path count", 4);
    plan.shard_paths.reserve(path_count);
    for (uint32_t i = 0; i < path_count; ++i)
        plan.shard_paths.push_back(in.str("shard path"));
    in.expectEnd("field");
    return plan;
}

void
writePlanFile(const std::string &path, const EvalPlan &plan)
{
    const std::vector<uint8_t> bytes = encodePlan(plan);
    try {
        io::FileReplacement file(path);
        file.write(bytes.data(), bytes.size());
        file.commit();
    } catch (const io::FileError &error) {
        throw PlanError(error.what());
    }
}

EvalPlan
readPlanFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        throw PlanError("cannot open plan file " + path);
    std::vector<uint8_t> bytes;
    uint8_t buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error)
        throw PlanError("failed reading plan file " + path);
    try {
        return decodePlan(bytes);
    } catch (const PlanError &error) {
        throw PlanError(path + ": " + error.what());
    }
}

} // namespace pstat::engine
