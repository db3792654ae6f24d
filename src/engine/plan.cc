#include "engine/plan.hh"

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

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

// ------------------------------------------------ encoding primitives

void
appendU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<uint8_t>(v >> shift));
}

void
appendU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<uint8_t>(v >> shift));
}

void
appendF64(std::vector<uint8_t> &out, double v)
{
    appendU64(out, std::bit_cast<uint64_t>(v));
}

void
appendStr(std::vector<uint8_t> &out, const std::string &s)
{
    appendU32(out, static_cast<uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

/** Bounds-checked little-endian reader over an encoded plan. */
struct Cursor
{
    std::span<const uint8_t> bytes;
    size_t pos = 0;

    void
    need(size_t n, const char *what) const
    {
        if (bytes.size() - pos < n)
            throw PlanError(std::string("truncated plan: ") + what +
                            " overruns the buffer");
    }

    uint32_t
    u32(const char *what)
    {
        need(4, what);
        uint32_t v = 0;
        for (int shift = 0; shift < 32; shift += 8)
            v |= static_cast<uint32_t>(bytes[pos++]) << shift;
        return v;
    }

    uint64_t
    u64(const char *what)
    {
        need(8, what);
        uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 8)
            v |= static_cast<uint64_t>(bytes[pos++]) << shift;
        return v;
    }

    double
    f64(const char *what)
    {
        return std::bit_cast<double>(u64(what));
    }

    /**
     * The count of a string list. Every string carries at least its
     * 4-byte length, so a count the rest of the buffer cannot hold is
     * rejected here, before a reserve() can ask for gigabytes.
     */
    uint32_t
    count(const char *what)
    {
        const uint32_t n = u32(what);
        if (n > (bytes.size() - pos) / 4)
            throw PlanError(std::string("plan ") + what + " " +
                            std::to_string(n) +
                            " overruns the buffer");
        return n;
    }

    std::string
    str(const char *what)
    {
        const uint32_t len = u32(what);
        need(len, what);
        std::string out(reinterpret_cast<const char *>(
                            bytes.data() + pos),
                        len);
        pos += len;
        return out;
    }
};

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
    if (static_cast<uint32_t>(plan.sum) > 2)
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
        for (const std::string &id : plan.ladder_ids)
            if (registry.find(id) == nullptr)
                invalid("unknown ladder tier \"" + id + "\"");
        // Certification criteria, mirrored from escalate.cc's
        // validateCert so a bad plan fails before any tier runs.
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
    plan.sum = PlanSum::Plain;
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
        if (plan.ladder_ids.empty()) {
            out += "default";
        } else {
            for (size_t i = 0; i < plan.ladder_ids.size(); ++i) {
                if (i > 0)
                    out += "->";
                out += plan.ladder_ids[i];
            }
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
    if (plan.sum != PlanSum::Default)
        out += plan.sum == PlanSum::Plain ? ", sum plain"
                                          : ", sum compensated";
    return out;
}

std::string
resultFormatLabel(const EvalPlan &plan)
{
    if (plan.policy != PlanPolicy::Adaptive &&
        plan.policy != PlanPolicy::ScreenedAdaptive)
        return plan.format_id;
    if (plan.ladder_ids.empty())
        return "adaptive:default";
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
    std::vector<uint8_t> out;
    out.reserve(160);
    out.insert(out.end(), plan_magic, plan_magic + sizeof(plan_magic));
    appendU32(out, plan_version);
    appendU32(out, static_cast<uint32_t>(plan.kernel));
    appendU32(out, static_cast<uint32_t>(plan.source));
    appendU32(out, static_cast<uint32_t>(plan.policy));
    appendU32(out, static_cast<uint32_t>(plan.sum));
    appendU32(out, static_cast<uint32_t>(plan.dataflow));
    uint32_t flags = 0;
    if (plan.renormalize)
        flags |= flag_renormalize;
    if (plan.cert.tol_rel_log2)
        flags |= flag_tol;
    if (plan.cert.threshold_log2)
        flags |= flag_threshold;
    appendU32(out, flags);
    appendU64(out, plan.queue_capacity);
    // Absent optionals serialize as 0.0 so equal plans always encode
    // to equal bytes (the flags word carries the presence).
    appendF64(out, plan.cert.tol_rel_log2.value_or(0.0));
    appendF64(out, plan.cert.threshold_log2.value_or(0.0));
    appendF64(out, plan.screen.threshold_log2);
    appendF64(out, plan.screen.guard_band_log2);
    appendStr(out, plan.format_id);
    appendU32(out, static_cast<uint32_t>(plan.ladder_ids.size()));
    for (const std::string &id : plan.ladder_ids)
        appendStr(out, id);
    appendU32(out, static_cast<uint32_t>(plan.shard_paths.size()));
    for (const std::string &path : plan.shard_paths)
        appendStr(out, path);
    // The shard-trailer convention: CRC-32 of every preceding byte,
    // zero-extended to 8 bytes.
    const uint32_t crc = io::crc32(0, out.data(), out.size());
    appendU64(out, crc);
    return out;
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
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<uint64_t>(bytes[trailer_pos + i])
                  << (8 * i);
    const uint32_t computed =
        io::crc32(0, bytes.data(), trailer_pos);
    if (stored != computed)
        throw PlanError("plan CRC mismatch");

    Cursor cursor{bytes.first(trailer_pos), sizeof(plan_magic)};
    const uint32_t version = cursor.u32("version");
    if (version != plan_version)
        throw PlanError("unsupported plan version " +
                        std::to_string(version) + " (this build "
                        "reads version " +
                        std::to_string(plan_version) + ")");

    EvalPlan plan;
    plan.kernel = decodeEnum<PlanKernel>(cursor.u32("kernel"), 1, 5,
                                         "kernel");
    plan.source = decodeEnum<PlanSource>(cursor.u32("source"), 1, 2,
                                         "source");
    plan.policy = decodeEnum<PlanPolicy>(cursor.u32("policy"), 1, 4,
                                         "policy");
    plan.sum = decodeEnum<PlanSum>(cursor.u32("sum"), 0, 2, "sum");
    plan.dataflow = decodeEnum<Dataflow>(
        cursor.u32("dataflow"), 0,
        static_cast<uint32_t>(Dataflow::SoftwareCompensated),
        "dataflow");
    const uint32_t flags = cursor.u32("flags");
    if ((flags & ~flag_known_mask) != 0)
        throw PlanError("plan carries unknown flag bits");
    plan.renormalize = (flags & flag_renormalize) != 0;
    plan.queue_capacity = cursor.u64("queue_capacity");
    const double tol = cursor.f64("tol_rel_log2");
    const double threshold = cursor.f64("threshold_log2");
    if (flags & flag_tol)
        plan.cert.tol_rel_log2 = tol;
    if (flags & flag_threshold)
        plan.cert.threshold_log2 = threshold;
    plan.screen.threshold_log2 = cursor.f64("screen threshold");
    plan.screen.guard_band_log2 = cursor.f64("screen guard band");
    plan.format_id = cursor.str("format_id");
    const uint32_t ladder_count = cursor.count("ladder count");
    plan.ladder_ids.reserve(ladder_count);
    for (uint32_t i = 0; i < ladder_count; ++i)
        plan.ladder_ids.push_back(cursor.str("ladder tier"));
    const uint32_t path_count = cursor.count("shard path count");
    plan.shard_paths.reserve(path_count);
    for (uint32_t i = 0; i < path_count; ++i)
        plan.shard_paths.push_back(cursor.str("shard path"));
    if (cursor.pos != trailer_pos)
        throw PlanError("plan carries " +
                        std::to_string(trailer_pos - cursor.pos) +
                        " trailing bytes after the last field");
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
