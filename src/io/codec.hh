/**
 * @file
 * The byte codec of every file and message pstat writes: shards
 * (io/shard.hh), encoded plans (engine/plan.hh) and PSTSRV1 frame
 * bodies (serve/frame.hh). Each piece is written once:
 *
 *  - ByteWriter appends fixed-width fields, length-prefixed strings
 *    and zero padding to a byte vector.
 *  - ByteReader reads them back bounds-checked. A field, string or
 *    count that overruns the bytes throws the caller's error type
 *    (PlanError, FrameError, ShardError) naming the field, and a
 *    count the remaining bytes cannot hold throws before any reserve.
 *  - Each record kind that both shards and frames carry has one
 *    writer and one checked reader: Columns (u32 N, i32 K, N binary64)
 *    and Results (a 56-byte head, then an int32 decode path padded to
 *    the 8-byte grid). Both containers keep these records on the
 *    8-byte grid, so a record has the same bytes on disk and on the
 *    wire.
 *
 * A field's bytes are its host representation, and every format is
 * little-endian, so the codec builds only where the host is.
 */

#ifndef PSTAT_IO_CODEC_HH
#define PSTAT_IO_CODEC_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "pbd/dataset.hh"

namespace pstat::io
{

static_assert(std::endian::native == std::endian::little,
              "pstat's shard, plan and frame formats are little-endian "
              "and the codec copies host bytes");
// Decode paths and observation symbols are int32 in every format and
// spans of int in memory, so records can be viewed in place.
static_assert(sizeof(int) == 4, "records assume a 32-bit int");

/**
 * @name Result-record flag bits
 * The `flags` word of one Results record. The value-kind bits
 * (negative / zero / nan) encode the BigFloat kind losslessly; the
 * others carry the engine's per-result bookkeeping. Readers reject
 * unknown bits so a future flag can never be silently dropped by an
 * old binary.
 */
///@{
inline constexpr uint32_t result_flag_invalid = 1u << 0;   //!< NaR / NaN result
inline constexpr uint32_t result_flag_underflow = 1u << 1; //!< computed exactly 0
inline constexpr uint32_t result_flag_negative = 1u << 2;  //!< value sign bit
inline constexpr uint32_t result_flag_zero = 1u << 3;      //!< value is exact zero
inline constexpr uint32_t result_flag_nan = 1u << 4;       //!< value is NaN
inline constexpr uint32_t result_flag_skipped = 1u << 5;   //!< screen-skipped slot
inline constexpr uint32_t result_flag_certified = 1u << 6; //!< adaptively certified
/** Every bit a valid record may set; readers reject the rest. */
inline constexpr uint32_t result_flag_mask = 0x7fu;
///@}

/** Fixed bytes of one Results record before its path entries. */
inline constexpr size_t shard_result_record_bytes = 56;

/**
 * One Results record, as written and as read (the path span borrows
 * the writer's argument or the reader's bytes). The value is a sign
 * + base-2 exponent + 256-bit normalized mantissa — the lossless
 * BigFloat decomposition — with all-zero exp/limbs (and the zero or
 * nan flag) for the non-finite kinds. `aux` carries the kernel's side
 * channel (first_underflow_step for decodes; 0 otherwise), and `path`
 * the Viterbi state sequence (empty for the scalar kernels).
 */
struct ShardResultRecord
{
    uint32_t flags = 0;             //!< result_flag_* bits
    int64_t exp = 0;                //!< BigFloat exponent (finite nonzero)
    std::array<uint64_t, 4> limbs{}; //!< mantissa, top bit of limbs[3] set
    int32_t aux = 0;                //!< kernel side channel
    std::span<const int> path;      //!< decode path (may be empty)
};

/**
 * Why a Results record's value encoding is malformed, or nullptr when
 * it is well formed. The one check every writer and reader applies:
 * unknown flag bits, a value flagged both zero and NaN, a zero or NaN
 * with a nonzero exponent or mantissa, and a finite value whose
 * mantissa is not normalized (top bit of limbs[3] clear), which
 * BigFloat::fromLimbs would take on trust.
 */
inline const char *
resultRecordDefect(const ShardResultRecord &record)
{
    if ((record.flags & ~result_flag_mask) != 0)
        return "unknown result flag bits";
    const bool zero = (record.flags & result_flag_zero) != 0;
    const bool nan = (record.flags & result_flag_nan) != 0;
    if (zero && nan)
        return "result flagged both zero and NaN";
    const uint64_t limb_or = record.limbs[0] | record.limbs[1] |
                             record.limbs[2] | record.limbs[3];
    if (zero || nan) {
        if (record.exp != 0 || limb_or != 0)
            return "non-canonical zero/NaN result record";
    } else if ((record.limbs[3] >> 63) == 0) {
        return "denormalized result mantissa";
    }
    return nullptr;
}

/** Appends fields to a byte vector (borrowed; must outlive this). */
class ByteWriter
{
  public:
    /** Appends to the end of `out`. */
    explicit ByteWriter(std::vector<uint8_t> &out) : out_(out) {}

    /** Append one fixed-width field as its host bytes. */
    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&value, sizeof(T));
    }

    /** Append `len` raw bytes. */
    void
    bytes(const void *data, size_t len)
    {
        if (len == 0) // data() of an empty span or string may be null
            return;
        const size_t at = out_.size();
        out_.resize(at + len);
        std::memcpy(out_.data() + at, data, len);
    }

    /** Append a string as a u32 length and its bytes (no padding). */
    void
    str(std::string_view text)
    {
        put(static_cast<uint32_t>(text.size()));
        bytes(text.data(), text.size());
    }

    /** Zero-pad the vector to the next multiple of 8 bytes. */
    void pad8() { out_.resize((out_.size() + 7) & ~size_t{7}, 0); }

  private:
    std::vector<uint8_t> &out_;
};

/**
 * A bounds-checked reader over borrowed bytes. Every failure throws
 * `Error` (constructible from std::string) with the message prefixed
 * by the borrowed `context` — "plan", "request body", a shard path —
 * so each layer keeps its own typed error.
 */
template <typename Error>
class ByteReader
{
  public:
    /** Reads `bytes` starting at offset `pos`. */
    ByteReader(std::span<const uint8_t> bytes, std::string_view context,
               size_t pos = 0)
        : bytes_(bytes), context_(context), pos_(pos)
    {
    }

    /** Offset of the next unread byte. */
    size_t pos() const { return pos_; }

    /** Read one fixed-width field; `what` names it in a diagnostic. */
    template <typename T>
    T
    take(const char *what)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        std::memcpy(&value, bytes(sizeof(T), what).data(), sizeof(T));
        return value;
    }

    /** Take the next `len` bytes in place. */
    std::span<const uint8_t>
    bytes(size_t len, const char *what)
    {
        if (remaining() < len)
            fail(std::string(what) + " overruns the end (" +
                 std::to_string(len) + " bytes needed, " +
                 std::to_string(remaining()) + " left)");
        const auto out = bytes_.subspan(pos_, len);
        pos_ += len;
        return out;
    }

    /** Skip `len` bytes. */
    void skip(size_t len, const char *what) { (void)bytes(len, what); }

    /** Skip to the next multiple of 8 of pos(). */
    void pad8(const char *what) { skip((8 - pos_ % 8) % 8, what); }

    /** Read a u32 length-prefixed string. */
    std::string
    str(const char *what)
    {
        const auto len = take<uint32_t>(what);
        const auto text = bytes(len, what);
        return {reinterpret_cast<const char *>(text.data()), text.size()};
    }

    /**
     * Read a count of items of at least `min_item_bytes` each, and
     * reject one the remaining bytes cannot hold, so that a corrupt
     * count fails here instead of reserving gigabytes.
     */
    template <typename T>
    T
    count(const char *what, size_t min_item_bytes)
    {
        const T n = take<T>(what);
        checkCount(n, what, min_item_bytes);
        return n;
    }

    /** The count() check, for a count read outside these bytes. */
    void
    checkCount(uint64_t n, const char *what, size_t min_item_bytes) const
    {
        if (n > remaining() / min_item_bytes)
            fail(std::string(what) + " " + std::to_string(n) +
                 " overruns the " + std::to_string(remaining()) +
                 " bytes left");
    }

    /** Reject any unread bytes; `what` names the last item read. */
    void
    expectEnd(const char *what) const
    {
        if (remaining() != 0)
            fail(std::to_string(remaining()) +
                 " trailing bytes after the last " + what);
    }

    /** Throw `Error` with the context prefix. */
    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw Error(std::string(context_) + ": " + message);
    }

  private:
    size_t remaining() const { return bytes_.size() - pos_; }

    std::span<const uint8_t> bytes_;
    std::string_view context_;
    size_t pos_ = 0;
};

/** Append one Columns record: u32 N, i32 K, N binary64. */
inline void
appendColumnRecord(ByteWriter &out, pbd::ColumnView column)
{
    out.put(static_cast<uint32_t>(column.success_probs.size()));
    out.put(static_cast<int32_t>(column.k));
    out.bytes(column.success_probs.data(),
              column.success_probs.size_bytes());
}

/**
 * Read one Columns record. The span points into the reader's bytes:
 * view the doubles in place only where those bytes are 8-aligned (a
 * shard mapping); elsewhere copy them out bytewise.
 */
template <typename Error>
pbd::ColumnView
readColumnRecord(ByteReader<Error> &in)
{
    const auto n = in.template take<uint32_t>("column read count");
    const auto k = in.template take<int32_t>("column k");
    const auto probs =
        in.bytes(size_t{n} * sizeof(double), "column probabilities");
    return {{reinterpret_cast<const double *>(probs.data()), n},
            static_cast<int>(k)};
}

/**
 * Append one Results record: the 56-byte head (path length, flags,
 * exponent, limbs, aux, reserved), the path, and 4 zero bytes after
 * an odd-length path so the next record stays on the 8-byte grid.
 * Throws std::logic_error on a malformed record (resultRecordDefect),
 * so whatever a writer accepts its reader accepts too.
 */
inline void
appendResultRecord(ByteWriter &out, const ShardResultRecord &record)
{
    if (const char *defect = resultRecordDefect(record))
        throw std::logic_error(std::string("result record: ") + defect);
    out.put(static_cast<uint32_t>(record.path.size()));
    out.put(record.flags);
    out.put(record.exp);
    out.put(record.limbs);
    out.put(record.aux);
    out.put(uint32_t{0}); // reserved
    out.bytes(record.path.data(), record.path.size_bytes());
    if (record.path.size() % 2 != 0)
        out.put(uint32_t{0});
}

/**
 * Read and validate one Results record; a malformed value encoding
 * fails like an overrun. The path span points into the reader's
 * bytes, under readColumnRecord's alignment rule (4 bytes here).
 */
template <typename Error>
ShardResultRecord
readResultRecord(ByteReader<Error> &in)
{
    ShardResultRecord record;
    const auto count = in.template take<uint32_t>("result path length");
    record.flags = in.template take<uint32_t>("result flags");
    record.exp = in.template take<int64_t>("result exponent");
    record.limbs =
        in.template take<std::array<uint64_t, 4>>("result mantissa");
    record.aux = in.template take<int32_t>("result aux");
    in.skip(4, "result reserved");
    const auto path =
        in.bytes(size_t{count} * sizeof(int32_t), "result path");
    record.path = {reinterpret_cast<const int *>(path.data()), count};
    if (count % 2 != 0)
        in.skip(4, "result path padding");
    if (const char *defect = resultRecordDefect(record))
        in.fail(defect);
    return record;
}

} // namespace pstat::io

#endif // PSTAT_IO_CODEC_HH
