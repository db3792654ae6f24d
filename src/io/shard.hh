/**
 * @file
 * Versioned binary shard files for the evaluation datasets.
 *
 * The paper's workloads were synthesized in-process and held
 * entirely in memory, which caps every bench and app at what one
 * allocation can hold. A shard file is the unit of on-disk dataset
 * storage that lifts that cap: a fixed little-endian header (magic,
 * format version, payload tag, item count, payload size), a packed
 * payload of records, and a CRC-32 trailer over the payload. Two
 * payload kinds cover the repo's workload families:
 *
 *  - Columns (the lofreq/PBD family): per record a uint32 read
 *    count N, an int32 variant count K, then N binary64 per-read
 *    probabilities. Records stay 8-byte aligned, so a memory-mapped
 *    shard hands out pbd::ColumnView spans directly into the file —
 *    zero copies, and the doubles round-trip bit-exactly.
 *  - Sequences (the vicar/HMM family): per record a uint32 length,
 *    4 bytes of reserved padding, then `length` int32 observation
 *    symbols, padded to the next 8-byte boundary.
 *
 * A third payload kind, Results, closes the loop: evaluation
 * *output* (p-values, likelihoods, decodes) persisted in the same
 * header + CRC envelope, so distributed workers can write idempotent
 * per-shard result files that any reader validates exactly like an
 * input shard. The payload opens with a small meta block (a kernel
 * tag and the producing format id), then one fixed 56-byte record
 * per result — flags, a sign/exponent/mantissa encoding of the
 * exact BigFloat value, an auxiliary int — followed by an optional
 * int32 decode path padded to the 8-byte grid.
 *
 * This layer owns the envelope (header, meta block, trailer) and the
 * Sequences record. The Columns and Results records are written and
 * checked by io/codec.hh, the same code that carries them in a
 * PSTSRV1 frame body (serve/frame.hh), so a record has one encoding
 * and one check on disk and on the wire. The engine-level
 * encode/decode of result values lives in engine/result_sink.hh.
 *
 * ShardWriter streams records to disk (O(record) memory, CRC
 * accumulated incrementally); ShardReader memory-maps a file,
 * validates header fields against the file size and the payload
 * against the CRC trailer, and then serves zero-copy views. All
 * corruption — truncation, bad magic, unknown version or payload
 * tag, CRC mismatch, a record overrunning the payload, a malformed
 * result value — surfaces as ShardError at open time, never as a
 * bad value later.
 */

#ifndef PSTAT_IO_SHARD_HH
#define PSTAT_IO_SHARD_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simd.hh"
#include "io/codec.hh"
#include "io/file_replacement.hh"
#include "pbd/dataset.hh"

/**
 * @namespace pstat::io
 * The dataset I/O layer: the versioned binary shard format
 * (ShardWriter / ShardReader, mmap-backed) and the bounded
 * producer/consumer shard pipeline (ShardStream) the engine's
 * streaming entry points consume.
 */
namespace pstat::io
{

/** Any shard-file failure: I/O errors and every corruption class. */
class ShardError : public std::runtime_error
{
  public:
    /** Inherits the message constructor. */
    using std::runtime_error::runtime_error;
};

/** What one shard's records hold. */
enum class ShardPayload : uint32_t
{
    Columns = 1,   //!< PBD alignment columns (N, K, probabilities)
    Sequences = 2, //!< HMM observation sequences (int32 symbols)
    Results = 3,   //!< evaluation results (values, flags, decodes)
};

/** The on-disk magic, first 8 bytes of every shard file. */
inline constexpr char shard_magic[8] = {'P', 'S', 'T', 'S',
                                        'H', 'R', 'D', '1'};
/** Current format version; readers reject anything else. */
inline constexpr uint32_t shard_version = 1;

/**
 * The fixed file header (little-endian, 32 bytes). payload_bytes
 * counts only the record bytes between the header and the CRC
 * trailer, so `file size == 32 + payload_bytes + 8` always holds.
 */
struct ShardHeader
{
    char magic[8];          //!< shard_magic
    uint32_t version;       //!< shard_version
    uint32_t payload;       //!< ShardPayload tag
    uint64_t item_count;    //!< records in the payload
    uint64_t payload_bytes; //!< bytes between header and trailer
};
static_assert(sizeof(ShardHeader) == 32, "header layout is on-disk");

/** Trailer size: the CRC-32 value zero-extended to keep 8-alignment. */
inline constexpr size_t shard_trailer_bytes = 8;

/**
 * CRC-32 (IEEE 802.3, the zlib polynomial) over a byte range,
 * resumable: feed the previous return value as `crc` to extend a
 * running checksum (start from 0). Runs on the process-wide
 * simd::activeIsa(); see the Isa overload for the kernels.
 */
uint32_t crc32(uint32_t crc, const void *data, size_t len);

/**
 * crc32() on a chosen ISA. Two kernels compute the same value: on
 * Isa::Avx2 with a CPU that reports PCLMULQDQ, a carry-less-multiply
 * folding kernel takes the largest multiple-of-16 prefix of any
 * input of 64 bytes or more; everything else (Scalar, NEON, short
 * inputs, the folded prefix's tail) runs slicing-by-8. An ISA this
 * build or CPU cannot run falls back to slicing-by-8, so the result
 * never depends on the ISA.
 */
uint32_t crc32(uint32_t crc, const void *data, size_t len,
               simd::Isa isa);

/**
 * Streams records into a shard file: a placeholder header first,
 * records appended with an incrementally maintained CRC, and
 * close() patches the real header and writes the trailer. Memory
 * stays O(record) regardless of shard size. Writer methods throw
 * ShardError on I/O failure and std::logic_error on payload-kind
 * misuse (a sequence appended to a Columns shard).
 *
 * The bytes go to a temp sibling of `path` (io/file_replacement.hh)
 * and close() swaps the finished shard in whole: a reader that has
 * the old file mapped keeps its bytes, and a writer destroyed or
 * failed before close() leaves the old file (or no file) untouched.
 */
class ShardWriter
{
  public:
    /**
     * Starts a replacement of `path` for a shard of the given
     * payload; the file at `path` is not touched until close().
     * Throws ShardError when `path` exists but is not a regular
     * file, or when its directory cannot be written.
     */
    ShardWriter(std::string path, ShardPayload payload);
    /**
     * Starts a replacement of `path` for a Results shard, writing
     * the meta block (kernel tag + producing format id, at most
     * shard_result_id_max bytes) immediately. The kernel tag is
     * opaque to this layer (the engine writes its PlanKernel value).
     */
    ShardWriter(std::string path, uint32_t result_kernel,
                const std::string &format_id);

    ShardWriter(const ShardWriter &) = delete;            //!< not copyable
    ShardWriter &operator=(const ShardWriter &) = delete; //!< not copyable

    /** Append one column record (Columns shards only). */
    void add(pbd::ColumnView column);
    /** Append one column record (Columns shards only). */
    void add(const pbd::Column &column) { add(column.view()); }
    /** Append one observation sequence (Sequences shards only). */
    void addSequence(std::span<const int> obs);
    /**
     * Append one result record (Results shards only). Throws
     * std::logic_error on a malformed record (io::resultRecordDefect),
     * so a file this writer closes always re-opens cleanly.
     */
    void addResult(const ShardResultRecord &record);

    /** Records appended so far. */
    size_t items() const { return items_; }
    /** Payload bytes appended so far. */
    size_t payloadBytes() const { return payload_bytes_; }

    /**
     * Writes the trailer, patches the header, and swaps the finished
     * shard in place of `path`.
     */
    void close();

  private:
    void write(const void *data, size_t len);
    void appendPayload();

    std::string path_;
    ShardPayload payload_;
    FileReplacement file_;
    std::vector<uint8_t> record_; //!< the bytes being appended
    size_t items_ = 0;
    size_t payload_bytes_ = 0;
    uint32_t crc_ = 0;
};

/**
 * A memory-mapped shard file serving zero-copy record views. The
 * constructor maps the file and validates everything up front:
 * header fields against the file size, the payload against the CRC
 * trailer, and every record boundary (building the record index).
 * Views borrow the mapping, so they are valid only while the reader
 * lives; the reader is movable (the mapping transfers) so it can be
 * produced by a loader thread and consumed elsewhere.
 */
class ShardReader
{
  public:
    /** Maps and fully validates `path`; throws ShardError. */
    explicit ShardReader(const std::string &path);
    /** Unmaps the file (views into it die with the reader). */
    ~ShardReader();

    /** Transfers the mapping; `other` is left empty and unmapped. */
    ShardReader(ShardReader &&other) noexcept;
    /** Transfers the mapping; `other` is left empty and unmapped. */
    ShardReader &operator=(ShardReader &&other) noexcept;
    ShardReader(const ShardReader &) = delete;            //!< not copyable
    ShardReader &operator=(const ShardReader &) = delete; //!< not copyable

    /** The path the shard was opened from. */
    const std::string &path() const { return path_; }
    /** The payload kind of every record in this shard. */
    ShardPayload payload() const { return payload_; }
    /** The file's format version (always shard_version today). */
    uint32_t version() const { return version_; }
    /** Number of records. */
    size_t size() const { return offsets_.size(); }
    /** Payload bytes (excludes header and trailer). */
    size_t payloadBytes() const { return payload_bytes_; }
    /** Total mapped bytes (the whole file). */
    size_t fileBytes() const { return mapped_bytes_; }

    /**
     * Zero-copy view of column `i` (Columns shards; asserts the
     * index). The span points into the mapping. Throws ShardError
     * naming the payload on a shard of another kind, as every
     * record accessor below does: the kind comes from the file.
     */
    pbd::ColumnView column(size_t i) const;

    /**
     * Zero-copy view of sequence `i` (Sequences shards; asserts the
     * index). The span points into the mapping.
     */
    std::span<const int> sequence(size_t i) const;

    /**
     * Result record `i` (Results shards; asserts the index). The
     * path span points into the mapping.
     */
    ShardResultRecord result(size_t i) const;

    /** The kernel tag of a Results shard. */
    uint32_t resultKernel() const;

    /**
     * The producing format id of a Results shard. May be a composite
     * label (adaptive runs mix tiers) rather than a single registry
     * id.
     */
    const std::string &resultFormatId() const;

  private:
    void validate();
    void unmap() noexcept;
    std::span<const uint8_t> payloadSpan() const;

    std::string path_;
    ShardPayload payload_ = ShardPayload::Columns;
    uint32_t version_ = 0;
    size_t payload_bytes_ = 0;
    size_t mapped_bytes_ = 0;
    const unsigned char *base_ = nullptr; //!< mapping base (or null)
    std::vector<size_t> offsets_; //!< record offsets into the payload
    uint32_t result_kernel_ = 0;  //!< Results meta: kernel tag
    std::string result_format_id_; //!< Results meta: format id
};

/** Longest format id the Results meta block accepts. */
inline constexpr size_t shard_result_id_max = 256;

/** "columns" / "sequences" / "results": stable name of a payload. */
const char *shardPayloadName(ShardPayload payload);

/**
 * The payload tag of `path`, read from the header alone (no mapping,
 * no CRC). Empty optional when the file is unreadable, too short, or
 * not a shard at all — callers that need those diagnosed should open
 * a full ShardReader and let it report. The tag is returned only
 * when it is a known ShardPayload value.
 */
std::optional<ShardPayload> peekShardPayload(const std::string &path);

/**
 * Materialize every column of a Columns shard, in order. Throws
 * ShardError, naming the payload, on a shard of any other kind.
 */
std::vector<pbd::Column> readColumnShard(const std::string &path);

} // namespace pstat::io

#endif // PSTAT_IO_SHARD_HH
