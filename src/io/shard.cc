#include "io/shard.hh"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/crc32_pclmul.hh"

namespace pstat::io
{

// Sequence payloads store observation symbols as on-disk int32; the
// in-memory HMM API traffics in spans of int, so serving zero-copy
// views requires the two to be the same type.
static_assert(sizeof(int) == 4, "sequence records assume 32-bit int");

namespace
{

[[noreturn]] void
fail(const std::string &path, const std::string &what)
{
    throw ShardError(path + ": " + what);
}

/** Read a little-endian scalar at an arbitrary (unaligned) offset. */
template <typename T>
T
loadAt(const unsigned char *base, size_t offset)
{
    T value;
    std::memcpy(&value, base + offset, sizeof(T));
    return value;
}

/**
 * The slicing-by-8 tables of the reflected IEEE 802.3 (zlib)
 * polynomial, built at compile time. crc_tables[0] is the classic
 * bytewise table; crc_tables[k][b] advances the register past byte b
 * followed by k zero bytes, so one step folds eight bytes through
 * eight independent lookups.
 */
constexpr auto crc_tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}();

/** Slicing-by-8 over the raw (inverted) CRC register. */
uint32_t
crc32Slice8(uint32_t state, const unsigned char *p, size_t len)
{
    const auto &t = crc_tables;
    for (; len >= 8; p += 8, len -= 8) {
        const uint32_t lo = state ^ loadAt<uint32_t>(p, 0);
        const uint32_t hi = loadAt<uint32_t>(p, 4);
        state = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
                t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
                t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
                t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        state = t[0][(state ^ *p) & 0xffu] ^ (state >> 8);
    return state;
}

/** A shard writer's output file, its failures as ShardError. */
FileReplacement
replacementFor(const std::string &path)
{
    try {
        return FileReplacement(path);
    } catch (const FileError &error) {
        throw ShardError(error.what());
    }
}

/** True when crc32() may run the PCLMULQDQ kernel for `isa`. */
bool
pclmulUsable(simd::Isa isa)
{
#if defined(PSTAT_SIMD_HAS_PCLMUL) && defined(__GNUC__)
    static const bool usable =
        simd::isaSupported(simd::Isa::Avx2) &&
        __builtin_cpu_supports("pclmul") != 0;
    return isa == simd::Isa::Avx2 && usable;
#else
    (void)isa;
    return false;
#endif
}

} // namespace

uint32_t
crc32(uint32_t crc, const void *data, size_t len, simd::Isa isa)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    uint32_t state = ~crc;
    if (len >= 64 && pclmulUsable(isa)) {
        const size_t folded = len & ~size_t{15};
        state = detail::crc32FoldPclmul(state, bytes, folded);
        bytes += folded;
        len -= folded;
    }
    return ~crc32Slice8(state, bytes, len);
}

uint32_t
crc32(uint32_t crc, const void *data, size_t len)
{
    return crc32(crc, data, len, simd::activeIsa());
}

// ------------------------------------------------------------ writer

ShardWriter::ShardWriter(std::string path, ShardPayload payload)
    : path_(std::move(path)), payload_(payload),
      file_(replacementFor(path_))
{
    // A zeroed placeholder (no magic) holds the header's place until
    // close() knows the counts and patches it.
    const ShardHeader placeholder{};
    write(&placeholder, sizeof(placeholder));
    payload_bytes_ = 0; // the header is not payload
}

void
ShardWriter::write(const void *data, size_t len)
{
    try {
        file_.write(data, len);
    } catch (const FileError &error) {
        throw ShardError(error.what());
    }
}

void
ShardWriter::add(pbd::ColumnView column)
{
    if (payload_ != ShardPayload::Columns)
        throw std::logic_error(path_ +
                               ": column record on a non-Columns shard");
    const auto n = static_cast<uint32_t>(column.success_probs.size());
    const auto k = static_cast<int32_t>(column.k);
    const size_t prob_bytes = column.success_probs.size_bytes();

    write(&n, sizeof(n));
    write(&k, sizeof(k));
    if (prob_bytes > 0)
        write(column.success_probs.data(), prob_bytes);

    crc_ = crc32(crc_, &n, sizeof(n));
    crc_ = crc32(crc_, &k, sizeof(k));
    crc_ = crc32(crc_, column.success_probs.data(), prob_bytes);
    payload_bytes_ += sizeof(n) + sizeof(k) + prob_bytes;
    ++items_;
}

ShardWriter::ShardWriter(std::string path, uint32_t result_kernel,
                         const std::string &format_id)
    : ShardWriter(std::move(path), ShardPayload::Results)
{
    // The meta block precedes every record: kernel tag, id length,
    // id bytes, zero-padded to the 8-byte record grid. It is payload
    // (CRC-covered) but not a record (not in item_count).
    if (format_id.size() > shard_result_id_max)
        throw std::logic_error(path_ + ": result format id too long");
    const auto id_len = static_cast<uint32_t>(format_id.size());
    write(&result_kernel, sizeof(result_kernel));
    write(&id_len, sizeof(id_len));
    crc_ = crc32(crc_, &result_kernel, sizeof(result_kernel));
    crc_ = crc32(crc_, &id_len, sizeof(id_len));
    payload_bytes_ += sizeof(result_kernel) + sizeof(id_len);
    if (id_len > 0) {
        write(format_id.data(), id_len);
        crc_ = crc32(crc_, format_id.data(), id_len);
        payload_bytes_ += id_len;
    }
    const size_t pad_bytes = (8 - id_len % 8) % 8;
    if (pad_bytes > 0) {
        const uint64_t pad = 0;
        write(&pad, pad_bytes);
        crc_ = crc32(crc_, &pad, pad_bytes);
        payload_bytes_ += pad_bytes;
    }
}

void
ShardWriter::addSequence(std::span<const int> obs)
{
    if (payload_ != ShardPayload::Sequences)
        throw std::logic_error(
            path_ + ": sequence record on a non-Sequences shard");
    const auto len = static_cast<uint32_t>(obs.size());
    const uint32_t reserved = 0;
    const size_t obs_bytes = obs.size_bytes();
    // Pad odd-length symbol runs so the next record stays 8-aligned.
    const uint32_t pad = 0;
    const size_t pad_bytes = (obs.size() % 2 != 0) ? 4 : 0;

    write(&len, sizeof(len));
    write(&reserved, sizeof(reserved));
    if (obs_bytes > 0)
        write(obs.data(), obs_bytes);
    if (pad_bytes > 0)
        write(&pad, pad_bytes);

    crc_ = crc32(crc_, &len, sizeof(len));
    crc_ = crc32(crc_, &reserved, sizeof(reserved));
    crc_ = crc32(crc_, obs.data(), obs_bytes);
    crc_ = crc32(crc_, &pad, pad_bytes);
    payload_bytes_ += sizeof(len) + sizeof(reserved) + obs_bytes +
                      pad_bytes;
    ++items_;
}

void
ShardWriter::addResult(const ShardResultRecord &record)
{
    if (payload_ != ShardPayload::Results)
        throw std::logic_error(path_ +
                               ": result record on a non-Results shard");
    // Mirror the reader's open-time validation: a record this writer
    // accepts must re-open cleanly, so malformed encodings are caller
    // bugs (logic_error), never bad bytes on disk.
    if ((record.flags & ~result_flag_mask) != 0)
        throw std::logic_error(path_ + ": unknown result flag bits");
    const bool zero = (record.flags & result_flag_zero) != 0;
    const bool nan = (record.flags & result_flag_nan) != 0;
    if (zero && nan)
        throw std::logic_error(path_ +
                               ": result flagged both zero and NaN");
    const bool limbs_zero = record.limbs[0] == 0 &&
                            record.limbs[1] == 0 &&
                            record.limbs[2] == 0 && record.limbs[3] == 0;
    if (zero || nan) {
        if (record.exp != 0 || !limbs_zero)
            throw std::logic_error(
                path_ + ": non-canonical zero/NaN result record");
    } else if ((record.limbs[3] >> 63) == 0) {
        throw std::logic_error(path_ +
                               ": denormalized result mantissa");
    }

    const auto count = static_cast<uint32_t>(record.path.size());
    const uint32_t reserved = 0;
    unsigned char buf[shard_result_record_bytes];
    std::memcpy(buf + 0, &count, sizeof(count));
    std::memcpy(buf + 4, &record.flags, sizeof(record.flags));
    std::memcpy(buf + 8, &record.exp, sizeof(record.exp));
    std::memcpy(buf + 16, record.limbs.data(), 32);
    std::memcpy(buf + 48, &record.aux, sizeof(record.aux));
    std::memcpy(buf + 52, &reserved, sizeof(reserved));
    write(buf, sizeof(buf));
    crc_ = crc32(crc_, buf, sizeof(buf));
    payload_bytes_ += sizeof(buf);

    const size_t path_bytes = record.path.size_bytes();
    if (path_bytes > 0) {
        write(record.path.data(), path_bytes);
        crc_ = crc32(crc_, record.path.data(), path_bytes);
        payload_bytes_ += path_bytes;
    }
    // Pad odd-length paths so the next record stays 8-aligned.
    const uint32_t pad = 0;
    const size_t pad_bytes = (record.path.size() % 2 != 0) ? 4 : 0;
    if (pad_bytes > 0) {
        write(&pad, pad_bytes);
        crc_ = crc32(crc_, &pad, pad_bytes);
        payload_bytes_ += pad_bytes;
    }
    ++items_;
}

void
ShardWriter::close()
{
    const uint64_t trailer = crc_; // zero-extended to 8 bytes
    write(&trailer, sizeof(trailer));

    ShardHeader header{};
    std::memcpy(header.magic, shard_magic, sizeof(header.magic));
    header.version = shard_version;
    header.payload = static_cast<uint32_t>(payload_);
    header.item_count = items_;
    header.payload_bytes = payload_bytes_;
    try {
        file_.writeAt(0, &header, sizeof(header));
        file_.commit();
    } catch (const FileError &error) {
        throw ShardError(error.what());
    }
}

// ------------------------------------------------------------ reader

ShardReader::ShardReader(const std::string &path) : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail(path, std::string("cannot open: ") +
                       std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fail(path, std::string("cannot stat: ") + std::strerror(err));
    }
    const auto file_bytes = static_cast<size_t>(st.st_size);
    if (file_bytes < sizeof(ShardHeader) + shard_trailer_bytes) {
        ::close(fd);
        fail(path, "truncated shard (smaller than header + trailer)");
    }
    void *map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE,
                       fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (map == MAP_FAILED)
        fail(path, std::string("mmap failed: ") +
                       std::strerror(errno));
    base_ = static_cast<const unsigned char *>(map);
    mapped_bytes_ = file_bytes;

    ShardHeader header;
    std::memcpy(&header, base_, sizeof(header));
    if (std::memcmp(header.magic, shard_magic,
                    sizeof(shard_magic)) != 0) {
        unmap();
        fail(path, "bad magic (not a shard file)");
    }
    if (header.version != shard_version) {
        unmap();
        fail(path, "unsupported shard version " +
                       std::to_string(header.version));
    }
    if (header.payload !=
            static_cast<uint32_t>(ShardPayload::Columns) &&
        header.payload !=
            static_cast<uint32_t>(ShardPayload::Sequences) &&
        header.payload !=
            static_cast<uint32_t>(ShardPayload::Results)) {
        unmap();
        fail(path, "unknown payload tag " +
                       std::to_string(header.payload));
    }
    version_ = header.version;
    payload_ = static_cast<ShardPayload>(header.payload);
    if (header.payload_bytes !=
        file_bytes - sizeof(ShardHeader) - shard_trailer_bytes) {
        unmap();
        fail(path, "truncated shard (payload size does not match "
                   "file size)");
    }
    payload_bytes_ = header.payload_bytes;

    const unsigned char *payload = base_ + sizeof(ShardHeader);
    // All eight trailer bytes: the CRC zero-extended, exactly as
    // close() wrote it, so damage to the upper half fails here too.
    const auto stored_crc = loadAt<uint64_t>(
        base_, sizeof(ShardHeader) + payload_bytes_);
    const uint32_t computed_crc = crc32(0, payload, payload_bytes_);
    if (stored_crc != computed_crc) {
        unmap();
        fail(path, "payload CRC mismatch (corrupted shard)");
    }

    // Walk every record boundary once so column()/sequence() can
    // never step outside the payload. The header is outside the CRC,
    // so item_count is untrusted until the walk confirms it: records
    // are at least 8 bytes, which bounds any honest count — reject a
    // larger one here instead of letting reserve() throw bad_alloc.
    if (header.item_count > payload_bytes_ / 8) {
        unmap();
        fail(path, "item count exceeds what the payload can hold");
    }
    offsets_.reserve(header.item_count);
    size_t offset = 0;
    if (payload_ == ShardPayload::Results) {
        // The meta block (kernel tag, id length, id bytes, padded to
        // the record grid) precedes the records and is not counted
        // in item_count.
        if (payload_bytes_ < 8) {
            unmap();
            fail(path, "result meta overruns payload");
        }
        result_kernel_ = loadAt<uint32_t>(payload, 0);
        const auto id_len = loadAt<uint32_t>(payload, 4);
        if (id_len > shard_result_id_max) {
            unmap();
            fail(path, "result format id too long");
        }
        const size_t meta_bytes =
            (8 + size_t{id_len} + 7) & ~size_t{7};
        if (meta_bytes > payload_bytes_) {
            unmap();
            fail(path, "result meta overruns payload");
        }
        result_format_id_.assign(
            reinterpret_cast<const char *>(payload) + 8, id_len);
        offset = meta_bytes;
    }
    for (uint64_t i = 0; i < header.item_count; ++i) {
        if (offset + 8 > payload_bytes_) {
            unmap();
            fail(path, "record header overruns payload");
        }
        const auto count = loadAt<uint32_t>(payload, offset);
        size_t record_bytes = 0;
        if (payload_ == ShardPayload::Columns) {
            record_bytes = 8 + size_t{count} * sizeof(double);
        } else if (payload_ == ShardPayload::Sequences) {
            record_bytes = 8 + size_t{count} * sizeof(int32_t);
            record_bytes = (record_bytes + 7) & ~size_t{7};
        } else {
            record_bytes = shard_result_record_bytes +
                           size_t{count} * sizeof(int32_t);
            record_bytes = (record_bytes + 7) & ~size_t{7};
        }
        if (offset + record_bytes > payload_bytes_) {
            unmap();
            fail(path, "record overruns payload");
        }
        if (payload_ == ShardPayload::Results) {
            // Validate the value encoding here, at open time, so
            // result() can hand the limbs straight to
            // BigFloat::fromLimbs (which requires a normalized
            // mantissa) without a per-access check.
            const auto flags = loadAt<uint32_t>(payload, offset + 4);
            if ((flags & ~result_flag_mask) != 0) {
                unmap();
                fail(path, "unknown result flag bits");
            }
            const bool zero = (flags & result_flag_zero) != 0;
            const bool nan = (flags & result_flag_nan) != 0;
            if (zero && nan) {
                unmap();
                fail(path, "result flagged both zero and NaN");
            }
            const auto exp = loadAt<int64_t>(payload, offset + 8);
            uint64_t limb_or = 0;
            for (size_t l = 0; l < 4; ++l)
                limb_or |=
                    loadAt<uint64_t>(payload, offset + 16 + 8 * l);
            if (zero || nan) {
                if (exp != 0 || limb_or != 0) {
                    unmap();
                    fail(path,
                         "non-canonical zero/NaN result record");
                }
            } else if ((loadAt<uint64_t>(payload, offset + 40) >>
                        63) == 0) {
                unmap();
                fail(path, "denormalized result mantissa");
            }
        }
        offsets_.push_back(offset);
        offset += record_bytes;
    }
    if (offset != payload_bytes_) {
        unmap();
        fail(path, "trailing bytes after the last record");
    }
}

ShardReader::~ShardReader()
{
    unmap();
}

ShardReader::ShardReader(ShardReader &&other) noexcept
    : path_(std::move(other.path_)), payload_(other.payload_),
      version_(other.version_), payload_bytes_(other.payload_bytes_),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)),
      base_(std::exchange(other.base_, nullptr)),
      offsets_(std::move(other.offsets_)),
      result_kernel_(other.result_kernel_),
      result_format_id_(std::move(other.result_format_id_))
{
    other.offsets_.clear();
}

ShardReader &
ShardReader::operator=(ShardReader &&other) noexcept
{
    if (this != &other) {
        unmap();
        path_ = std::move(other.path_);
        payload_ = other.payload_;
        version_ = other.version_;
        payload_bytes_ = other.payload_bytes_;
        mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
        base_ = std::exchange(other.base_, nullptr);
        offsets_ = std::move(other.offsets_);
        other.offsets_.clear();
        result_kernel_ = other.result_kernel_;
        result_format_id_ = std::move(other.result_format_id_);
    }
    return *this;
}

void
ShardReader::unmap() noexcept
{
    if (base_ != nullptr) {
        ::munmap(const_cast<unsigned char *>(base_), mapped_bytes_);
        base_ = nullptr;
        mapped_bytes_ = 0;
    }
}

pbd::ColumnView
ShardReader::column(size_t i) const
{
    assert(payload_ == ShardPayload::Columns &&
           "column() on a non-Columns shard");
    assert(i < offsets_.size() && "column index out of range");
    const unsigned char *payload = base_ + sizeof(ShardHeader);
    const size_t offset = offsets_[i];
    const auto n = loadAt<uint32_t>(payload, offset);
    const auto k = loadAt<int32_t>(payload, offset + 4);
    // Records are 8-aligned within the page-aligned mapping, so the
    // probability block really is a double array in place.
    const auto *probs = reinterpret_cast<const double *>(
        payload + offset + 8);
    return {std::span<const double>(probs, n), static_cast<int>(k)};
}

std::span<const int>
ShardReader::sequence(size_t i) const
{
    assert(payload_ == ShardPayload::Sequences &&
           "sequence() on a non-Sequences shard");
    assert(i < offsets_.size() && "sequence index out of range");
    const unsigned char *payload = base_ + sizeof(ShardHeader);
    const size_t offset = offsets_[i];
    const auto len = loadAt<uint32_t>(payload, offset);
    const auto *obs = reinterpret_cast<const int *>(
        payload + offset + 8);
    return {obs, len};
}

ShardResultRecord
ShardReader::result(size_t i) const
{
    assert(payload_ == ShardPayload::Results &&
           "result() on a non-Results shard");
    assert(i < offsets_.size() && "result index out of range");
    const unsigned char *payload = base_ + sizeof(ShardHeader);
    const size_t offset = offsets_[i];
    ShardResultRecord record;
    const auto count = loadAt<uint32_t>(payload, offset);
    record.flags = loadAt<uint32_t>(payload, offset + 4);
    record.exp = loadAt<int64_t>(payload, offset + 8);
    for (size_t l = 0; l < record.limbs.size(); ++l)
        record.limbs[l] =
            loadAt<uint64_t>(payload, offset + 16 + 8 * l);
    record.aux = loadAt<int32_t>(payload, offset + 48);
    const auto *path_entries = reinterpret_cast<const int *>(
        payload + offset + shard_result_record_bytes);
    record.path = {path_entries, count};
    return record;
}

uint32_t
ShardReader::resultKernel() const
{
    assert(payload_ == ShardPayload::Results &&
           "resultKernel() on a non-Results shard");
    return result_kernel_;
}

const std::string &
ShardReader::resultFormatId() const
{
    assert(payload_ == ShardPayload::Results &&
           "resultFormatId() on a non-Results shard");
    return result_format_id_;
}

// ------------------------------------------------------ conveniences

std::optional<ShardPayload>
peekShardPayload(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return std::nullopt;
    ShardHeader header{};
    const size_t got =
        std::fread(&header, 1, sizeof(header), file);
    std::fclose(file);
    if (got != sizeof(header))
        return std::nullopt;
    if (std::memcmp(header.magic, shard_magic,
                    sizeof(shard_magic)) != 0)
        return std::nullopt;
    switch (header.payload) {
    case static_cast<uint32_t>(ShardPayload::Columns):
        return ShardPayload::Columns;
    case static_cast<uint32_t>(ShardPayload::Sequences):
        return ShardPayload::Sequences;
    case static_cast<uint32_t>(ShardPayload::Results):
        return ShardPayload::Results;
    default:
        return std::nullopt;
    }
}

void
writeColumnShard(const std::string &path,
                 std::span<const pbd::Column> columns)
{
    ShardWriter writer(path, ShardPayload::Columns);
    for (const auto &column : columns)
        writer.add(column);
    writer.close();
}

std::vector<pbd::Column>
readColumnShard(const std::string &path)
{
    const ShardReader reader(path);
    std::vector<pbd::Column> out;
    out.reserve(reader.size());
    for (size_t i = 0; i < reader.size(); ++i) {
        // An owning copy: the views die with the reader's mapping.
        const pbd::ColumnView view = reader.column(i);
        pbd::Column &column = out.emplace_back();
        column.k = view.k;
        column.success_probs.assign(view.success_probs.begin(),
                                    view.success_probs.end());
    }
    return out;
}

} // namespace pstat::io
