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

namespace
{

[[noreturn]] void
fail(const std::string &path, const std::string &what)
{
    throw ShardError(path + ": " + what);
}

/** The payload kind comes from the file, so a record read of the
 *  wrong kind is a ShardError naming it, never an assert. */
void
expectPayload(const std::string &path, ShardPayload have,
              ShardPayload want)
{
    if (have != want)
        fail(path, std::string(shardPayloadName(have)) +
                       " shard, not a " + shardPayloadName(want) +
                       " shard");
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

/**
 * Read one Sequences record: u32 T, u32 reserved, T int32 symbols,
 * and 4 zero bytes after an odd T to keep the 8-byte grid. The span
 * points into the (page-aligned) mapping.
 */
std::span<const int>
readSequenceRecord(ByteReader<ShardError> &in)
{
    const auto len = in.take<uint32_t>("sequence length");
    in.skip(4, "sequence reserved");
    const auto symbols =
        in.bytes(size_t{len} * sizeof(int32_t), "sequence symbols");
    if (len % 2 != 0)
        in.skip(4, "sequence padding");
    return {reinterpret_cast<const int *>(symbols.data()), len};
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
ShardWriter::appendPayload()
{
    write(record_.data(), record_.size());
    crc_ = crc32(crc_, record_.data(), record_.size());
    payload_bytes_ += record_.size();
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
    ByteWriter out(record_);
    out.put(result_kernel);
    out.str(format_id);
    out.pad8();
    appendPayload();
}

void
ShardWriter::add(pbd::ColumnView column)
{
    if (payload_ != ShardPayload::Columns)
        throw std::logic_error(path_ +
                               ": column record on a non-Columns shard");
    record_.clear();
    ByteWriter out(record_);
    appendColumnRecord(out, column);
    appendPayload();
    ++items_;
}

void
ShardWriter::addSequence(std::span<const int> obs)
{
    if (payload_ != ShardPayload::Sequences)
        throw std::logic_error(
            path_ + ": sequence record on a non-Sequences shard");
    record_.clear();
    ByteWriter out(record_);
    out.put(static_cast<uint32_t>(obs.size()));
    out.put(uint32_t{0}); // reserved
    out.bytes(obs.data(), obs.size_bytes());
    out.pad8(); // an odd-length symbol run keeps the 8-byte grid
    appendPayload();
    ++items_;
}

void
ShardWriter::addResult(const ShardResultRecord &record)
{
    if (payload_ != ShardPayload::Results)
        throw std::logic_error(path_ +
                               ": result record on a non-Results shard");
    record_.clear();
    ByteWriter out(record_);
    appendResultRecord(out, record);
    appendPayload();
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
    try {
        validate();
    } catch (...) {
        unmap();
        throw;
    }
}

void
ShardReader::validate()
{
    ShardHeader header;
    std::memcpy(&header, base_, sizeof(header));
    if (std::memcmp(header.magic, shard_magic,
                    sizeof(shard_magic)) != 0)
        fail(path_, "bad magic (not a shard file)");
    if (header.version != shard_version)
        fail(path_, "unsupported shard version " +
                        std::to_string(header.version));
    if (header.payload !=
            static_cast<uint32_t>(ShardPayload::Columns) &&
        header.payload !=
            static_cast<uint32_t>(ShardPayload::Sequences) &&
        header.payload !=
            static_cast<uint32_t>(ShardPayload::Results))
        fail(path_, "unknown payload tag " +
                        std::to_string(header.payload));
    version_ = header.version;
    payload_ = static_cast<ShardPayload>(header.payload);
    if (header.payload_bytes !=
        mapped_bytes_ - sizeof(ShardHeader) - shard_trailer_bytes)
        fail(path_, "truncated shard (payload size does not match "
                    "file size)");
    payload_bytes_ = header.payload_bytes;

    // All eight trailer bytes: the CRC zero-extended, exactly as
    // close() wrote it, so damage to the upper half fails here too.
    uint64_t stored_crc = 0;
    std::memcpy(&stored_crc, base_ + sizeof(ShardHeader) + payload_bytes_,
                sizeof(stored_crc));
    if (stored_crc != crc32(0, payloadSpan().data(), payload_bytes_))
        fail(path_, "payload CRC mismatch (corrupted shard)");

    // Walk every record boundary once so column()/sequence()/result()
    // can never step outside the payload.
    ByteReader<ShardError> in(payloadSpan(), path_);
    size_t min_record_bytes = 8;
    if (payload_ == ShardPayload::Results) {
        // The meta block (kernel tag, format id, padded to the record
        // grid) precedes the records and is not counted in
        // item_count.
        result_kernel_ = in.take<uint32_t>("result kernel");
        result_format_id_ = in.str("result format id");
        if (result_format_id_.size() > shard_result_id_max)
            in.fail("result format id too long");
        in.pad8("result meta padding");
        min_record_bytes = shard_result_record_bytes;
    }
    // The header is outside the CRC, so item_count is untrusted until
    // the walk confirms it: a count the payload cannot hold fails
    // here, not as bad_alloc from the reserve.
    in.checkCount(header.item_count, "item count", min_record_bytes);
    offsets_.reserve(header.item_count);
    for (uint64_t i = 0; i < header.item_count; ++i) {
        offsets_.push_back(in.pos());
        switch (payload_) {
        case ShardPayload::Columns:
            (void)readColumnRecord(in);
            break;
        case ShardPayload::Sequences:
            (void)readSequenceRecord(in);
            break;
        case ShardPayload::Results:
            (void)readResultRecord(in);
            break;
        }
    }
    in.expectEnd("record");
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

std::span<const uint8_t>
ShardReader::payloadSpan() const
{
    return {base_ + sizeof(ShardHeader), payload_bytes_};
}

pbd::ColumnView
ShardReader::column(size_t i) const
{
    expectPayload(path_, payload_, ShardPayload::Columns);
    assert(i < offsets_.size() && "column index out of range");
    // Records are 8-aligned within the page-aligned mapping, so the
    // probability block really is a double array in place.
    ByteReader<ShardError> in(payloadSpan(), path_, offsets_[i]);
    return readColumnRecord(in);
}

std::span<const int>
ShardReader::sequence(size_t i) const
{
    expectPayload(path_, payload_, ShardPayload::Sequences);
    assert(i < offsets_.size() && "sequence index out of range");
    ByteReader<ShardError> in(payloadSpan(), path_, offsets_[i]);
    return readSequenceRecord(in);
}

ShardResultRecord
ShardReader::result(size_t i) const
{
    expectPayload(path_, payload_, ShardPayload::Results);
    assert(i < offsets_.size() && "result index out of range");
    ByteReader<ShardError> in(payloadSpan(), path_, offsets_[i]);
    return readResultRecord(in);
}

uint32_t
ShardReader::resultKernel() const
{
    expectPayload(path_, payload_, ShardPayload::Results);
    return result_kernel_;
}

const std::string &
ShardReader::resultFormatId() const
{
    expectPayload(path_, payload_, ShardPayload::Results);
    return result_format_id_;
}

// ------------------------------------------------------ conveniences

const char *
shardPayloadName(ShardPayload payload)
{
    switch (payload) {
    case ShardPayload::Columns:
        return "columns";
    case ShardPayload::Sequences:
        return "sequences";
    case ShardPayload::Results:
        return "results";
    }
    return "unknown";
}

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

std::vector<pbd::Column>
readColumnShard(const std::string &path)
{
    const ShardReader reader(path);
    expectPayload(path, reader.payload(), ShardPayload::Columns);
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
