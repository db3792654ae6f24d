#include "serve/frame.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace pstat::serve
{

namespace
{

/** Append a fixed-width little-endian value (memcpy of the host
 *  representation, matching the shard/plan encoders). */
template <typename T>
void
put(std::vector<uint8_t> &out, const T &value)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(&value);
    out.insert(out.end(), bytes, bytes + sizeof(T));
}

/** Append raw bytes. */
void
putBytes(std::vector<uint8_t> &out, const void *data, size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    out.insert(out.end(), bytes, bytes + len);
}

/** Pad with zero bytes to the next 8-byte grid position. */
void
pad8(std::vector<uint8_t> &out)
{
    while (out.size() % 8 != 0)
        out.push_back(0);
}

/** Bounds-checked sequential reader over one frame body. */
class Cursor
{
  public:
    explicit Cursor(std::span<const uint8_t> bytes) : bytes_(bytes) {}

    template <typename T>
    T
    take(const char *what)
    {
        T value;
        if (bytes_.size() - offset_ < sizeof(T))
            truncated(what);
        std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
        offset_ += sizeof(T);
        return value;
    }

    std::span<const uint8_t>
    takeBytes(size_t len, const char *what)
    {
        if (bytes_.size() - offset_ < len)
            truncated(what);
        const auto out = bytes_.subspan(offset_, len);
        offset_ += len;
        return out;
    }

    void
    skipPad8(const char *what)
    {
        while (offset_ % 8 != 0)
            (void)take<uint8_t>(what);
    }

    size_t remaining() const { return bytes_.size() - offset_; }

    void
    expectEnd(const char *what)
    {
        if (offset_ != bytes_.size())
            throw FrameError(std::string(what) + ": " +
                             std::to_string(remaining()) +
                             " trailing bytes after the last field");
    }

  private:
    [[noreturn]] void
    truncated(const char *what)
    {
        throw FrameError(std::string("frame body truncated in ") +
                         what);
    }

    std::span<const uint8_t> bytes_;
    size_t offset_ = 0;
};

/**
 * Retrying full write over a blocking socket. MSG_NOSIGNAL turns a
 * peer that closed mid-conversation into an EPIPE (reported as a
 * FrameError) instead of a process-killing SIGPIPE — the daemon's
 * error responses race its peers' disconnects by design, so this
 * must hold for in-process embedders (tests, benches), not just for
 * CLI entry points that ignore the signal globally.
 */
void
writeAll(int fd, const void *data, size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    size_t done = 0;
    while (done < len) {
        const ssize_t n =
            ::send(fd, bytes + done, len - done, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw FrameError(std::string("frame write failed: ") +
                             std::strerror(errno));
        }
        done += static_cast<size_t>(n);
    }
}

/**
 * Retrying full read over a blocking fd. Returns the bytes read:
 * `len` on success, 0 on end-of-stream before any byte, and anything
 * in between on a mid-field disconnect (the caller diagnoses).
 */
size_t
readUpTo(int fd, void *data, size_t len)
{
    auto *bytes = static_cast<unsigned char *>(data);
    size_t done = 0;
    while (done < len) {
        const ssize_t n = ::read(fd, bytes + done, len - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw FrameError(std::string("frame read failed: ") +
                             std::strerror(errno));
        }
        if (n == 0)
            break;
        done += static_cast<size_t>(n);
    }
    return done;
}

} // namespace

const char *
requestStatusName(RequestStatus status)
{
    switch (status) {
    case RequestStatus::Ok:
        return "ok";
    case RequestStatus::Rejected:
        return "rejected";
    case RequestStatus::Expired:
        return "expired";
    case RequestStatus::Error:
        return "error";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeRequestBody(const ServeRequest &request)
{
    std::vector<uint8_t> out;
    put(out, request.id);
    put(out, request.deadline_ms);

    const std::vector<uint8_t> plan = engine::encodePlan(request.plan);
    put(out, static_cast<uint32_t>(plan.size()));
    put(out, uint32_t{0}); // reserved
    putBytes(out, plan.data(), plan.size());
    pad8(out);

    put(out, static_cast<uint32_t>(io::ShardPayload::Columns));
    put(out, uint32_t{0}); // reserved
    put(out, static_cast<uint64_t>(request.columns.size()));
    for (const pbd::Column &column : request.columns) {
        // The shard Columns record layout (io/shard.hh): the 8-byte
        // prefix and binary64 entries keep every record 8-aligned.
        put(out, static_cast<uint32_t>(column.success_probs.size()));
        put(out, static_cast<int32_t>(column.k));
        putBytes(out, column.success_probs.data(),
                 column.success_probs.size() * sizeof(double));
    }
    return out;
}

ServeRequest
decodeRequestBody(std::span<const uint8_t> body)
{
    Cursor cursor(body);
    ServeRequest request;
    request.id = cursor.take<uint64_t>("request id");
    request.deadline_ms = cursor.take<uint64_t>("request deadline");

    const auto plan_bytes = cursor.take<uint32_t>("plan length");
    (void)cursor.take<uint32_t>("plan reserved");
    const auto plan_span =
        cursor.takeBytes(plan_bytes, "request plan");
    try {
        request.plan = engine::decodePlan(plan_span);
    } catch (const engine::PlanError &error) {
        // Re-type so the caller sees one error family per layer; the
        // request id is already decoded, so the server can still
        // route a typed per-request Error response.
        throw FrameError(std::string("request plan: ") + error.what());
    }
    cursor.skipPad8("request plan padding");

    const auto payload = cursor.take<uint32_t>("record payload tag");
    if (payload != static_cast<uint32_t>(io::ShardPayload::Columns))
        throw FrameError("request records: unsupported payload tag " +
                         std::to_string(payload) +
                         " (only Columns travel inline today)");
    (void)cursor.take<uint32_t>("record reserved");
    const auto count = cursor.take<uint64_t>("record count");
    // A count the remaining bytes cannot possibly hold is rejected
    // before the reserve, so a corrupt count cannot force a huge
    // allocation (mirrors the shard reader's item_count bound).
    if (count > cursor.remaining() / 8)
        throw FrameError("request records: count " +
                         std::to_string(count) +
                         " overruns the frame body");
    request.columns.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const auto n = cursor.take<uint32_t>("column coverage");
        pbd::Column column;
        column.k = cursor.take<int32_t>("column k");
        const auto probs = cursor.takeBytes(
            static_cast<size_t>(n) * sizeof(double),
            "column probabilities");
        column.success_probs.resize(n);
        // An empty vector's data() may be null, and memcpy's
        // pointers must not be, even for a zero count.
        if (!probs.empty())
            std::memcpy(column.success_probs.data(), probs.data(),
                        probs.size());
        request.columns.push_back(std::move(column));
    }
    cursor.expectEnd("request body");
    return request;
}

std::vector<uint8_t>
encodeResponseBody(const ServeResponse &response)
{
    std::vector<uint8_t> out;
    put(out, response.id);
    put(out, static_cast<uint32_t>(response.status));
    put(out, static_cast<uint32_t>(response.message.size()));
    putBytes(out, response.message.data(), response.message.size());
    pad8(out);

    put(out, response.kernel);
    put(out, static_cast<uint32_t>(response.format_id.size()));
    putBytes(out, response.format_id.data(),
             response.format_id.size());
    pad8(out);

    put(out, static_cast<uint64_t>(response.records.size()));
    for (const ResponseRecord &record : response.records) {
        // The exact 56-byte shard Results record layout
        // (io/shard.hh), path ints appended and 8-padded — so a
        // client can hand each record to ShardWriter::addResult and
        // get a byte-identical result shard.
        put(out, static_cast<uint32_t>(record.path.size()));
        put(out, record.flags);
        put(out, record.exp);
        putBytes(out, record.limbs.data(), 32);
        put(out, record.aux);
        put(out, uint32_t{0}); // reserved
        putBytes(out, record.path.data(),
                 record.path.size() * sizeof(int));
        pad8(out);
    }
    return out;
}

ServeResponse
decodeResponseBody(std::span<const uint8_t> body)
{
    Cursor cursor(body);
    ServeResponse response;
    response.id = cursor.take<uint64_t>("response id");
    const auto status = cursor.take<uint32_t>("response status");
    if (status < static_cast<uint32_t>(RequestStatus::Ok) ||
        status > static_cast<uint32_t>(RequestStatus::Error))
        throw FrameError("response: unknown status tag " +
                         std::to_string(status));
    response.status = static_cast<RequestStatus>(status);

    const auto message_len = cursor.take<uint32_t>("message length");
    const auto message =
        cursor.takeBytes(message_len, "response message");
    response.message.assign(message.begin(), message.end());
    cursor.skipPad8("message padding");

    response.kernel = cursor.take<uint32_t>("response kernel");
    const auto label_len = cursor.take<uint32_t>("label length");
    const auto label = cursor.takeBytes(label_len, "response label");
    response.format_id.assign(label.begin(), label.end());
    cursor.skipPad8("label padding");

    const auto count = cursor.take<uint64_t>("record count");
    if (count > cursor.remaining() / io::shard_result_record_bytes)
        throw FrameError("response records: count " +
                         std::to_string(count) +
                         " overruns the frame body");
    response.records.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        ResponseRecord record;
        const auto path_count = cursor.take<uint32_t>("path count");
        record.flags = cursor.take<uint32_t>("record flags");
        if ((record.flags & ~io::result_flag_mask) != 0)
            throw FrameError("response records: unknown flag bits");
        record.exp = cursor.take<int64_t>("record exponent");
        const auto limbs = cursor.takeBytes(32, "record limbs");
        std::memcpy(record.limbs.data(), limbs.data(), 32);
        record.aux = cursor.take<int32_t>("record aux");
        (void)cursor.take<uint32_t>("record reserved");
        const auto path = cursor.takeBytes(
            static_cast<size_t>(path_count) * sizeof(int),
            "record path");
        record.path.resize(path_count);
        if (!path.empty()) // as above: a null data() for no path
            std::memcpy(record.path.data(), path.data(), path.size());
        cursor.skipPad8("record padding");
        response.records.push_back(std::move(record));
    }
    cursor.expectEnd("response body");
    return response;
}

void
writeFrame(int fd, FrameType type, std::span<const uint8_t> body)
{
    FrameHeader header{};
    std::memcpy(header.magic, frame_magic, sizeof(frame_magic));
    header.version = frame_version;
    header.type = static_cast<uint32_t>(type);
    header.body_bytes = body.size();
    writeAll(fd, &header, sizeof(header));
    if (!body.empty())
        writeAll(fd, body.data(), body.size());
    uint64_t trailer = io::crc32(0, body.data(), body.size());
    writeAll(fd, &trailer, sizeof(trailer));
}

std::optional<Frame>
readFrame(int fd, uint64_t max_body)
{
    FrameHeader header{};
    const size_t got = readUpTo(fd, &header, sizeof(header));
    if (got == 0)
        return std::nullopt; // clean end-of-stream
    if (got < sizeof(header))
        throw FrameError("truncated frame header (" +
                         std::to_string(got) + " of " +
                         std::to_string(sizeof(header)) + " bytes)");
    if (std::memcmp(header.magic, frame_magic,
                    sizeof(frame_magic)) != 0)
        throw FrameError("bad frame magic");
    if (header.version != frame_version)
        throw FrameError("unsupported frame version " +
                         std::to_string(header.version));
    if (header.type != static_cast<uint32_t>(FrameType::Request) &&
        header.type != static_cast<uint32_t>(FrameType::Response))
        throw FrameError("unknown frame type " +
                         std::to_string(header.type));
    if (header.body_bytes > max_body)
        throw FrameError("frame body of " +
                         std::to_string(header.body_bytes) +
                         " bytes exceeds the " +
                         std::to_string(max_body) + "-byte cap");

    Frame frame;
    frame.type = static_cast<FrameType>(header.type);
    frame.body.resize(header.body_bytes);
    const size_t body_got =
        readUpTo(fd, frame.body.data(), frame.body.size());
    if (body_got < frame.body.size())
        throw FrameError("disconnect mid-body (" +
                         std::to_string(body_got) + " of " +
                         std::to_string(frame.body.size()) +
                         " bytes)");
    uint64_t trailer = 0;
    if (readUpTo(fd, &trailer, sizeof(trailer)) < sizeof(trailer))
        throw FrameError("disconnect before the frame trailer");
    const uint64_t want =
        io::crc32(0, frame.body.data(), frame.body.size());
    if (trailer != want)
        throw FrameError("frame CRC mismatch");
    return frame;
}

} // namespace pstat::serve
