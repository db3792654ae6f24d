#include "serve/frame.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "io/codec.hh"

namespace pstat::serve
{

namespace
{

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
    std::vector<uint8_t> body;
    io::ByteWriter out(body);
    out.put(request.id);
    out.put(request.deadline_ms);

    const std::vector<uint8_t> plan = engine::encodePlan(request.plan);
    out.put(static_cast<uint32_t>(plan.size()));
    out.put(uint32_t{0}); // reserved
    out.bytes(plan.data(), plan.size());
    out.pad8();

    out.put(static_cast<uint32_t>(io::ShardPayload::Columns));
    out.put(uint32_t{0}); // reserved
    out.put(static_cast<uint64_t>(request.columns.size()));
    for (const pbd::Column &column : request.columns)
        io::appendColumnRecord(out, column.view());
    return body;
}

ServeRequest
decodeRequestBody(std::span<const uint8_t> body)
{
    io::ByteReader<FrameError> in(body, "request body");
    ServeRequest request;
    request.id = in.take<uint64_t>("request id");
    request.deadline_ms = in.take<uint64_t>("request deadline");

    const auto plan_bytes = in.take<uint32_t>("plan length");
    in.skip(4, "plan reserved");
    const auto plan = in.bytes(plan_bytes, "request plan");
    try {
        request.plan = engine::decodePlan(plan);
    } catch (const engine::PlanError &error) {
        // Re-type so the caller sees one error family per layer; the
        // request id is already decoded, so the server can still
        // route a typed per-request Error response.
        throw FrameError(std::string("request plan: ") + error.what());
    }
    in.pad8("request plan padding");

    const auto payload = in.take<uint32_t>("record payload tag");
    if (payload != static_cast<uint32_t>(io::ShardPayload::Columns))
        in.fail("unsupported record payload tag " +
                std::to_string(payload) +
                " (only Columns travel inline today)");
    in.skip(4, "record reserved");
    const auto count = in.count<uint64_t>("record count", 8);
    request.columns.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        // The probabilities are copied out bytewise: a body span
        // carries no alignment promise.
        const pbd::ColumnView view = io::readColumnRecord(in);
        pbd::Column &column = request.columns.emplace_back();
        column.k = view.k;
        column.success_probs.resize(view.success_probs.size());
        if (!view.success_probs.empty())
            std::memcpy(column.success_probs.data(),
                        view.success_probs.data(),
                        view.success_probs.size_bytes());
    }
    in.expectEnd("column");
    return request;
}

std::vector<uint8_t>
encodeResponseBody(const ServeResponse &response)
{
    std::vector<uint8_t> body;
    io::ByteWriter out(body);
    out.put(response.id);
    out.put(static_cast<uint32_t>(response.status));
    out.str(response.message);
    out.pad8();

    out.put(response.kernel);
    out.str(response.format_id);
    out.pad8();

    out.put(static_cast<uint64_t>(response.records.size()));
    for (const ResponseRecord &record : response.records)
        io::appendResultRecord(out, record.toShardRecord());
    return body;
}

ServeResponse
decodeResponseBody(std::span<const uint8_t> body)
{
    io::ByteReader<FrameError> in(body, "response body");
    ServeResponse response;
    response.id = in.take<uint64_t>("response id");
    const auto status = in.take<uint32_t>("response status");
    if (status < static_cast<uint32_t>(RequestStatus::Ok) ||
        status > static_cast<uint32_t>(RequestStatus::Error))
        in.fail("unknown status tag " + std::to_string(status));
    response.status = static_cast<RequestStatus>(status);
    response.message = in.str("response message");
    in.pad8("message padding");

    response.kernel = in.take<uint32_t>("response kernel");
    response.format_id = in.str("response label");
    in.pad8("label padding");

    const auto count = in.count<uint64_t>(
        "record count", io::shard_result_record_bytes);
    response.records.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const io::ShardResultRecord view = io::readResultRecord(in);
        ResponseRecord &record = response.records.emplace_back();
        record.flags = view.flags;
        record.exp = view.exp;
        record.limbs = view.limbs;
        record.aux = view.aux;
        record.path.resize(view.path.size());
        if (!view.path.empty()) // copied bytewise, as columns are
            std::memcpy(record.path.data(), view.path.data(),
                        view.path.size_bytes());
    }
    in.expectEnd("record");
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
