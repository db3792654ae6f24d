#include "serve/frame.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "io/codec.hh"

namespace pstat::serve
{

namespace
{

/**
 * sendmsg until every byte of @p iov is out. A call takes at most
 * IOV_MAX entries; a partial write resumes mid-entry. MSG_NOSIGNAL
 * turns a peer that closed mid-conversation into an EPIPE (reported
 * as a FrameError) instead of a process-killing SIGPIPE — the
 * daemon's error responses race its peers' disconnects by design, so
 * this must hold for in-process embedders (tests, benches), not just
 * for CLI entry points that ignore the signal globally.
 */
void
sendAll(int fd, std::span<iovec> iov)
{
    while (!iov.empty()) {
        msghdr message{};
        message.msg_iov = iov.data();
        message.msg_iovlen = std::min<size_t>(iov.size(), IOV_MAX);
        const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw FrameError(std::string("frame write failed: ") +
                             std::strerror(errno));
        }
        auto sent = static_cast<size_t>(n);
        while (!iov.empty() && sent >= iov.front().iov_len) {
            sent -= iov.front().iov_len;
            iov = iov.subspan(1);
        }
        if (sent > 0) {
            iov.front().iov_base =
                static_cast<char *>(iov.front().iov_base) + sent;
            iov.front().iov_len -= sent;
        }
    }
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
writeFrames(int fd, std::span<const FrameView> frames)
{
    std::vector<FrameHeader> headers(frames.size());
    std::vector<uint64_t> trailers(frames.size());
    std::vector<iovec> iov;
    iov.reserve(3 * frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
        const std::span<const uint8_t> body = frames[i].body;
        FrameHeader &header = headers[i];
        std::memcpy(header.magic, frame_magic, sizeof(frame_magic));
        header.version = frame_version;
        header.type = static_cast<uint32_t>(frames[i].type);
        header.body_bytes = body.size();
        trailers[i] = io::crc32(0, body.data(), body.size());
        iov.push_back({&header, sizeof(header)});
        if (!body.empty())
            iov.push_back({const_cast<uint8_t *>(body.data()),
                           body.size()});
        iov.push_back({&trailers[i], frame_trailer_bytes});
    }
    sendAll(fd, iov);
}

void
writeFrame(int fd, FrameType type, std::span<const uint8_t> body)
{
    const FrameView frame{type, body};
    writeFrames(fd, {&frame, 1});
}

FrameReader::FrameReader(int fd)
    : fd_(fd),
      buffer_(std::make_unique_for_overwrite<uint8_t[]>(buffer_bytes))
{
}

/** One read() into @p to; 0 at end of stream. EINTR is retried. */
size_t
FrameReader::readSome(uint8_t *to, size_t room)
{
    while (true) {
        const ssize_t n = ::read(fd_, to, room);
        if (n >= 0)
            return static_cast<size_t>(n);
        if (errno != EINTR)
            throw FrameError(std::string("frame read failed: ") +
                             std::strerror(errno));
    }
}

/**
 * Read until at least @p want (at most buffer_bytes) bytes are
 * buffered; false when the stream ends first. Each read() asks for
 * all the room left, so the bytes of following frames come along.
 */
bool
FrameReader::fill(size_t want)
{
    if (begin_ + want > buffer_bytes) {
        std::memmove(buffer_.get(), buffer_.get() + begin_, buffered());
        end_ -= begin_;
        begin_ = 0;
    }
    while (buffered() < want) {
        const size_t n =
            readSome(buffer_.get() + end_, buffer_bytes - end_);
        if (n == 0)
            return false;
        end_ += n;
    }
    return true;
}

/** Move up to @p len buffered bytes to @p to; returns how many. */
size_t
FrameReader::take(void *to, size_t len)
{
    const size_t n = std::min(len, buffered());
    if (n > 0)
        std::memcpy(to, buffer_.get() + begin_, n);
    begin_ += n;
    if (begin_ == end_)
        begin_ = end_ = 0; // empty: the next read starts at the front
    return n;
}

std::optional<Frame>
FrameReader::next(uint64_t max_body)
{
    FrameHeader header{};
    if (!fill(sizeof(header))) {
        if (buffered() == 0)
            return std::nullopt; // clean end-of-stream
        throw FrameError("truncated frame header (" +
                         std::to_string(buffered()) + " of " +
                         std::to_string(sizeof(header)) + " bytes)");
    }
    take(&header, sizeof(header));
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
    uint8_t *const body = frame.body.data();
    const size_t body_bytes = frame.body.size();
    size_t got = take(body, body_bytes);
    if (body_bytes - got + frame_trailer_bytes <= buffer_bytes) {
        // The rest of the body and the trailer fit the buffer: one
        // fill brings them, and whatever follows them, in.
        fill(body_bytes - got + frame_trailer_bytes);
        got += take(body + got, body_bytes - got);
    } else {
        // A body larger than the buffer goes straight into the frame.
        while (got < body_bytes) {
            const size_t n = readSome(body + got, body_bytes - got);
            if (n == 0)
                break;
            got += n;
        }
    }
    if (got < body_bytes)
        throw FrameError("disconnect mid-body (" + std::to_string(got) +
                         " of " + std::to_string(body_bytes) +
                         " bytes)");
    uint64_t trailer = 0;
    if (!fill(sizeof(trailer)))
        throw FrameError("disconnect before the frame trailer");
    take(&trailer, sizeof(trailer));
    if (trailer != io::crc32(0, body, body_bytes))
        throw FrameError("frame CRC mismatch");
    return frame;
}

} // namespace pstat::serve
