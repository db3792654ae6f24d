/**
 * @file
 * The "PSTSRV1" framed wire protocol of the `pstat serve` daemon.
 *
 * The serving rung of the ROADMAP needs evaluation requests to
 * travel over a socket, and the repo already owns the two halves of
 * that wire format: EvalPlan has a versioned binary encoding
 * (engine/plan.hh) and evaluation output has the Results-record
 * encoding of the shard format (io/shard.hh). A frame is the
 * envelope that carries both across a byte stream: a fixed
 * little-endian header (magic, version, frame type, body length),
 * the body, and an 8-byte zero-extended CRC-32 trailer over the body
 * — the exact conventions of the shard header/trailer, so every
 * corruption class (truncation, bad magic, unknown version, a length
 * prefix past the cap, a flipped body bit) surfaces as a typed
 * FrameError at decode time, never as a garbage evaluation.
 *
 * Two frame types exist. A Request body is an encoded EvalPlan plus
 * inline records (Columns today, in the shard record layout;
 * Sequences is reserved in the tag space for a future model-shipping
 * protocol). A Response body is a status (Ok / Rejected / Expired /
 * Error), a diagnostic message, and — for Ok — the kernel tag,
 * result-format label, and Results records in the exact 56-byte
 * shard encoding, so a client can persist a response as a result
 * shard byte-identical to the offline `pstat eval -o` output.
 *
 * The body codecs hold no record code of their own: fields, strings,
 * padding and counts go through the io/codec.hh cursor, and the
 * Columns and Results records through the same writer and checked
 * reader the shard layer uses. A record the shard reader would
 * refuse is a FrameError here, and a record section of a body is
 * byte for byte the record payload of the matching shard.
 *
 * The encode/decode helpers here are pure (bytes in, structs out);
 * two blocking socket helpers layer the framing over a file
 * descriptor, and each moves whole frames per system call. The
 * writer (writeFrames, and writeFrame for one frame) sends every
 * header, body and CRC trailer of a call in one gathered sendmsg,
 * so a frame never leaves in pieces that Nagle's algorithm and a
 * delayed ACK could hold apart. The reader (FrameReader, one per
 * connection) reads whatever the socket holds into a fixed buffer
 * and hands out whole frames from it, so pipelined requests cost
 * one read() between them, not three per frame. Server scheduling,
 * coalescing and backpressure live in serve/server.hh; the client
 * side in serve/client.hh.
 */

#ifndef PSTAT_SERVE_FRAME_HH
#define PSTAT_SERVE_FRAME_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/plan.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"

/**
 * @namespace pstat::serve
 * The serving layer: the framed socket protocol (frame.hh), the
 * coalescing request scheduler (server.hh), and the client helpers
 * (client.hh) behind `pstat serve` / `pstat request`.
 */
namespace pstat::serve
{

/** Any framing failure: I/O errors and every corruption class. */
class FrameError : public std::runtime_error
{
  public:
    /** Inherits the message constructor. */
    using std::runtime_error::runtime_error;
};

/** The on-wire magic, first 8 bytes of every frame ("PSTSRV1"). */
inline constexpr char frame_magic[8] = {'P', 'S', 'T', 'S',
                                        'R', 'V', '1', '\0'};
/** Current protocol version; decoders reject anything else. */
inline constexpr uint32_t frame_version = 1;

/** What one frame's body holds. */
enum class FrameType : uint32_t
{
    Request = 1,  //!< client -> server: plan + inline records
    Response = 2, //!< server -> client: status + result records
};

/**
 * The fixed frame header (little-endian, 24 bytes). body_bytes
 * counts only the body; the 8-byte CRC trailer (io::crc32 over the
 * body, zero-extended exactly like the shard trailer) follows it on
 * the wire.
 */
struct FrameHeader
{
    char magic[8];       //!< frame_magic
    uint32_t version;    //!< frame_version
    uint32_t type;       //!< FrameType tag
    uint64_t body_bytes; //!< bytes between header and trailer
};
static_assert(sizeof(FrameHeader) == 24, "header layout is on-wire");

/** Trailer size: the CRC-32 value zero-extended to 8 bytes. */
inline constexpr size_t frame_trailer_bytes = 8;

/**
 * Default cap on one frame's body. A length prefix beyond the cap is
 * rejected *before* any allocation, so a corrupt (or hostile) length
 * field cannot make the peer allocate unbounded memory.
 */
inline constexpr uint64_t frame_default_max_body = 256ull << 20;

/** The typed outcome of one request, carried in every response. */
enum class RequestStatus : uint32_t
{
    Ok = 1,       //!< evaluated; records follow
    Rejected = 2, //!< admission queue full (backpressure), not run
    Expired = 3,  //!< deadline passed before dispatch, not run
    Error = 4,    //!< malformed or unsupported request
};

/** "ok" / "rejected" / "expired" / "error" — stable status names. */
const char *requestStatusName(RequestStatus status);

/**
 * One evaluation request: a plan plus the inline columns it
 * evaluates. The plan must be a PValue x Memory plan (the daemon
 * cannot bind an HMM model over the wire); any registered format /
 * screen / ladder policy composes as usual.
 */
struct ServeRequest
{
    /** Client-chosen correlation id, echoed in the response. */
    uint64_t id = 0;
    /**
     * Deadline budget in milliseconds from server receipt; 0 means
     * none. Work not dispatched within the budget is skipped and
     * reported as RequestStatus::Expired.
     */
    uint64_t deadline_ms = 0;
    /** The evaluation to run (PValue kernel, Memory source). */
    engine::EvalPlan plan;
    /** The columns to evaluate, in request order. */
    std::vector<pbd::Column> columns;
};

/**
 * One decoded Results record of a response — the owning flavor of
 * io::ShardResultRecord (the path owns its ints instead of borrowing
 * a mapping), in the same field layout. toShardRecord() adapts to
 * the io type for io::appendResultRecord and ShardWriter::addResult.
 */
struct ResponseRecord
{
    uint32_t flags = 0;               //!< io::result_flag_* bits
    int64_t exp = 0;                  //!< BigFloat exponent
    std::array<uint64_t, 4> limbs{};  //!< mantissa limbs
    int32_t aux = 0;                  //!< kernel side channel
    std::vector<int> path;            //!< decode path (may be empty)

    /** A borrowed io-layer view (valid while this record lives). */
    io::ShardResultRecord toShardRecord() const
    {
        return {flags, exp, limbs, aux, path};
    }
};

/**
 * One evaluation response. For RequestStatus::Ok the records carry
 * the per-column results in request order, encoded exactly as
 * `pstat eval -o` would persist them (engine::encodeResultRecord);
 * kernel and format_id mirror the result-shard meta block. For every
 * other status the record list is empty and message says why.
 */
struct ServeResponse
{
    /** The request's correlation id, echoed back. */
    uint64_t id = 0;
    /** The typed outcome. */
    RequestStatus status = RequestStatus::Ok;
    /** Diagnostic message (Rejected / Expired / Error). */
    std::string message;
    /** PlanKernel tag of the producing plan (Ok only). */
    uint32_t kernel = 0;
    /** Result-format label, as stamped in a result shard's meta. */
    std::string format_id;
    /** Per-item result records, in request order (Ok only). */
    std::vector<ResponseRecord> records;
};

/**
 * Encode one request body (no frame header/trailer — writeFrame adds
 * the envelope): id, deadline, the length-prefixed encodePlan bytes,
 * then the column records in the shard Columns record layout
 * (uint32 N, int32 K, N binary64 probabilities, 8-aligned).
 */
std::vector<uint8_t> encodeRequestBody(const ServeRequest &request);

/**
 * Decode one request body. Throws FrameError on anything malformed:
 * a truncated field, a plan that engine::decodePlan rejects, an
 * unknown payload tag, a column count the body cannot hold, a record
 * overrunning the body, or trailing bytes. The correlation id is decoded *first*, so a server can
 * report a typed per-request error even when the plan bytes inside a
 * CRC-valid frame are garbage.
 */
ServeRequest decodeRequestBody(std::span<const uint8_t> body);

/**
 * Encode one response body: id, status, the length-prefixed message,
 * kernel tag + length-prefixed format label, then the records in the
 * exact 56-byte shard Results encoding (+ path ints, 8-padded).
 * Throws std::logic_error on a malformed record, as
 * ShardWriter::addResult does.
 */
std::vector<uint8_t> encodeResponseBody(const ServeResponse &response);

/**
 * Decode one response body; the exact inverse of encodeResponseBody.
 * Throws FrameError on truncation, an unknown status tag, a record
 * count the body cannot hold, a record overrunning the body, trailing
 * bytes, or any record a result shard would refuse
 * (io::resultRecordDefect): unknown flag bits, a value flagged both
 * zero and NaN, a zero or NaN with a nonzero exponent or mantissa,
 * or a denormalized mantissa. A decoded record can therefore go
 * straight to engine::decodeResultValue or ShardWriter::addResult.
 */
ServeResponse decodeResponseBody(std::span<const uint8_t> body);

/** One decoded frame off the wire: its type tag and raw body. */
struct Frame
{
    FrameType type = FrameType::Request; //!< header type tag
    std::vector<uint8_t> body;           //!< CRC-validated body
};

/** One frame to write: its type tag and a borrowed body. */
struct FrameView
{
    FrameType type = FrameType::Response; //!< header type tag
    std::span<const uint8_t> body;        //!< not copied by the write
};

/**
 * Write @p frames back to back (each header + body + CRC trailer) to
 * a blocking socket in one gathered sendmsg: the iovecs point at
 * each header, body and trailer, so no body is copied. A partial
 * write continues where it stopped and EINTR is retried; a call is
 * split into several sendmsg calls only where its iovec count
 * passes IOV_MAX. MSG_NOSIGNAL makes a peer hangup an EPIPE, not a
 * SIGPIPE. Throws FrameError on any write failure.
 */
void writeFrames(int fd, std::span<const FrameView> frames);

/** writeFrames of one frame: one sendmsg for the whole frame. */
void writeFrame(int fd, FrameType type, std::span<const uint8_t> body);

/**
 * The buffered frame reader of one connection. Each read() takes
 * whatever the socket holds, up to a fixed buffer, and next() hands
 * out the whole frames in it; bytes of a following frame stay
 * buffered for the next call. A body larger than the buffer is read
 * straight into its frame, and the buffer never grows. The reader
 * borrows the descriptor (its owner closes it) and must be the only
 * reader of it, since it reads ahead.
 */
class FrameReader
{
  public:
    /** Size of the fixed read buffer. */
    static constexpr size_t buffer_bytes = 64 << 10;

    /** A reader of @p fd, a blocking socket or pipe. */
    explicit FrameReader(int fd);

    /**
     * The next whole frame, or an empty optional on a clean
     * end-of-stream (the peer closed at a frame boundary — the
     * normal connection shutdown). Magic, version, type and the
     * @p max_body cap are checked before the body is allocated.
     * Throws FrameError on every corruption class: a mid-header or
     * mid-body disconnect, bad magic, an unsupported version, an
     * unknown frame type, a body length beyond @p max_body, a
     * missing trailer, a CRC mismatch, or a read failure.
     */
    std::optional<Frame> next(uint64_t max_body);

  private:
    size_t buffered() const { return end_ - begin_; }
    size_t readSome(uint8_t *to, size_t room);
    bool fill(size_t want);
    size_t take(void *to, size_t len);

    int fd_;
    std::unique_ptr<uint8_t[]> buffer_;
    size_t begin_ = 0; //!< first unconsumed buffered byte
    size_t end_ = 0;   //!< one past the last buffered byte
};

} // namespace pstat::serve

#endif // PSTAT_SERVE_FRAME_HH
