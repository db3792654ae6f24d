/**
 * @file
 * The PSTSRV1 serving layer under test: pure codec round trips, the
 * full corruption matrix (mirroring tests/test_shard.cc for the
 * shard format), and the live-daemon contracts — coalescing,
 * backpressure rejection, deadline expiry, typed per-request errors
 * that keep the connection alive, graceful continuation after broken
 * peers, and byte-identity of the daemon round trip against the
 * offline CLI for fixed / screened / adaptive policies across every
 * registered format.
 *
 * The live-server scenarios are sequenced deterministically through
 * the scheduler pause gate plus two observables: stats().admitted
 * (monotone, counts queue acceptances) and queueDepth(). The gate
 * lives inside the queue's own pop() predicate, so a paused
 * scheduler provably holds no request: "admitted == N &&
 * queueDepth() == N" is a stable barrier — every request is sitting
 * in the queue — with no sleeps and no races.
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "apps/pstat_cli.hh"
#include "cli_env.hh"
#include "engine/escalate.hh"
#include "engine/format_registry.hh"
#include "engine/plan.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/server.hh"
#include "test_tmp.hh"

namespace
{

using namespace pstat;
using namespace std::chrono_literals;
using test::tempPath;

/** Run the CLI in-process; captures stdout/stderr around the call. */
int
runCli(std::initializer_list<const char *> args,
       std::string *out = nullptr, std::string *err = nullptr)
{
    std::vector<const char *> argv{"pstat"};
    argv.insert(argv.end(), args.begin(), args.end());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc = apps::pstatMain(static_cast<int>(argv.size()),
                                   argv.data());
    const std::string captured_out =
        testing::internal::GetCapturedStdout();
    const std::string captured_err =
        testing::internal::GetCapturedStderr();
    if (out != nullptr)
        *out = captured_out;
    if (err != nullptr)
        *err = captured_err;
    return rc;
}

std::vector<pbd::Column>
makeColumns(int n, uint64_t seed = 5)
{
    pbd::DatasetConfig config;
    config.num_columns = n;
    config.seed = seed;
    return pbd::makeDataset(config, "serve").columns;
}

engine::EvalPlan
fixedPlan(const std::string &format_id = "binary64")
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = format_id;
    return plan;
}

serve::ServeRequest
makeRequest(uint64_t id, int columns,
            const engine::EvalPlan &plan = fixedPlan())
{
    serve::ServeRequest request;
    request.id = id;
    request.plan = plan;
    request.columns = makeColumns(columns, 100 + id);
    return request;
}

/** Poll `done` for up to `budget`; returns its final verdict. */
bool
waitFor(const std::function<bool()> &done,
        std::chrono::milliseconds budget = 5000ms)
{
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (done())
            return true;
        std::this_thread::sleep_for(2ms);
    }
    return done();
}

/** Write raw bytes to a socket, asserting full delivery. */
void
writeRaw(int fd, const void *data, size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    size_t done = 0;
    while (done < len) {
        const ssize_t n = ::write(fd, bytes + done, len - done);
        ASSERT_GT(n, 0);
        done += static_cast<size_t>(n);
    }
}

serve::FrameHeader
requestHeader(uint64_t body_bytes)
{
    serve::FrameHeader header{};
    std::memcpy(header.magic, serve::frame_magic,
                sizeof(serve::frame_magic));
    header.version = serve::frame_version;
    header.type = static_cast<uint32_t>(serve::FrameType::Request);
    header.body_bytes = body_bytes;
    return header;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

// ------------------------------------------------------- pure codec

TEST(ServeFrame, StatusNamesAreStable)
{
    EXPECT_STREQ(requestStatusName(serve::RequestStatus::Ok), "ok");
    EXPECT_STREQ(requestStatusName(serve::RequestStatus::Rejected),
                 "rejected");
    EXPECT_STREQ(requestStatusName(serve::RequestStatus::Expired),
                 "expired");
    EXPECT_STREQ(requestStatusName(serve::RequestStatus::Error),
                 "error");
}

TEST(ServeFrame, RequestBodyRoundTrips)
{
    auto plan = fixedPlan("log32");
    plan.policy = engine::PlanPolicy::Screened;
    plan.screen.guard_band_log2 = 48.0;
    serve::ServeRequest request = makeRequest(42, 3, plan);
    request.deadline_ms = 250;

    const auto body = serve::encodeRequestBody(request);
    const serve::ServeRequest decoded = serve::decodeRequestBody(body);

    EXPECT_EQ(decoded.id, 42u);
    EXPECT_EQ(decoded.deadline_ms, 250u);
    EXPECT_EQ(engine::encodePlan(decoded.plan),
              engine::encodePlan(request.plan));
    ASSERT_EQ(decoded.columns.size(), request.columns.size());
    for (size_t i = 0; i < decoded.columns.size(); ++i) {
        EXPECT_EQ(decoded.columns[i].k, request.columns[i].k);
        EXPECT_EQ(decoded.columns[i].success_probs,
                  request.columns[i].success_probs);
    }
}

TEST(ServeFrame, ResponseBodyRoundTrips)
{
    serve::ServeResponse response;
    response.id = 7;
    response.status = serve::RequestStatus::Ok;
    response.message = "all good";
    response.kernel =
        static_cast<uint32_t>(engine::PlanKernel::Viterbi);
    response.format_id = "adaptive:binary32,binary64";
    serve::ResponseRecord record;
    record.flags = io::result_flag_certified;
    record.exp = -12345;
    record.limbs = {1u, 2u, 3u, 4u};
    record.aux = -2;
    record.path = {0, 1, 1, 0, 2};
    response.records.push_back(record);
    response.records.push_back({}); // an all-defaults record too

    const auto body = serve::encodeResponseBody(response);
    const serve::ServeResponse decoded =
        serve::decodeResponseBody(body);

    EXPECT_EQ(decoded.id, 7u);
    EXPECT_EQ(decoded.status, serve::RequestStatus::Ok);
    EXPECT_EQ(decoded.message, "all good");
    EXPECT_EQ(decoded.kernel, response.kernel);
    EXPECT_EQ(decoded.format_id, response.format_id);
    ASSERT_EQ(decoded.records.size(), 2u);
    EXPECT_EQ(decoded.records[0].flags, record.flags);
    EXPECT_EQ(decoded.records[0].exp, record.exp);
    EXPECT_EQ(decoded.records[0].limbs, record.limbs);
    EXPECT_EQ(decoded.records[0].aux, record.aux);
    EXPECT_EQ(decoded.records[0].path, record.path);
    EXPECT_TRUE(decoded.records[1].path.empty());
}

TEST(ServeFrame, EveryRequestBodyTruncationIsTyped)
{
    const auto body =
        serve::encodeRequestBody(makeRequest(9, 2));
    for (size_t len = 0; len < body.size(); ++len) {
        EXPECT_THROW(
            serve::decodeRequestBody(
                std::span<const uint8_t>(body).first(len)),
            serve::FrameError)
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(ServeFrame, EveryResponseBodyTruncationIsTyped)
{
    serve::ServeResponse response;
    response.id = 3;
    response.message = "msg";
    response.format_id = "binary64";
    serve::ResponseRecord record;
    record.path = {1, 2, 3};
    response.records.push_back(record);
    const auto body = serve::encodeResponseBody(response);
    for (size_t len = 0; len < body.size(); ++len) {
        EXPECT_THROW(
            serve::decodeResponseBody(
                std::span<const uint8_t>(body).first(len)),
            serve::FrameError)
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(ServeFrame, GarbagePlanBytesAreATypedError)
{
    auto body = serve::encodeRequestBody(makeRequest(11, 1));
    body[24] ^= 0xff; // first plan byte (after id/deadline/lengths)
    try {
        serve::decodeRequestBody(body);
        FAIL() << "garbage plan decoded";
    } catch (const serve::FrameError &error) {
        EXPECT_NE(std::string(error.what()).find("plan"),
                  std::string::npos);
    }
}

TEST(ServeFrame, RequestColumnCountOverrunIsRejectedBeforeAllocation)
{
    auto body = serve::encodeRequestBody(makeRequest(12, 1));
    // The column count sits right after plan padding + payload tag +
    // reserved; rather than hunt the offset, clobber it through the
    // decoder's own error: truncate to just past the count field and
    // raise the count to an absurd value via a rebuilt body.
    serve::ServeRequest request = makeRequest(12, 0);
    auto empty = serve::encodeRequestBody(request);
    // The count is the last 8 bytes of a zero-column body.
    const uint64_t absurd = 1ull << 60;
    std::memcpy(empty.data() + empty.size() - 8, &absurd, 8);
    try {
        serve::decodeRequestBody(empty);
        FAIL() << "absurd record count decoded";
    } catch (const serve::FrameError &error) {
        EXPECT_NE(std::string(error.what()).find("overruns"),
                  std::string::npos);
    }
}

TEST(ServeFrame, ResponseUnknownStatusAndFlagsAreTyped)
{
    serve::ServeResponse response;
    response.id = 5;
    auto body = serve::encodeResponseBody(response);
    auto bad_status = body;
    bad_status[8] = 0x7f; // status tag
    EXPECT_THROW(serve::decodeResponseBody(bad_status),
                 serve::FrameError);

    serve::ResponseRecord record;
    response.records.push_back(record);
    auto with_record = serve::encodeResponseBody(response);
    // Flag word of the first record: after id(8) + status/msg-len(8)
    // + kernel/label-len(8) + count(8) + path-count(4).
    with_record[8 + 8 + 8 + 8 + 4] = 0x80; // above result_flag_mask
    EXPECT_THROW(serve::decodeResponseBody(with_record),
                 serve::FrameError);
}

// ------------------------------------------- framing over a socket

/** A connected socketpair; both ends closed on destruction. */
struct SocketPair
{
    int fds[2] = {-1, -1};
    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~SocketPair()
    {
        for (const int fd : fds)
            if (fd >= 0)
                ::close(fd);
    }
    void
    closeWriter()
    {
        ::close(fds[0]);
        fds[0] = -1;
    }
};

TEST(ServeFrame, FrameRoundTripsOverASocket)
{
    SocketPair pair;
    const auto body = serve::encodeRequestBody(makeRequest(1, 2));
    serve::writeFrame(pair.fds[0], serve::FrameType::Request, body);
    pair.closeWriter();

    const auto frame =
        serve::readFrame(pair.fds[1], serve::frame_default_max_body);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, serve::FrameType::Request);
    EXPECT_EQ(frame->body, body);

    // After the one frame the stream ends cleanly: empty optional,
    // not an error.
    EXPECT_FALSE(
        serve::readFrame(pair.fds[1], serve::frame_default_max_body)
            .has_value());
}

TEST(ServeFrame, CorruptionMatrixOverASocket)
{
    struct Case
    {
        const char *name;
        std::function<void(SocketPair &)> inject;
        const char *diagnostic; // substring of the FrameError
    };
    const std::vector<Case> cases = {
        {"truncated header",
         [](SocketPair &pair) {
             const auto header = requestHeader(0);
             writeRaw(pair.fds[0], &header, 10);
         },
         "truncated frame header"},
        {"bad magic",
         [](SocketPair &pair) {
             auto header = requestHeader(0);
             std::memcpy(header.magic, "BADMAGIC", 8);
             writeRaw(pair.fds[0], &header, sizeof(header));
         },
         "bad frame magic"},
        {"unsupported version",
         [](SocketPair &pair) {
             auto header = requestHeader(0);
             header.version = 99;
             writeRaw(pair.fds[0], &header, sizeof(header));
         },
         "unsupported frame version"},
        {"unknown frame type",
         [](SocketPair &pair) {
             auto header = requestHeader(0);
             header.type = 9;
             writeRaw(pair.fds[0], &header, sizeof(header));
         },
         "unknown frame type"},
        {"oversize length prefix",
         [](SocketPair &pair) {
             const auto header = requestHeader(1ull << 40);
             writeRaw(pair.fds[0], &header, sizeof(header));
         },
         "exceeds the"},
        {"mid-body disconnect",
         [](SocketPair &pair) {
             const auto header = requestHeader(64);
             writeRaw(pair.fds[0], &header, sizeof(header));
             const char partial[16] = {};
             writeRaw(pair.fds[0], partial, sizeof(partial));
         },
         "disconnect mid-body"},
        {"missing trailer",
         [](SocketPair &pair) {
             const auto header = requestHeader(8);
             writeRaw(pair.fds[0], &header, sizeof(header));
             const char body[8] = {};
             writeRaw(pair.fds[0], body, sizeof(body));
         },
         "disconnect before the frame trailer"},
        {"flipped CRC",
         [](SocketPair &pair) {
             const uint8_t body[8] = {1, 2, 3, 4, 5, 6, 7, 8};
             const auto header = requestHeader(sizeof(body));
             writeRaw(pair.fds[0], &header, sizeof(header));
             writeRaw(pair.fds[0], body, sizeof(body));
             uint64_t trailer =
                 io::crc32(0, body, sizeof(body)) ^ 1u;
             writeRaw(pair.fds[0], &trailer, sizeof(trailer));
         },
         "CRC mismatch"},
    };

    for (const Case &corruption : cases) {
        SocketPair pair;
        corruption.inject(pair);
        pair.closeWriter();
        try {
            serve::readFrame(pair.fds[1],
                             serve::frame_default_max_body);
            FAIL() << corruption.name << ": frame decoded";
        } catch (const serve::FrameError &error) {
            EXPECT_NE(
                std::string(error.what()).find(corruption.diagnostic),
                std::string::npos)
                << corruption.name << ": got \"" << error.what()
                << "\"";
        }
    }
}

// ------------------------------------------------------ live server

TEST(ServeServer, RoundTripsOverUnixSocket)
{
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_rt.sock");
    serve::Server server(config);

    auto client = serve::Client::connectUnix(config.unix_path);
    const auto response = client.roundTrip(makeRequest(21, 20));
    EXPECT_EQ(response.id, 21u);
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_EQ(response.kernel,
              static_cast<uint32_t>(engine::PlanKernel::PValue));
    EXPECT_EQ(response.format_id, "binary64");
    EXPECT_EQ(response.records.size(), 20u);

    server.stop();
    const auto stats = server.stats();
    EXPECT_EQ(stats.admitted, 1u);
    EXPECT_EQ(stats.served, 1u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.columns, 20u);
}

TEST(ServeServer, RoundTripsOverTcpLoopback)
{
    serve::ServerConfig config;
    config.tcp_port = 0; // ephemeral
    serve::Server server(config);
    ASSERT_GT(server.tcpPort(), 0);

    auto client =
        serve::Client::connectTcp("127.0.0.1", server.tcpPort());
    const auto response = client.roundTrip(makeRequest(31, 8));
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_EQ(response.records.size(), 8u);
}

TEST(ServeServer, ZeroColumnRequestIsServedEmpty)
{
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_empty.sock");
    serve::Server server(config);

    auto client = serve::Client::connectUnix(config.unix_path);
    const auto response = client.roundTrip(makeRequest(41, 0));
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_TRUE(response.records.empty());
    EXPECT_EQ(response.format_id, "binary64");
}

TEST(ServeServer, ScreenedAndAdaptivePoliciesServe)
{
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_policy.sock");
    serve::Server server(config);
    auto client = serve::Client::connectUnix(config.unix_path);

    auto screened = fixedPlan("binary32");
    screened.policy = engine::PlanPolicy::Screened;
    const auto screened_response =
        client.roundTrip(makeRequest(51, 30, screened));
    EXPECT_EQ(screened_response.status, serve::RequestStatus::Ok);
    EXPECT_EQ(screened_response.records.size(), 30u);
    EXPECT_EQ(screened_response.format_id, "binary32");

    engine::EvalPlan adaptive;
    adaptive.kernel = engine::PlanKernel::PValue;
    adaptive.policy = engine::PlanPolicy::Adaptive;
    adaptive.cert = engine::defaultPValueCert();
    adaptive.ladder_ids = {"binary32", "binary64"};
    const auto adaptive_response =
        client.roundTrip(makeRequest(52, 30, adaptive));
    EXPECT_EQ(adaptive_response.status, serve::RequestStatus::Ok);
    EXPECT_EQ(adaptive_response.records.size(), 30u);
    EXPECT_EQ(adaptive_response.format_id,
              "adaptive:binary32,binary64");
}

TEST(ServeServer, NonPValuePlanIsATypedErrorAndKeepsTheConnection)
{
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_kernel.sock");
    serve::Server server(config);
    auto client = serve::Client::connectUnix(config.unix_path);

    auto plan = fixedPlan();
    plan.kernel = engine::PlanKernel::Forward;
    const auto bad = client.roundTrip(makeRequest(61, 0, plan));
    EXPECT_EQ(bad.id, 61u);
    EXPECT_EQ(bad.status, serve::RequestStatus::Error);
    EXPECT_NE(bad.message.find("pvalue"), std::string::npos);

    // The frame was CRC-valid, so the stream stays usable.
    const auto good = client.roundTrip(makeRequest(62, 4));
    EXPECT_EQ(good.status, serve::RequestStatus::Ok);
    EXPECT_EQ(good.records.size(), 4u);
    EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServeServer, GarbagePlanGetsTypedErrorWithItsRequestId)
{
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_garbage.sock");
    serve::Server server(config);
    auto client = serve::Client::connectUnix(config.unix_path);

    auto body = serve::encodeRequestBody(makeRequest(77, 1));
    body[24] ^= 0xff; // corrupt the plan, keep the frame CRC-valid
    serve::writeFrame(client.fd(), serve::FrameType::Request, body);
    const auto response = client.receive();
    EXPECT_EQ(response.id, 77u);
    EXPECT_EQ(response.status, serve::RequestStatus::Error);
    EXPECT_NE(response.message.find("plan"), std::string::npos);

    // Same connection still serves valid requests afterwards.
    const auto good = client.roundTrip(makeRequest(78, 2));
    EXPECT_EQ(good.status, serve::RequestStatus::Ok);
    EXPECT_EQ(good.records.size(), 2u);
}

TEST(ServeServer, BrokenFramingDropsTheConnectionNotTheServer)
{
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_broken.sock");
    config.max_frame_bytes = 1u << 16;
    serve::Server server(config);

    // Bad magic: unaddressed typed error, then the connection closes.
    {
        auto client = serve::Client::connectUnix(config.unix_path);
        auto header = requestHeader(0);
        std::memcpy(header.magic, "BADMAGIC", 8);
        writeRaw(client.fd(), &header, sizeof(header));
        const auto response = client.receive();
        EXPECT_EQ(response.id, 0u);
        EXPECT_EQ(response.status, serve::RequestStatus::Error);
        EXPECT_NE(response.message.find("magic"), std::string::npos);
        EXPECT_THROW(client.receive(), serve::FrameError);
    }

    // Oversize length prefix: rejected before any body allocation.
    {
        auto client = serve::Client::connectUnix(config.unix_path);
        const auto header = requestHeader((1u << 16) + 1);
        writeRaw(client.fd(), &header, sizeof(header));
        const auto response = client.receive();
        EXPECT_EQ(response.status, serve::RequestStatus::Error);
        EXPECT_NE(response.message.find("cap"), std::string::npos);
    }

    // Flipped CRC: unaddressed typed error.
    {
        auto client = serve::Client::connectUnix(config.unix_path);
        const auto body =
            serve::encodeRequestBody(makeRequest(91, 1));
        const auto header = requestHeader(body.size());
        writeRaw(client.fd(), &header, sizeof(header));
        writeRaw(client.fd(), body.data(), body.size());
        uint64_t trailer =
            io::crc32(0, body.data(), body.size()) ^ 1u;
        writeRaw(client.fd(), &trailer, sizeof(trailer));
        const auto response = client.receive();
        EXPECT_EQ(response.status, serve::RequestStatus::Error);
        EXPECT_NE(response.message.find("CRC"), std::string::npos);
    }

    // Mid-stream disconnect: the reader notes the error and retires
    // the connection; nobody to answer, so just count it.
    {
        auto client = serve::Client::connectUnix(config.unix_path);
        const auto header = requestHeader(64);
        writeRaw(client.fd(), &header, sizeof(header));
        const char partial[16] = {};
        writeRaw(client.fd(), partial, sizeof(partial));
    } // ~Client closes mid-body
    EXPECT_TRUE(waitFor([&] { return server.stats().errors == 4; }));

    // After the whole parade the server still serves.
    auto client = serve::Client::connectUnix(config.unix_path);
    const auto response = client.roundTrip(makeRequest(92, 3));
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_EQ(response.records.size(), 3u);
}

TEST(ServeServer, SamePlanRequestsCoalesceIntoOneBatch)
{
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_coalesce.sock");
    config.queue_capacity = 8;
    config.coalesce_max = 8;
    serve::Server server(config);
    server.pause();

    auto client = serve::Client::connectUnix(config.unix_path);
    const std::vector<int> sizes = {3, 1, 4, 2};
    size_t total = 0;
    for (size_t i = 0; i < sizes.size(); ++i) {
        client.send(makeRequest(200 + i, sizes[i]));
        total += sizes[i];
    }
    // All four admitted and queued: the paused scheduler holds
    // nothing, so the next round sweeps them all at once.
    ASSERT_TRUE(waitFor([&] {
        return server.stats().admitted == 4 &&
               server.queueDepth() == 4;
    }));

    server.resume();
    for (size_t i = 0; i < sizes.size(); ++i) {
        const auto response = client.receive();
        ASSERT_EQ(response.status, serve::RequestStatus::Ok);
        const size_t index = response.id - 200;
        ASSERT_LT(index, sizes.size());
        // Demultiplexing: each response carries exactly its own
        // columns' records despite the shared engine run.
        EXPECT_EQ(response.records.size(),
                  static_cast<size_t>(sizes[index]));
    }

    server.stop();
    const auto stats = server.stats();
    EXPECT_EQ(stats.batches, 1u) << "requests did not coalesce";
    EXPECT_EQ(stats.served, 4u);
    EXPECT_EQ(stats.columns, total);
}

TEST(ServeServer, CoalescedResponsesMatchSoloResponses)
{
    // The same requests served one-at-a-time (no pause, sequential
    // round trips) and coalesced (paused, batched) must produce
    // byte-identical record sets — coalescing is a scheduling
    // optimization, never a semantic one.
    std::vector<std::vector<uint8_t>> solo;
    {
        serve::ServerConfig config;
        config.unix_path = tempPath("serve_solo.sock");
        serve::Server server(config);
        auto client = serve::Client::connectUnix(config.unix_path);
        for (uint64_t id = 300; id < 303; ++id) {
            const auto response =
                client.roundTrip(makeRequest(id, 5));
            ASSERT_EQ(response.status, serve::RequestStatus::Ok);
            solo.push_back(serve::encodeResponseBody(response));
        }
    }

    serve::ServerConfig config;
    config.unix_path = tempPath("serve_merged.sock");
    serve::Server server(config);
    server.pause();
    auto client = serve::Client::connectUnix(config.unix_path);
    for (uint64_t id = 300; id < 303; ++id)
        client.send(makeRequest(id, 5));
    ASSERT_TRUE(waitFor([&] {
        return server.stats().admitted == 3 &&
               server.queueDepth() == 3;
    }));
    server.resume();
    for (int i = 0; i < 3; ++i) {
        const auto response = client.receive();
        ASSERT_EQ(response.status, serve::RequestStatus::Ok);
        EXPECT_EQ(serve::encodeResponseBody(response),
                  solo[response.id - 300]);
    }
    server.stop();
    EXPECT_EQ(server.stats().batches, 1u);
}

TEST(ServeServer, FullQueueRejectsInsteadOfHanging)
{
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_reject.sock");
    config.queue_capacity = 2;
    serve::Server server(config);
    server.pause();

    auto client = serve::Client::connectUnix(config.unix_path);
    client.send(makeRequest(401, 1)); // fills the queue...
    client.send(makeRequest(402, 1)); // ...to capacity
    ASSERT_TRUE(waitFor([&] {
        return server.stats().admitted == 2 &&
               server.queueDepth() == 2;
    }));
    client.send(makeRequest(403, 1)); // over capacity: rejected now

    // The rejection overtakes the queued work — it is the first
    // response on the wire, delivered while the scheduler is paused.
    const auto rejected = client.receive();
    EXPECT_EQ(rejected.id, 403u);
    EXPECT_EQ(rejected.status, serve::RequestStatus::Rejected);
    EXPECT_NE(rejected.message.find("queue full"), std::string::npos);

    server.resume();
    for (int i = 0; i < 2; ++i) {
        const auto response = client.receive();
        EXPECT_EQ(response.status, serve::RequestStatus::Ok);
        EXPECT_GE(response.id, 401u);
        EXPECT_LE(response.id, 402u);
    }
    server.stop();
    EXPECT_EQ(server.stats().rejected, 1u);
    EXPECT_EQ(server.stats().served, 2u);
}

TEST(ServeServer, ExpiredDeadlinesAreSkippedAndReported)
{
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_deadline.sock");
    serve::Server server(config);
    server.pause();

    auto client = serve::Client::connectUnix(config.unix_path);
    client.send(makeRequest(501, 2)); // no deadline: waits happily
    serve::ServeRequest hurried = makeRequest(502, 2);
    hurried.deadline_ms = 20;
    client.send(hurried);
    ASSERT_TRUE(waitFor([&] {
        return server.stats().admitted == 2 &&
               server.queueDepth() == 2;
    }));
    std::this_thread::sleep_for(60ms); // let the deadline lapse
    server.resume();

    bool saw_ok = false;
    bool saw_expired = false;
    for (int i = 0; i < 2; ++i) {
        const auto response = client.receive();
        if (response.id == 501) {
            EXPECT_EQ(response.status, serve::RequestStatus::Ok);
            saw_ok = true;
        } else {
            EXPECT_EQ(response.id, 502u);
            EXPECT_EQ(response.status, serve::RequestStatus::Expired);
            EXPECT_NE(response.message.find("expired"),
                      std::string::npos);
            EXPECT_TRUE(response.records.empty());
            saw_expired = true;
        }
    }
    EXPECT_TRUE(saw_ok);
    EXPECT_TRUE(saw_expired);
    server.stop();
    EXPECT_EQ(server.stats().expired, 1u);
    EXPECT_EQ(server.stats().served, 1u);
}

// ------------------------------------- daemon vs offline identity

/**
 * The plan-as-RPC acceptance criterion: for every registered format,
 * a result shard written from a daemon response must be byte-
 * identical to the offline CLI evaluating the same shard with the
 * same policy — fixed, screened, and adaptive.
 */
TEST(ServeIdentity, DaemonMatchesOfflineForEveryFormatAndPolicy)
{
    // One small Columns shard shared by every comparison.
    const std::string shard = tempPath("serve_identity.shard");
    io::writeColumnShard(shard, makeColumns(24, 9));

    serve::ServerConfig config;
    config.unix_path = tempPath("serve_identity.sock");
    serve::Server server(config);

    const auto ids = engine::FormatRegistry::instance().ids();
    ASSERT_FALSE(ids.empty());
    for (const std::string &id : ids) {
        const std::string offline = tempPath("off_" + id + ".shard");
        const std::string daemon = tempPath("dmn_" + id + ".shard");

        // Fixed policy.
        ASSERT_EQ(runCli({"eval", "--format", id.c_str(), "-o",
                          offline.c_str(), shard.c_str()}),
                  0)
            << id;
        ASSERT_EQ(runCli({"request", "--socket",
                          config.unix_path.c_str(), "--format",
                          id.c_str(), "-o", daemon.c_str(),
                          shard.c_str()}),
                  0)
            << id;
        EXPECT_EQ(readFileBytes(offline), readFileBytes(daemon))
            << "fixed " << id;

        // Screened policy.
        ASSERT_EQ(runCli({"screen", "--format", id.c_str(), "-o",
                          offline.c_str(), shard.c_str()}),
                  0)
            << id;
        ASSERT_EQ(runCli({"request", "--socket",
                          config.unix_path.c_str(), "--format",
                          id.c_str(), "--screen", "-o",
                          daemon.c_str(), shard.c_str()}),
                  0)
            << id;
        EXPECT_EQ(readFileBytes(offline), readFileBytes(daemon))
            << "screened " << id;

        // Adaptive policy, this format as the first ladder tier.
        const std::string ladder = id + ",scaled_dd";
        ASSERT_EQ(runCli({"eval", "--adaptive", "--ladder",
                          ladder.c_str(), "-o", offline.c_str(),
                          shard.c_str()}),
                  0)
            << id;
        ASSERT_EQ(runCli({"request", "--socket",
                          config.unix_path.c_str(), "--adaptive",
                          "--ladder", ladder.c_str(), "-o",
                          daemon.c_str(), shard.c_str()}),
                  0)
            << id;
        EXPECT_EQ(readFileBytes(offline), readFileBytes(daemon))
            << "adaptive " << id;
    }
}

/**
 * The plan, not the daemon's environment, decides the bits: a daemon
 * running with PSTAT_COMPENSATED=1 (and PSTAT_LADDER set) answers a
 * request built in a clean environment with the bytes of the offline
 * run in a clean environment. The client and the offline run are
 * their own processes, as from a shell; the daemon is this one.
 */
TEST(ServeIdentity, DaemonIgnoresTheBitMovingKnobs)
{
    const std::string shard = tempPath("serve_knobs.shard");
    io::writeColumnShard(shard, makeColumns(60, 17));

    const test::ScopedEnv knobs({{"PSTAT_COMPENSATED", "1"},
                                 {"PSTAT_LADDER", "log,scaled_dd"}});
    serve::ServerConfig config;
    config.unix_path = tempPath("serve_knobs.sock");
    serve::Server server(config);

    for (const std::vector<const char *> &policy :
         {std::vector<const char *>{"--format", "binary32"},
          std::vector<const char *>{"--adaptive", "--tol", "-30"}}) {
        SCOPED_TRACE(policy.front());
        const std::string offline = tempPath("serve_knobs_off.shard");
        const std::string daemon = tempPath("serve_knobs_dmn.shard");
        std::vector<const char *> eval{"eval"};
        eval.insert(eval.end(), policy.begin(), policy.end());
        eval.insert(eval.end(), {"-o", offline.c_str(), shard.c_str()});
        ASSERT_EQ(test::runCliInChild(eval, test::cleanEnv()), 0);

        std::vector<const char *> request{"request", "--socket",
                                          config.unix_path.c_str()};
        request.insert(request.end(), policy.begin(), policy.end());
        request.insert(request.end(),
                       {"-o", daemon.c_str(), shard.c_str()});
        ASSERT_EQ(test::runCliInChild(request, test::cleanEnv()), 0);
        EXPECT_EQ(readFileBytes(offline), readFileBytes(daemon));
    }
}

} // namespace
