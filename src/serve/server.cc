#include "serve/server.hh"

#include <cstring>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "engine/eval_engine.hh"
#include "serve/routing_sink.hh"

namespace pstat::serve
{

namespace
{

/** The correlation id a malformed-but-CRC-valid body still carries
 *  in its first 8 bytes (0 when even those are missing), so the
 *  typed Error response can name the request it answers. */
uint64_t
peekRequestId(std::span<const uint8_t> body)
{
    if (body.size() < sizeof(uint64_t))
        return 0;
    uint64_t id = 0;
    std::memcpy(&id, body.data(), sizeof(id));
    return id;
}

/** Close an fd, ignoring errors (shutdown paths). */
void
closeQuiet(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

} // namespace

Server::Connection::~Connection()
{
    closeQuiet(fd);
}

Server::Server(ServerConfig config)
    : config_(std::move(config)), queue_(config_.queue_capacity)
{
    if (config_.unix_path.empty() && config_.tcp_port < 0)
        throw FrameError("server needs a unix path or a tcp port");

    if (!config_.unix_path.empty()) {
        unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unix_fd_ < 0)
            throw FrameError(std::string("socket: ") +
                             std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
            closeQuiet(unix_fd_);
            throw FrameError("unix socket path too long: " +
                             config_.unix_path);
        }
        std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(config_.unix_path.c_str());
        if (::bind(unix_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0 ||
            ::listen(unix_fd_, 64) < 0) {
            const std::string why = std::strerror(errno);
            closeQuiet(unix_fd_);
            throw FrameError("cannot listen on " + config_.unix_path +
                             ": " + why);
        }
    }

    if (config_.tcp_port >= 0) {
        tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcp_fd_ < 0) {
            closeQuiet(unix_fd_);
            throw FrameError(std::string("socket: ") +
                             std::strerror(errno));
        }
        const int one = 1;
        ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<uint16_t>(config_.tcp_port));
        if (::bind(tcp_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0 ||
            ::listen(tcp_fd_, 64) < 0) {
            const std::string why = std::strerror(errno);
            closeQuiet(unix_fd_);
            closeQuiet(tcp_fd_);
            throw FrameError("cannot listen on tcp port " +
                             std::to_string(config_.tcp_port) + ": " +
                             why);
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ::getsockname(tcp_fd_, reinterpret_cast<sockaddr *>(&bound),
                      &len);
        tcp_bound_port_ = ntohs(bound.sin_port);
    }

    scheduler_ = std::thread([this] { schedulerLoop(); });
    if (unix_fd_ >= 0)
        acceptors_.emplace_back(
            [this] { acceptLoop(unix_fd_, false); });
    if (tcp_fd_ >= 0)
        acceptors_.emplace_back([this] { acceptLoop(tcp_fd_, true); });
}

Server::~Server()
{
    stop();
}

void
Server::stop()
{
    if (stopping_.exchange(true))
        return;

    // Wake the listeners: a shutdown on a listening socket makes the
    // blocked accept() return, and stopping_ tells it why.
    if (unix_fd_ >= 0)
        ::shutdown(unix_fd_, SHUT_RDWR);
    if (tcp_fd_ >= 0)
        ::shutdown(tcp_fd_, SHUT_RDWR);
    for (std::thread &acceptor : acceptors_)
        acceptor.join();
    closeQuiet(unix_fd_);
    closeQuiet(tcp_fd_);
    unix_fd_ = tcp_fd_ = -1;
    if (!config_.unix_path.empty())
        ::unlink(config_.unix_path.c_str());

    // Half-close every connection's read side: readers see EOF and
    // exit, but the write side stays open, so responses to requests
    // already in the queue still reach their clients — the "drain,
    // then close" contract.
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (const std::weak_ptr<Connection> &weak : connections_)
            if (const auto conn = weak.lock())
                ::shutdown(conn->fd, SHUT_RD);
    }
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        readers.swap(readers_);
    }
    for (std::thread &reader : readers)
        reader.join();

    // No producer is left; close the queue so the scheduler drains
    // what was admitted and exits. A paused scheduler is released
    // first — shutdown always drains.
    resume();
    queue_.close();
    scheduler_.join();

    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.clear();
}

void
Server::pause()
{
    queue_.setPopGate(true);
}

void
Server::resume()
{
    queue_.setPopGate(false);
}

ServerStats
Server::stats() const
{
    ServerStats out;
    out.admitted = admitted_.load();
    out.served = served_.load();
    out.rejected = rejected_.load();
    out.expired = expired_.load();
    out.errors = errors_.load();
    out.batches = batches_.load();
    out.columns = columns_.load();
    return out;
}

void
Server::acceptLoop(int listen_fd, bool tcp)
{
    while (true) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down (or died); stop accepting
        }
        if (stopping_.load()) {
            closeQuiet(fd);
            return;
        }
        if (tcp) {
            // Every write is a whole frame or a whole round already;
            // holding one back for an ACK the client delays (Nagle)
            // would only stall it.
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
        }
        auto conn = std::make_shared<Connection>(fd);
        std::lock_guard<std::mutex> lock(conn_mutex_);
        connections_.push_back(conn);
        readers_.emplace_back(
            [this, conn = std::move(conn)]() mutable {
                readerLoop(std::move(conn));
            });
    }
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    FrameReader reader(conn->fd);
    while (true) {
        std::optional<Frame> frame;
        try {
            frame = reader.next(config_.max_frame_bytes);
        } catch (const FrameError &error) {
            // Framing is broken (bad magic, CRC, truncation): the
            // byte stream cannot be resynchronized, so answer with
            // an unaddressed typed error and drop the connection.
            // The server itself carries on.
            ++errors_;
            ServeResponse response;
            response.status = RequestStatus::Error;
            response.message = error.what();
            respond(conn, response);
            ::shutdown(conn->fd, SHUT_RDWR);
            return;
        }
        if (!frame)
            return; // clean EOF: the client is done

        ServeRequest request;
        try {
            if (frame->type != FrameType::Request)
                throw FrameError(
                    "unexpected response frame on the server side");
            request = decodeRequestBody(frame->body);
            if (request.plan.kernel != engine::PlanKernel::PValue ||
                request.plan.source != engine::PlanSource::Memory)
                throw FrameError(
                    "serve supports pvalue x memory plans only (the "
                    "request carries its columns inline)");
        } catch (const FrameError &error) {
            // The frame itself was valid (CRC passed), so the stream
            // is still in sync: answer the specific request with a
            // typed error and keep the connection alive.
            ++errors_;
            ServeResponse response;
            response.id = peekRequestId(frame->body);
            response.status = RequestStatus::Error;
            response.message = error.what();
            respond(conn, response);
            continue;
        }

        Pending pending;
        pending.conn = conn;
        const uint64_t id = request.id;
        if (request.deadline_ms > 0) {
            pending.has_deadline = true;
            pending.deadline =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(request.deadline_ms);
        }
        pending.request = std::move(request);
        if (queue_.tryPush(std::move(pending))) {
            ++admitted_;
        } else {
            ++rejected_;
            ServeResponse response;
            response.id = id;
            response.status = RequestStatus::Rejected;
            response.message =
                "admission queue full (" +
                std::to_string(queue_.capacity()) +
                " requests); retry later";
            respond(conn, response);
        }
    }
}

void
Server::schedulerLoop()
{
    engine::EvalEngine engine(config_.threads, config_.grain);
    while (true) {
        // The pause gate lives inside the queue's pop() predicate
        // (BoundedQueue::setPopGate), under the queue's own mutex —
        // so a paused scheduler provably holds no request and
        // queueDepth() reads exactly what was admitted. That single-
        // mutex property is what makes the pause/resume test
        // scenarios (coalescing, rejection, expiry) race-free.
        std::optional<Pending> first = queue_.pop();
        if (!first)
            return; // closed and drained: shutdown complete

        if (config_.stall_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(config_.stall_ms));

        // Greedy coalescing sweep: whatever else has already arrived
        // joins this round, up to the bound.
        std::vector<Pending> round;
        round.push_back(std::move(*first));
        while (round.size() < config_.coalesce_max) {
            std::optional<Pending> more = queue_.tryPop();
            if (!more)
                break;
            round.push_back(std::move(*more));
        }

        // Partition the round by plan identity (the deterministic
        // encodePlan bytes): only byte-identical plans may share an
        // Executor run.
        std::vector<std::vector<uint8_t>> keys;
        std::vector<std::vector<Pending>> groups;
        for (Pending &pending : round) {
            const std::vector<uint8_t> key =
                engine::encodePlan(pending.request.plan);
            size_t slot = keys.size();
            for (size_t i = 0; i < keys.size(); ++i)
                if (keys[i] == key) {
                    slot = i;
                    break;
                }
            if (slot == keys.size()) {
                keys.push_back(key);
                groups.emplace_back();
            }
            groups[slot].push_back(std::move(pending));
        }

        std::vector<Outgoing> out;
        for (std::vector<Pending> &group : groups) {
            // Expired requests are skipped, not run: answer them
            // typed and dispatch only the live remainder.
            const auto now = std::chrono::steady_clock::now();
            std::vector<Pending> live;
            for (Pending &pending : group) {
                if (pending.has_deadline && now >= pending.deadline) {
                    ++expired_;
                    ServeResponse response;
                    response.id = pending.request.id;
                    response.status = RequestStatus::Expired;
                    response.message =
                        "deadline of " +
                        std::to_string(pending.request.deadline_ms) +
                        " ms expired before dispatch";
                    out.push_back({pending.conn,
                                   encodeResponseBody(response)});
                    continue;
                }
                live.push_back(std::move(pending));
            }
            if (!live.empty())
                dispatchGroup(engine, live, out);
        }
        sendRound(out);
    }
}

void
Server::dispatchGroup(engine::EvalEngine &engine,
                      std::vector<Pending> &group,
                      std::vector<Outgoing> &out)
{
    // One run over the concatenated columns; RouteSlices remember
    // which span of the flat record order belongs to which request.
    std::vector<pbd::Column> columns;
    std::vector<RouteSlice> routes;
    routes.reserve(group.size());
    for (const Pending &pending : group) {
        routes.push_back(
            {columns.size(), pending.request.columns.size()});
        columns.insert(columns.end(),
                       pending.request.columns.begin(),
                       pending.request.columns.end());
    }

    RoutingSink routing;
    engine::PlanInputs inputs;
    inputs.columns = columns;
    inputs.sink = &routing;
    const engine::EvalPlan &plan = group.front().request.plan;
    try {
        engine.run(plan, inputs);
        if (routing.records().size() != columns.size())
            throw std::logic_error(
                "demultiplex mismatch: " +
                std::to_string(routing.records().size()) +
                " records for " + std::to_string(columns.size()) +
                " columns");
    } catch (const std::exception &error) {
        for (const Pending &pending : group) {
            ++errors_;
            ServeResponse response;
            response.id = pending.request.id;
            response.status = RequestStatus::Error;
            response.message = error.what();
            out.push_back({pending.conn, encodeResponseBody(response)});
        }
        return;
    }

    ++batches_;
    columns_ += columns.size();
    for (size_t i = 0; i < group.size(); ++i) {
        ++served_;
        ServeResponse response;
        response.id = group[i].request.id;
        response.status = RequestStatus::Ok;
        response.kernel = static_cast<uint32_t>(plan.kernel);
        response.format_id = engine::resultFormatLabel(plan);
        response.records = routing.slice(routes[i]);
        out.push_back({group[i].conn, encodeResponseBody(response)});
    }
}

void
Server::sendRound(const std::vector<Outgoing> &out)
{
    // Each connection's share of the round leaves in one gathered
    // write, in the order the round produced it.
    std::vector<bool> sent(out.size(), false);
    std::vector<FrameView> frames;
    for (size_t i = 0; i < out.size(); ++i) {
        if (sent[i])
            continue;
        Connection &conn = *out[i].conn;
        frames.clear();
        for (size_t j = i; j < out.size(); ++j)
            if (!sent[j] && out[j].conn.get() == &conn) {
                frames.push_back({FrameType::Response, out[j].body});
                sent[j] = true;
            }
        std::lock_guard<std::mutex> lock(conn.write_mutex);
        try {
            writeFrames(conn.fd, frames);
        } catch (const FrameError &) {
            // The client went away before its answers, as in
            // respond().
        }
    }
}

void
Server::respond(const std::shared_ptr<Connection> &conn,
                const ServeResponse &response)
{
    const std::vector<uint8_t> body = encodeResponseBody(response);
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    try {
        writeFrame(conn->fd, FrameType::Response, body);
    } catch (const FrameError &) {
        // The client went away before its answer; nothing to do —
        // the reader loop (or stop()) retires the connection.
    }
}

} // namespace pstat::serve
