/**
 * @file
 * The `pstat serve` daemon: a coalescing, deadline-aware, admission-
 * controlled evaluation server over the PSTSRV1 frame protocol.
 *
 * The ROADMAP's serving rung wants the EvalPlan control surface
 * (engine/plan.hh) to be callable from outside the process without
 * giving up the engine's batching economics. The server here is the
 * composition: listener threads accept connections on a Unix socket
 * (and optionally TCP loopback), per-connection reader threads decode
 * request frames and submit them to one central BoundedQueue, and a
 * single scheduler thread drains that queue into coalesced
 * EvalEngine::run calls.
 *
 * Three service properties fall out of the queue discipline:
 *
 *  - **Coalescing.** The scheduler blocks for one request, then
 *    greedily sweeps (tryPop) whatever else has arrived, up to
 *    coalesce_max. Requests with byte-identical encoded plans merge
 *    into one Executor run over their concatenated columns; a
 *    RoutingSink (serve/routing_sink.hh) demultiplexes the flat
 *    record vector back to per-request responses. A round's
 *    responses (Ok, Expired, Error) leave in one gathered write per
 *    connection, in the order the round produced them. Small
 *    concurrent requests therefore pay one scheduling round and one
 *    write per connection, not N of each.
 *  - **Backpressure.** Admission is BoundedQueue::tryPush: a full
 *    queue rejects immediately with a typed Rejected response
 *    instead of stalling the connection — overload is observable,
 *    never a hang.
 *  - **Deadlines.** Each request's deadline_ms budget starts at
 *    receipt; work still queued when it lapses is skipped at
 *    dispatch time and answered with a typed Expired response, so a
 *    latency-bounded client never receives work it stopped waiting
 *    for.
 *
 * stop() is the graceful-drain shutdown: listeners close, readers
 *    see EOF, and the scheduler finishes every already-admitted
 *    request (responses still delivered) before the thread joins.
 */

#ifndef PSTAT_SERVE_SERVER_HH
#define PSTAT_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/shard_stream.hh"
#include "serve/frame.hh"

namespace pstat::engine
{
class EvalEngine;
}

namespace pstat::serve
{

/** Configuration of one server instance. */
struct ServerConfig
{
    /** Unix socket path to listen on; empty disables the listener. */
    std::string unix_path;
    /**
     * TCP loopback port to listen on: -1 disables the listener, 0
     * binds an ephemeral port (read it back via Server::tcpPort()).
     */
    int tcp_port = -1;
    /** Admission-queue bound; requests beyond it are Rejected. */
    size_t queue_capacity = 16;
    /** Most requests one scheduling round may coalesce. */
    size_t coalesce_max = 8;
    /** Per-frame body cap handed to FrameReader::next. */
    uint64_t max_frame_bytes = frame_default_max_body;
    /** Engine lanes (0 inherits PSTAT_THREADS / hardware). */
    unsigned threads = 0;
    /** Engine scheduling grain (0 inherits PSTAT_GRAIN / auto). */
    size_t grain = 0;
    /**
     * Artificial delay (milliseconds) before each dispatch round —
     * a test/CI knob that widens the scheduling window so queue-full
     * rejection and deadline expiry are exercised deterministically
     * from the CLI. 0 (the default) disables it.
     */
    uint64_t stall_ms = 0;
};

/** Monotonic service counters (snapshot via Server::stats()). */
struct ServerStats
{
    uint64_t admitted = 0; //!< requests accepted into the queue
    uint64_t served = 0;   //!< requests answered Ok
    uint64_t rejected = 0; //!< requests refused at admission
    uint64_t expired = 0;  //!< requests whose deadline lapsed queued
    uint64_t errors = 0;   //!< malformed / unsupported requests
    uint64_t batches = 0;  //!< coalesced EvalEngine runs dispatched
    uint64_t columns = 0;  //!< columns evaluated across all batches
};

/** The daemon described in the file header. RAII: the constructor
 *  binds, listens, and starts every thread; stop() (idempotent, also
 *  run by the destructor) drains and joins. */
class Server
{
  public:
    /** Binds and starts serving; throws FrameError when no listener
     *  could be established. */
    explicit Server(ServerConfig config);
    /** stop(), then join everything. */
    ~Server();

    Server(const Server &) = delete;            //!< not copyable
    Server &operator=(const Server &) = delete; //!< not copyable

    /**
     * Graceful shutdown: close the listeners, half-close every
     * connection's read side (in-flight responses still go out),
     * drain the admission queue through the scheduler, then join
     * every thread. Safe to call more than once.
     */
    void stop();

    /** The bound TCP port (0 when the TCP listener is disabled). */
    uint16_t tcpPort() const { return tcp_bound_port_; }

    /**
     * @name Scheduler gate (test determinism)
     * pause() gates the admission queue's pop() (see
     * BoundedQueue::setPopGate): the gate shares the queue's own
     * mutex, so a paused scheduler provably holds no request —
     * admitted requests accumulate in the queue, queueDepth() reads
     * exactly how many, and resume() releases the next dispatch
     * round over all of them. This is how tests pin down coalescing
     * ("K requests queued while paused merge into one batch"),
     * queue-full rejection, and deadline expiry without racing the
     * dispatcher. A round already in flight when pause() lands
     * completes; only the next pop is held.
     */
    ///@{
    void pause();  //!< hold the scheduler before its next round
    void resume(); //!< release a paused scheduler
    ///@}

    /** Snapshot of the service counters. */
    ServerStats stats() const;

    /** Requests sitting in the admission queue right now. With the
     *  scheduler paused this is exact (nothing pops), which is how
     *  tests sequence "request admitted" against "request popped"
     *  without sleeping. */
    size_t queueDepth() const { return queue_.depth(); }

  private:
    /** One accepted connection: the fd plus a write lock so reader
     *  (rejections, errors) and scheduler (results) never interleave
     *  frames. Closes the fd when the last holder lets go. */
    struct Connection
    {
        explicit Connection(int fd) : fd(fd) {}
        ~Connection();
        int fd;
        std::mutex write_mutex;
    };

    /** One admitted request, waiting for the scheduler. */
    struct Pending
    {
        std::shared_ptr<Connection> conn;
        ServeRequest request;
        /** Dispatch deadline (receipt + deadline_ms); unset when the
         *  request carries no budget. */
        std::chrono::steady_clock::time_point deadline{};
        bool has_deadline = false;
    };

    /** One encoded response of a dispatch round, held until the
     *  round's writes. */
    struct Outgoing
    {
        std::shared_ptr<Connection> conn;
        std::vector<uint8_t> body;
    };

    void acceptLoop(int listen_fd, bool tcp);
    void readerLoop(std::shared_ptr<Connection> conn);
    void schedulerLoop();
    void dispatchGroup(engine::EvalEngine &engine,
                       std::vector<Pending> &group,
                       std::vector<Outgoing> &out);
    void sendRound(const std::vector<Outgoing> &out);
    void respond(const std::shared_ptr<Connection> &conn,
                 const ServeResponse &response);

    ServerConfig config_;
    io::BoundedQueue<Pending> queue_;

    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    uint16_t tcp_bound_port_ = 0;

    std::atomic<bool> stopping_{false};

    std::mutex conn_mutex_;
    std::vector<std::weak_ptr<Connection>> connections_;
    std::vector<std::thread> readers_;

    std::vector<std::thread> acceptors_;
    std::thread scheduler_;

    std::atomic<uint64_t> admitted_{0};
    std::atomic<uint64_t> served_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> expired_{0};
    std::atomic<uint64_t> errors_{0};
    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> columns_{0};
};

} // namespace pstat::serve

#endif // PSTAT_SERVE_SERVER_HH
