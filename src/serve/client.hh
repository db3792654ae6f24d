/**
 * @file
 * Client side of the PSTSRV1 protocol: connect, send, receive.
 *
 * A thin, move-only wrapper over one connected socket. send() and
 * receive() are deliberately separate (not just roundTrip), so a
 * caller can pipeline several requests on one connection and match
 * the responses by correlation id — which is also exactly what the
 * backpressure tests need: responses to rejected requests overtake
 * the in-flight ones, so arrival order is not request order. One
 * thread may send() while another receive()s; receive() reads
 * through the connection's one FrameReader, so responses a read
 * brought in ahead of their turn wait in its buffer.
 */

#ifndef PSTAT_SERVE_CLIENT_HH
#define PSTAT_SERVE_CLIENT_HH

#include <cstdint>
#include <string>

#include "serve/frame.hh"

namespace pstat::serve
{

/** One connected protocol endpoint (see the file header). */
class Client
{
  public:
    /** Connect to a Unix-socket server; throws FrameError. */
    static Client connectUnix(const std::string &path);
    /** Connect to a TCP server; throws FrameError. */
    static Client connectTcp(const std::string &host, uint16_t port);

    /** Closes the connection. */
    ~Client();

    Client(Client &&other) noexcept;            //!< move-only
    Client &operator=(Client &&other) noexcept; //!< move-only
    Client(const Client &) = delete;            //!< not copyable
    Client &operator=(const Client &) = delete; //!< not copyable

    /** Send one request frame; throws FrameError on I/O failure. */
    void send(const ServeRequest &request);

    /**
     * Receive one response frame. Throws FrameError when the server
     * closes the connection instead of answering, or on any protocol
     * violation (wrong frame type, corruption).
     */
    ServeResponse
    receive(uint64_t max_body = frame_default_max_body);

    /** send() then receive(): the one-shot request helper. */
    ServeResponse roundTrip(const ServeRequest &request);

    /** The connected socket (tests inject faults through it). */
    int fd() const { return fd_; }

  private:
    explicit Client(int fd) : fd_(fd), reader_(fd) {}

    int fd_ = -1;
    FrameReader reader_; //!< the one reader of fd_ (it reads ahead)
};

} // namespace pstat::serve

#endif // PSTAT_SERVE_CLIENT_HH
