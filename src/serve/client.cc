#include "serve/client.hh"

#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pstat::serve
{

Client
Client::connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw FrameError(std::string("socket: ") +
                         std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        throw FrameError("unix socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw FrameError("cannot connect to " + path + ": " + why);
    }
    return Client(fd);
}

Client
Client::connectTcp(const std::string &host, uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw FrameError(std::string("socket: ") +
                         std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw FrameError("not an IPv4 address: " + host);
    }
    // Requests leave as whole frames; waiting on the server's
    // delayed ACK before sending the next one (Nagle) only stalls a
    // pipelined burst.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw FrameError("cannot connect to " + host + ":" +
                         std::to_string(port) + ": " + why);
    }
    return Client(fd);
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Client::Client(Client &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      reader_(std::move(other.reader_))
{
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        reader_ = std::move(other.reader_);
    }
    return *this;
}

void
Client::send(const ServeRequest &request)
{
    writeFrame(fd_, FrameType::Request, encodeRequestBody(request));
}

ServeResponse
Client::receive(uint64_t max_body)
{
    const std::optional<Frame> frame = reader_.next(max_body);
    if (!frame)
        throw FrameError(
            "server closed the connection before responding");
    if (frame->type != FrameType::Response)
        throw FrameError("unexpected request frame from the server");
    return decodeResponseBody(frame->body);
}

ServeResponse
Client::roundTrip(const ServeRequest &request)
{
    send(request);
    return receive();
}

} // namespace pstat::serve
