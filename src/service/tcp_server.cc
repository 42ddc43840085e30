/**
 * @file
 * TCP transport implementation. POSIX sockets only; every write uses
 * MSG_NOSIGNAL so a vanished peer surfaces as an error return (the
 * cancellation signal), never SIGPIPE.
 */
#include "service/tcp_server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "service/wire.hh"

namespace dosa::service {

namespace {

/**
 * Thread-safe errno formatter: `std::strerror` returns a pointer to
 * an internal buffer that another thread's call may rewrite
 * (concurrency-mt-unsafe), and the reader threads here really do
 * race. Uses the POSIX `strerror_r` into a local buffer instead.
 */
std::string
errnoString(int err)
{
    char buf[256];
    buf[0] = '\0';
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
    // GNU strerror_r returns the message pointer (maybe not buf).
    return std::string(strerror_r(err, buf, sizeof(buf)));
#else
    if (strerror_r(err, buf, sizeof(buf)) != 0)
        std::snprintf(buf, sizeof(buf), "errno %d", err);
    return std::string(buf);
#endif
}

/**
 * Write `line` and its '\n' to `fd` in one `send` (tcp_server.hh says
 * why one), resumed after a partial write; false on any error.
 */
bool
writeLine(int fd, const std::string &line)
{
    const std::string data = line + '\n';
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += size_t(n);
    }
    return true;
}

/**
 * One connection's sink: frames from the reader thread (inline
 * replies) and from service workers (streamed events) serialize on
 * the write mutex so lines never interleave mid-frame.
 */
class SocketSink : public FrameSink
{
  public:
    explicit SocketSink(int fd) : fd_(fd) {}

    bool
    send(const std::string &frame) override
    {
        util::MutexLock lock(mutex_);
        if (closed_)
            return false;
        if (!writeLine(fd_, frame)) {
            closed_ = true;
            return false;
        }
        return true;
    }

    /** Fail all future sends (the fd is owned by the connection). */
    void
    markClosed()
    {
        util::MutexLock lock(mutex_);
        closed_ = true;
    }

  private:
    const int fd_;
    util::Mutex mutex_;
    bool closed_ GUARDED_BY(mutex_) = false;
};

} // namespace

struct TcpServer::Connection
{
    explicit Connection(int socket_fd)
        : fd(socket_fd), sink(std::make_shared<SocketSink>(socket_fd))
    {}

    /** Closed once, by the reader, which alone reads it unlocked. */
    const int fd;
    std::shared_ptr<SocketSink> sink;
    std::thread reader;
    std::atomic<bool> done{false};
    util::Mutex mutex;
    /** False once `fd` is closed: its number may name a new socket. */
    bool open GUARDED_BY(mutex) = true;
};

TcpServer::TcpServer(SearchService &service, uint16_t port)
    : service_(service), port_(port)
{}

TcpServer::~TcpServer()
{
    stop();
}

bool
TcpServer::start(std::string &error)
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        error = std::string("socket: ") + errnoString(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
            sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) < 0) {
        error = std::string("bind: ") + errnoString(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    if (::listen(listen_fd_, 16) < 0) {
        error = std::string("listen: ") + errnoString(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listen_fd_,
                reinterpret_cast<sockaddr *>(&addr), &addr_len) == 0)
        port_ = ntohs(addr.sin_port);

    running_.store(true, std::memory_order_relaxed);
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
TcpServer::acceptLoop()
{
    while (running_.load(std::memory_order_relaxed)) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down (or broken beyond repair)
        }
        if (!running_.load(std::memory_order_relaxed)) {
            ::close(fd);
            return;
        }
        reapFinished();
        auto conn = std::make_shared<Connection>(fd);
        {
            util::MutexLock lock(conns_mutex_);
            conns_.push_back(conn);
        }
        conn->reader =
                std::thread([this, conn] { readerLoop(conn); });
    }
}

void
TcpServer::readerLoop(std::shared_ptr<Connection> conn)
{
    std::string buffer;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF or error: the client is gone
        // Earlier bytes were scanned already: look only at the new ones.
        const size_t scan = buffer.size();
        buffer.append(chunk, size_t(n));
        size_t start = 0;
        for (size_t nl = buffer.find('\n', scan);
                nl != std::string::npos && nl - start <= kMaxLineBytes;
                nl = buffer.find('\n', start)) {
            std::string line = buffer.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                service_.submit(line, conn->sink);
        }
        if (buffer.size() - start > kMaxLineBytes) {
            conn->sink->send(errorFrame("", errc::bad_request,
                    "request line exceeds " +
                            std::to_string(kMaxLineBytes) + " bytes"));
            ::shutdown(conn->fd, SHUT_RDWR);
            break;
        }
        buffer.erase(0, start);
    }
    // Fail the sink first so an in-flight search cancels promptly
    // rather than writing into a dead socket's buffer, and so no
    // frame is written after the close.
    conn->sink->markClosed();
    {
        util::MutexLock lock(conn->mutex);
        ::close(conn->fd);
        conn->open = false;
    }
    conn->done.store(true, std::memory_order_release);
}

void
TcpServer::reapFinished()
{
    std::vector<std::shared_ptr<Connection>> finished;
    {
        util::MutexLock lock(conns_mutex_);
        for (size_t i = 0; i < conns_.size();) {
            if (conns_[i]->done.load(std::memory_order_acquire)) {
                finished.push_back(std::move(conns_[i]));
                conns_.erase(conns_.begin() +
                        std::vector<std::shared_ptr<Connection>>::
                                difference_type(i));
            } else {
                ++i;
            }
        }
    }
    for (auto &conn : finished)
        if (conn->reader.joinable())
            conn->reader.join();
}

void
TcpServer::stop()
{
    if (!running_.exchange(false, std::memory_order_relaxed)) {
        // Never started (or already stopped); release the listener
        // if start() got as far as binding it.
        if (listen_fd_ >= 0 && !accept_thread_.joinable()) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        return;
    }
    if (listen_fd_ >= 0)
        ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable())
        accept_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }

    std::vector<std::shared_ptr<Connection>> conns;
    {
        util::MutexLock lock(conns_mutex_);
        conns.swap(conns_);
    }
    for (auto &conn : conns) {
        conn->sink->markClosed();
        util::MutexLock lock(conn->mutex);
        if (conn->open)
            ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (auto &conn : conns)
        if (conn->reader.joinable())
            conn->reader.join();
}

TcpClient::~TcpClient()
{
    close();
}

bool
TcpClient::connect(const std::string &host, uint16_t port,
                   std::string &error)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = std::string("socket: ") + errnoString(errno);
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        error = "invalid IPv4 address \"" + host + "\"";
        close();
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) < 0) {
        error = std::string("connect: ") + errnoString(errno);
        close();
        return false;
    }
    buffer_.clear();
    return true;
}

bool
TcpClient::sendLine(const std::string &line)
{
    if (fd_ < 0)
        return false;
    return writeLine(fd_, line);
}

bool
TcpClient::receiveLine(std::string &line)
{
    if (fd_ < 0)
        return false;
    for (;;) {
        size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            return true;
        }
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buffer_.append(chunk, size_t(n));
    }
}

void
TcpClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace dosa::service
