/**
 * @file
 * Plain-TCP transport for the search service: newline-delimited wire
 * frames over IPv4 sockets, loopback-oriented.
 *
 * `TcpServer` owns a listener plus one reader thread per accepted
 * connection; every request line read is handed to
 * `SearchService::submit` with a write-mutexed socket sink (inline
 * replies from the reader thread and streamed frames from service
 * workers share the connection). A failed socket write — the peer
 * closed or vanished — makes the sink return false, which the
 * service turns into cooperative cancellation, same as the bus
 * transport.
 *
 * Both ends send each line and its '\n' in one write. Written
 * separately, the one-byte delimiter waits behind the line: Nagle's
 * algorithm (RFC 896) holds a small segment while earlier data is
 * unacknowledged, and the peer's delayed ACK (RFC 1122; at least
 * 40 ms on Linux) releases it, which stalled every round trip.
 * `TCP_NODELAY` is not set yet. It would also stop Nagle from holding
 * a search's later frames behind its first, but the repository
 * benchmark's `service-loopback` `peak_rss_mb` and `setup_s` grow
 * with the repetitions its Python parent keeps, and so with run
 * speed; it waits for that benchmark change (docs/ARCHITECTURE.md).
 *
 * A request line longer than `TcpServer::kMaxLineBytes` gets a
 * `bad_request` error frame with an empty id, and the connection
 * closes; the reader never buffers more than that plus one chunk.
 *
 * `TcpClient` is the matching blocking client: connect, send request
 * lines, read reply frames line by line. Used by the end-to-end
 * test, the smoke bench and the example daemon/client pair.
 */

#ifndef DOSA_SERVICE_TCP_SERVER_HH
#define DOSA_SERVICE_TCP_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/search_service.hh"
#include "util/thread_annotations.hh"

namespace dosa::service {

/** Line-framed TCP front-end over one `SearchService`. */
class TcpServer
{
  public:
    /**
     * @param service Engine the connections feed; must outlive the
     *                server.
     * @param port    Port to bind on 127.0.0.1 (0 = ephemeral; read
     *                the chosen one back with `port()`).
     */
    explicit TcpServer(SearchService &service, uint16_t port = 0);

    /**
     * Longest request line accepted, '\n' excluded. The largest file
     * in workloads/ is under 3 KB.
     */
    static constexpr size_t kMaxLineBytes = size_t(1) << 20;

    /** Stops (idempotently) and joins every thread. */
    ~TcpServer();

    TcpServer(const TcpServer &) = delete;
    TcpServer &operator=(const TcpServer &) = delete;

    /**
     * Bind, listen and start accepting. False plus a diagnostic on
     * any socket failure (port in use, ...).
     */
    bool start(std::string &error);

    /**
     * Stop accepting, shut down every connection (failing their
     * sinks, so in-flight searches cancel within one sample) and
     * join the reader threads. Does not touch the service itself.
     */
    void stop();

    /** Bound port (valid after a successful `start`). */
    uint16_t port() const { return port_; }

  private:
    struct Connection;

    void acceptLoop() EXCLUDES(conns_mutex_);
    void readerLoop(std::shared_ptr<Connection> conn);
    void reapFinished() EXCLUDES(conns_mutex_);

    SearchService &service_;
    uint16_t port_;
    int listen_fd_ = -1;
    std::atomic<bool> running_{false};
    std::thread accept_thread_;
    util::Mutex conns_mutex_;
    /**
     * Connections whose reader is not yet joined. A reader closes its
     * socket as soon as its client leaves; reap (on accept) and stop
     * only join it, outside the lock.
     */
    std::vector<std::shared_ptr<Connection>> conns_
            GUARDED_BY(conns_mutex_);
};

/** Blocking line-framed client for `TcpServer`. */
class TcpClient
{
  public:
    TcpClient() = default;
    ~TcpClient(); ///< closes

    TcpClient(const TcpClient &) = delete;
    TcpClient &operator=(const TcpClient &) = delete;

    /** Connect to `host:port`; false plus diagnostic on failure. */
    bool connect(const std::string &host, uint16_t port,
                 std::string &error);

    /** Send one request line (delimiter added); false on error. */
    bool sendLine(const std::string &line);

    /**
     * Read the next reply line (delimiter stripped), blocking.
     * False on EOF or a socket error.
     */
    bool receiveLine(std::string &line);

    /** Close the connection (idempotent). */
    void close();

    bool connected() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    std::string buffer_; ///< bytes read past the last delimiter
};

} // namespace dosa::service

#endif // DOSA_SERVICE_TCP_SERVER_HH
