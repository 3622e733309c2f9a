// runtime/net/poller.hpp — the runtime's socket layer, and the only code in
// it that opens a TCP socket.  Both socket-driven loops (the J2NE admission
// front-end in net/server.cpp, the HTTP ops plane in ops/ops_server.cpp) and
// both clients (net/client.cpp, ops/http_client.cpp) go through it:
//
//   poller       level-triggered epoll, so a partially drained socket
//                re-fires.  Each registered fd carries a caller id that comes
//                back in the ready_event — loops key their connection maps on
//                it instead of the fd, which sidesteps fd-recycling races on
//                close paths.  Its one wake (an eventfd) is how another
//                thread interrupts the loop: a J2NE shard's workers post
//                completions with it, and both loops' stop() uses it.
//   listener     bind, listen, the bound port, and accept with shedding at fd
//                exhaustion; every J2NE shard and the ops plane own one.
//   connect_tcp  the blocking client side.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace runtime::net {

/// Throws std::system_error carrying the current errno.
[[noreturn]] void throw_errno(const char* what);

/// Report a failed best-effort setsockopt (the socket still works without it).
void log_sockopt_failure(const char* what);

/// One readiness event delivered by a poller.
struct ready_event {
    std::uint64_t id = 0;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
};

/// Level-triggered epoll instance with one wake.
class poller {
public:
    /// The id of the event a wake() produces; no registered fd may use it.
    static constexpr std::uint64_t k_wake_id = ~std::uint64_t{0};

    poller();  ///< throws std::system_error and leaves no fd open
    ~poller();
    poller(const poller&) = delete;
    poller& operator=(const poller&) = delete;

    void add(int fd, std::uint64_t id, bool want_write);
    void update(int fd, std::uint64_t id, bool want_write);
    void remove(int fd);
    /// Append ready events to `out`; timeout_ms < 0 blocks indefinitely.
    /// Pending wakes come back as one readable event with id k_wake_id.
    void wait(std::vector<ready_event>& out, int timeout_ms);
    /// Make the wait() in progress, or the next one, return.  Safe from any
    /// thread while the poller lives; never blocks; wakes coalesce.
    void wake() noexcept;

private:
    void control(int op, int fd, std::uint64_t id, bool want_write, const char* what);

    int fd_ = -1;
    int wake_fd_ = -1;  ///< non-blocking eventfd, registered as k_wake_id
};

/// A bound, listening, non-blocking TCP socket, closed on destruction.
class listener {
public:
    /// Bind `bind_address` (numeric IPv4) at `port` (0 = ephemeral) and
    /// listen with a backlog of 64.  With `reuseport` the socket carries
    /// SO_REUSEPORT, so several listeners share one port and the kernel
    /// hashes connections across them; SO_REUSEADDR is best-effort.  Throws
    /// std::system_error and leaves no fd open on failure.
    listener(const std::string& bind_address, std::uint16_t port, bool reuseport);
    ~listener();
    listener(const listener&) = delete;
    listener& operator=(const listener&) = delete;

    [[nodiscard]] int fd() const noexcept { return fd_; }
    /// The port actually bound (the ephemeral one when constructed with 0).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// The next connection, non-blocking with TCP_NODELAY, or -1 once the
    /// backlog is drained; every failed accept counts into `failed`.  At fd
    /// exhaustion (EMFILE/ENFILE) a queued connection would leave a
    /// level-triggered poller re-firing in a hot loop, so the emergency
    /// reserve fd (an idle fd opened up front) is released, the connection
    /// accepted and closed at once — the client sees a clean close instead of
    /// hanging in the backlog — and the reserve re-armed.  When not even that
    /// accept succeeds (system-wide exhaustion, reserve already gone), a
    /// bounded backoff beats a hot spin and -1 is returned.
    int accept(std::atomic<std::uint64_t>& failed);

private:
    int fd_ = -1;
    int reserve_fd_ = -1;
    std::uint16_t port_ = 0;
};

/// A blocking TCP connection to `host` (numeric IPv4) at `port`, with
/// TCP_NODELAY.  Throws std::runtime_error for a host that is not a numeric
/// IPv4 address and std::system_error when the socket or the connect fails.
[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port);

}  // namespace runtime::net
