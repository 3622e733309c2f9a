// runtime/net/poller.hpp — readiness-notification backend shared by every
// socket-driven loop in the runtime (the J2NE admission front-end in
// net/server.cpp, the HTTP ops plane in ops/ops_server.cpp).
//
// epoll where available, poll(2) otherwise; level-triggered in both cases, so
// a partially drained socket re-fires.  Each registered fd carries a caller
// id that comes back in the ready_event — loops key their connection maps on
// it instead of the fd, which sidesteps fd-recycling races on close paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace runtime::net {

/// Throws std::system_error carrying the current errno.
[[noreturn]] void throw_errno(const char* what);

/// O_NONBLOCK on an open fd; throws std::system_error on failure.
void set_nonblocking(int fd);

/// The next connection from a non-blocking listener, or -1 once the backlog
/// is drained; every failed accept() counts into `failed`.  At fd exhaustion
/// (EMFILE/ENFILE) a queued connection would leave a level-triggered poller
/// re-firing in a hot loop, so the listener's emergency `reserve_fd` (an idle
/// fd opened up front) is released, the connection accepted and closed at
/// once — the client sees a clean close instead of hanging in the backlog —
/// and the reserve re-armed.  When not even that accept succeeds
/// (system-wide exhaustion, reserve already gone), a bounded backoff beats a
/// hot spin and -1 is returned.
int accept_or_shed(int listen_fd, int& reserve_fd, std::atomic<std::uint64_t>& failed);

/// One readiness event delivered by a poller.
struct ready_event {
    std::uint64_t id = 0;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
};

/// Readiness-notification backend: epoll where available, poll(2) otherwise.
class poller {
public:
    virtual ~poller() = default;
    virtual void add(int fd, std::uint64_t id, bool want_write) = 0;
    virtual void update(int fd, std::uint64_t id, bool want_write) = 0;
    virtual void remove(int fd) = 0;
    /// Append ready events to `out`; timeout_ms < 0 blocks indefinitely.
    virtual void wait(std::vector<ready_event>& out, int timeout_ms) = 0;
};

/// Best backend for this platform; `force_poll` selects the poll(2) fallback
/// even where epoll exists (exercised by tests and the `use_poll` configs).
std::unique_ptr<poller> make_poller(bool force_poll);

}  // namespace runtime::net
