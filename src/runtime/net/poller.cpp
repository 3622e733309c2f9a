#include "poller.hpp"

#include <obs/trace.hpp>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

namespace runtime::net {

namespace {

/// The listen(2) backlog of every listener.
constexpr int k_accept_backlog = 64;

/// A numeric IPv4 address, or false.
bool ipv4_address(const std::string& host, std::uint16_t port, sockaddr_in& addr)
{
    addr = sockaddr_in{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

}  // namespace

void throw_errno(const char* what)
{
    throw std::system_error{errno, std::generic_category(), what};
}

void log_sockopt_failure(const char* what)
{
    std::fprintf(stderr, "runtime::net: setsockopt(%s) failed: %s\n", what,
                 std::strerror(errno));
}

// ---- poller -----------------------------------------------------------------

poller::poller() : fd_{::epoll_create1(0)}
{
    if (fd_ < 0) throw_errno("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    try {
        if (wake_fd_ < 0) throw_errno("eventfd");
        control(EPOLL_CTL_ADD, wake_fd_, k_wake_id, false, "epoll_ctl(ADD)");
    } catch (...) {
        if (wake_fd_ >= 0) ::close(wake_fd_);
        ::close(fd_);
        throw;
    }
}

poller::~poller()
{
    ::close(wake_fd_);
    ::close(fd_);
}

void poller::wake() noexcept
{
    const std::uint64_t one = 1;
    // Only a counter at its maximum refuses the add (EAGAIN), and that
    // counter is already a pending wake.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void poller::control(int op, int fd, std::uint64_t id, bool want_write, const char* what)
{
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = id;
    if (::epoll_ctl(fd_, op, fd, &ev) < 0) throw_errno(what);
}

void poller::add(int fd, std::uint64_t id, bool want_write)
{
    control(EPOLL_CTL_ADD, fd, id, want_write, "epoll_ctl(ADD)");
}

void poller::update(int fd, std::uint64_t id, bool want_write)
{
    control(EPOLL_CTL_MOD, fd, id, want_write, "epoll_ctl(MOD)");
}

void poller::remove(int fd) { ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr); }

void poller::wait(std::vector<ready_event>& out, int timeout_ms)
{
    epoll_event evs[64];
    const int n = ::epoll_wait(fd_, evs, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
        ready_event e;
        e.id = evs[i].data.u64;
        if (e.id == k_wake_id) {
            // Reset the counter, so the level-triggered wake fires once.
            std::uint64_t count = 0;
            [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &count, sizeof count);
        }
        e.readable = (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
        e.writable = (evs[i].events & EPOLLOUT) != 0;
        e.hangup = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
        out.push_back(e);
    }
}

// ---- listener ---------------------------------------------------------------

listener::listener(const std::string& bind_address, std::uint16_t port, bool reuseport)
{
    sockaddr_in addr;
    if (!ipv4_address(bind_address, port, addr))
        throw std::system_error{EINVAL, std::generic_category(),
                                "bad bind address (numeric IPv4 expected)"};
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) throw_errno("socket");
    try {
        const int one = 1;
        if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0)
            log_sockopt_failure("SO_REUSEADDR");
        if (reuseport && ::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0)
            throw_errno("setsockopt(SO_REUSEPORT)");
        if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
            ::listen(fd_, k_accept_backlog) < 0)
            throw_errno("bind/listen");
        // Without the bound address, port() would report garbage.
        socklen_t alen = sizeof addr;
        if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &alen) < 0)
            throw_errno("getsockname");
    } catch (...) {
        ::close(fd_);
        throw;
    }
    port_ = ntohs(addr.sin_port);
    // Best-effort: without a reserve the shed path degrades to backoff.
    reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

listener::~listener()
{
    ::close(fd_);
    if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

int listener::accept(std::atomic<std::uint64_t>& failed)
{
    for (;;) {
        const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd >= 0) {
            const int one = 1;
            if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) < 0)
                log_sockopt_failure("TCP_NODELAY");
            return fd;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
        if (errno == EINTR) continue;
        failed.fetch_add(1, std::memory_order_relaxed);
        // ECONNABORTED and friends: that one connection is gone but the
        // listener is healthy — keep draining the queue.
        if (errno != EMFILE && errno != ENFILE) continue;
        OBS_TRACE_INSTANT("net", "accept_fd_exhausted");
        if (reserve_fd_ >= 0) {
            ::close(reserve_fd_);
            reserve_fd_ = -1;
        }
        const int shed = ::accept(fd_, nullptr, nullptr);
        if (shed >= 0) ::close(shed);
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        if (shed < 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            return -1;
        }
        // Reserve re-armed; drain any more queued connections.
    }
}

// ---- client side ------------------------------------------------------------

int connect_tcp(const std::string& host, std::uint16_t port)
{
    sockaddr_in addr;
    if (!ipv4_address(host, port, addr))
        throw std::runtime_error{"numeric IPv4 host expected: " + host};
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::system_error{err, std::generic_category(), "connect"};
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

}  // namespace runtime::net
