#include "poller.hpp"

#include <obs/trace.hpp>

#include <cerrno>
#include <chrono>
#include <system_error>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#define RUNTIME_NET_HAVE_EPOLL 1
#else
#define RUNTIME_NET_HAVE_EPOLL 0
#endif

namespace runtime::net {

void throw_errno(const char* what)
{
    throw std::system_error{errno, std::generic_category(), what};
}

void set_nonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw_errno("fcntl(O_NONBLOCK)");
}

int accept_or_shed(int listen_fd, int& reserve_fd, std::atomic<std::uint64_t>& failed)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) return fd;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
        if (errno == EINTR) continue;
        failed.fetch_add(1, std::memory_order_relaxed);
        // ECONNABORTED and friends: that one connection is gone but the
        // listener is healthy — keep draining the queue.
        if (errno != EMFILE && errno != ENFILE) continue;
        OBS_TRACE_INSTANT("net", "accept_fd_exhausted");
        if (reserve_fd >= 0) {
            ::close(reserve_fd);
            reserve_fd = -1;
        }
        const int shed = ::accept(listen_fd, nullptr, nullptr);
        if (shed >= 0) ::close(shed);
        reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        if (shed < 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            return -1;
        }
        // Reserve re-armed; drain any more queued connections.
    }
}

namespace {

#if RUNTIME_NET_HAVE_EPOLL
class epoll_poller final : public poller {
public:
    epoll_poller()
    {
        fd_ = ::epoll_create1(0);
        if (fd_ < 0) throw_errno("epoll_create1");
    }
    ~epoll_poller() override { ::close(fd_); }

    void add(int fd, std::uint64_t id, bool want_write) override
    {
        epoll_event ev{};
        ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
        ev.data.u64 = id;
        if (::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) < 0) throw_errno("epoll_ctl(ADD)");
    }
    void update(int fd, std::uint64_t id, bool want_write) override
    {
        epoll_event ev{};
        ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
        ev.data.u64 = id;
        if (::epoll_ctl(fd_, EPOLL_CTL_MOD, fd, &ev) < 0) throw_errno("epoll_ctl(MOD)");
    }
    void remove(int fd) override { ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr); }

    void wait(std::vector<ready_event>& out, int timeout_ms) override
    {
        epoll_event evs[64];
        const int n = ::epoll_wait(fd_, evs, 64, timeout_ms);
        for (int i = 0; i < n; ++i) {
            ready_event e;
            e.id = evs[i].data.u64;
            e.readable = (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
            e.writable = (evs[i].events & EPOLLOUT) != 0;
            e.hangup = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
            out.push_back(e);
        }
    }

private:
    int fd_ = -1;
};
#endif

/// Portable fallback: rebuilds the pollfd set per wait.  O(connections) per
/// iteration, fine at the scales the fallback serves.
class poll_poller final : public poller {
public:
    void add(int fd, std::uint64_t id, bool want_write) override
    {
        fds_[fd] = entry{id, want_write};
    }
    void update(int fd, std::uint64_t id, bool want_write) override
    {
        fds_[fd] = entry{id, want_write};
    }
    void remove(int fd) override { fds_.erase(fd); }

    void wait(std::vector<ready_event>& out, int timeout_ms) override
    {
        std::vector<pollfd> pfds;
        pfds.reserve(fds_.size());
        for (const auto& [fd, e] : fds_)
            pfds.push_back({fd, static_cast<short>(POLLIN | (e.want_write ? POLLOUT : 0)),
                            0});
        const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
        if (n <= 0) return;
        for (const pollfd& p : pfds) {
            if (p.revents == 0) continue;
            ready_event e;
            e.id = fds_[p.fd].id;
            e.readable = (p.revents & (POLLIN | POLLERR | POLLHUP)) != 0;
            e.writable = (p.revents & POLLOUT) != 0;
            e.hangup = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
            out.push_back(e);
        }
    }

private:
    struct entry {
        std::uint64_t id = 0;
        bool want_write = false;
    };
    std::unordered_map<int, entry> fds_;
};

}  // namespace

std::unique_ptr<poller> make_poller(bool force_poll)
{
#if RUNTIME_NET_HAVE_EPOLL
    if (!force_poll) return std::make_unique<epoll_poller>();
#else
    (void)force_poll;
#endif
    return std::make_unique<poll_poller>();
}

}  // namespace runtime::net
