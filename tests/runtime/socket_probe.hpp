// Helpers for the socket-layer failure tests of test_net and test_ops: an fd
// census, a port held by a plain socket, and a check that an error is a
// std::runtime_error but not a std::system_error (which derives from it).
#pragma once

#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <system_error>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace socket_probe {

/// Entries of /proc/self/fd, the census's own directory fd included, so two
/// counts taken the same way compare.
inline int open_fd_count()
{
    DIR* d = ::opendir("/proc/self/fd");
    if (d == nullptr) return -1;
    int n = 0;
    while (const dirent* e = ::readdir(d))
        if (e->d_name[0] != '.') ++n;
    ::closedir(d);
    return n;
}

/// A TCP socket bound to 127.0.0.1 at an ephemeral port without
/// SO_REUSEADDR or SO_REUSEPORT: listening, it makes a bind to its port fail;
/// not listening, it makes a connect to its port be refused.
struct held_port {
    int fd = -1;
    std::uint16_t port = 0;

    explicit held_port(bool listening)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = 0;
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        socklen_t len = sizeof addr;
        if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
            (listening && ::listen(fd, 1) < 0) ||
            ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
            const int err = errno;
            if (fd >= 0) ::close(fd);
            throw std::system_error{err, std::generic_category(), "held_port"};
        }
        port = ntohs(addr.sin_port);
    }
    ~held_port() { ::close(fd); }
    held_port(const held_port&) = delete;
    held_port& operator=(const held_port&) = delete;
};

/// The errno a std::system_error thrown by `fn` carries; 0 when `fn` returns,
/// -1 for any other exception.
template <typename Fn>
int system_error_code(Fn fn)
{
    try {
        fn();
    } catch (const std::system_error& e) {
        return e.code().value();
    } catch (...) {
        return -1;
    }
    return 0;
}

/// True when `fn` throws a std::runtime_error that is not a std::system_error.
template <typename Fn>
bool throws_plain_runtime_error(Fn fn)
{
    try {
        fn();
    } catch (const std::system_error&) {
        return false;
    } catch (const std::runtime_error&) {
        return true;
    } catch (...) {
        return false;
    }
    return false;
}

}  // namespace socket_probe
