#include "http_client.hpp"

#include "../net/poller.hpp"  // connect_tcp, throw_errno

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

namespace runtime::ops {

namespace {

/// RAII socket so every throw path closes the fd.
struct fd_guard {
    int fd = -1;
    ~fd_guard()
    {
        if (fd >= 0) ::close(fd);
    }
};

}  // namespace

http_response http_get(const std::string& host, std::uint16_t port,
                       const std::string& target)
{
    const fd_guard s{net::connect_tcp(host, port)};

    const std::string req = "GET " + target +
                            " HTTP/1.1\r\n"
                            "Host: " +
                            host + "\r\nConnection: close\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
        const ssize_t n =
            ::send(s.fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            net::throw_errno("send");
        }
        off += static_cast<std::size_t>(n);
    }

    std::string raw;
    char buf[8192];
    for (;;) {
        const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            net::throw_errno("recv");
        }
        if (n == 0) break;  // server closed: response complete
        raw.append(buf, static_cast<std::size_t>(n));
    }

    const auto hdr_end = raw.find("\r\n\r\n");
    if (hdr_end == std::string::npos)
        throw std::runtime_error{"http_get: truncated response (no header block)"};
    http_response resp;
    resp.body = raw.substr(hdr_end + 4);

    // Status line: HTTP/1.1 NNN Reason
    const auto line_end = raw.find("\r\n");
    const std::string status_line = raw.substr(0, line_end);
    const auto sp = status_line.find(' ');
    if (sp == std::string::npos || status_line.compare(0, 5, "HTTP/") != 0)
        throw std::runtime_error{"http_get: malformed status line"};
    resp.status = std::atoi(status_line.c_str() + sp + 1);
    if (resp.status < 100 || resp.status > 599)
        throw std::runtime_error{"http_get: malformed status code"};

    // Headers: Name: value, names lowercased.
    std::size_t pos = line_end + 2;
    while (pos < hdr_end) {
        auto eol = raw.find("\r\n", pos);
        if (eol == std::string::npos || eol > hdr_end) eol = hdr_end;
        const std::string line = raw.substr(pos, eol - pos);
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
            std::string name = line.substr(0, colon);
            std::transform(name.begin(), name.end(), name.begin(), [](unsigned char c) {
                return static_cast<char>(std::tolower(c));
            });
            std::size_t v = colon + 1;
            while (v < line.size() && line[v] == ' ') ++v;
            resp.headers[name] = line.substr(v);
        }
        pos = eol + 2;
    }
    return resp;
}

}  // namespace runtime::ops
