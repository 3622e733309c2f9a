#include "client.hpp"

#include "poller.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

namespace runtime::net {

namespace {

void send_all(int fd, const std::uint8_t* data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw std::system_error{errno, std::generic_category(), "send"};
        }
        off += static_cast<std::size_t>(n);
    }
}

void recv_all(int fd, std::uint8_t* data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::recv(fd, data + off, len - off, 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw std::system_error{errno, std::generic_category(), "recv"};
        }
        if (n == 0) throw std::runtime_error{"connection closed mid-frame"};
        off += static_cast<std::size_t>(n);
    }
}

void append_frame(std::vector<std::uint8_t>& out, const request& r)
{
    request_header h;
    h.priority_raw = r.priority;
    h.format_raw = static_cast<std::uint8_t>(r.format);
    h.flags = static_cast<std::uint8_t>((r.progressive ? k_flag_progressive : 0) |
                                        (r.cache_bypass ? k_flag_cache_bypass : 0) |
                                        (r.cache_pin ? k_flag_cache_pin : 0));
    h.codec = r.codec;
    h.request_id = r.request_id;
    h.payload_len = static_cast<std::uint32_t>(r.codestream.size());
    const std::size_t base = out.size();
    out.resize(base + k_header_size);
    encode_request_header(h, out.data() + base);
    out.insert(out.end(), r.codestream.begin(), r.codestream.end());
}

}  // namespace

client::client(const std::string& host, std::uint16_t port) : fd_{connect_tcp(host, port)}
{
}

client::~client()
{
    if (fd_ >= 0) ::close(fd_);
}

client::client(client&& other) noexcept : fd_{std::exchange(other.fd_, -1)} {}

client& client::operator=(client&& other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

void client::send(const request& r)
{
    std::vector<std::uint8_t> frame;
    frame.reserve(k_header_size + r.codestream.size());
    append_frame(frame, r);
    send_all(fd_, frame.data(), frame.size());
}

void client::send_burst(const std::vector<request>& rs)
{
    std::vector<std::uint8_t> buf;
    std::size_t total = 0;
    for (const request& r : rs) total += k_header_size + r.codestream.size();
    buf.reserve(total);
    for (const request& r : rs) append_frame(buf, r);
    send_all(fd_, buf.data(), buf.size());
}

response client::recv()
{
    std::uint8_t hdr[k_header_size];
    recv_all(fd_, hdr, k_header_size);
    const auto h = decode_response_header(hdr);
    if (!h) throw std::runtime_error{"malformed response header"};
    response r;
    r.st = h->st;
    r.codec = h->codec;
    r.request_id = h->request_id;
    r.payload.resize(h->payload_len);
    if (h->payload_len) recv_all(fd_, r.payload.data(), r.payload.size());
    return r;
}

response client::decode(const request& r)
{
    send(r);
    return recv();
}

response client::decode_progressive(
    const request& r, const std::function<void(const layer_frame&)>& on_layer)
{
    request pr = r;
    pr.progressive = true;
    send(pr);
    for (;;) {
        response resp = recv();
        if (resp.st != status::streaming) return resp;  // error cut the stream
        const auto lf = split_layer_frame(resp);
        if (!lf) throw std::runtime_error{"malformed streaming payload"};
        if (on_layer) on_layer(*lf);
        if (lf->last) return resp;
    }
}

std::optional<layer_frame> split_layer_frame(const response& r)
{
    if (r.st != status::streaming) return std::nullopt;
    const auto lh = decode_layer_header(r.payload);
    if (!lh) return std::nullopt;
    layer_frame lf;
    lf.layer = lh->layer;
    lf.total = lh->total;
    lf.last = lh->last != 0;
    lf.image = std::span<const std::uint8_t>{r.payload}.subspan(k_layer_header_size);
    return lf;
}

void client::shutdown_write() noexcept
{
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

}  // namespace runtime::net
