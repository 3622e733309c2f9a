#include "loadgen.hpp"

#include "common.hpp"

#include <runtime/net/protocol.hpp>

#include <cerrno>
#include <deque>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

namespace bench {

namespace net = runtime::net;

namespace {

/// Reply deadline after a phase's last send.
constexpr std::int64_t k_drain_ns = 10'000'000'000;
constexpr std::size_t k_closed_id_range = 1u << 22;
constexpr std::uint64_t k_timer_tag = 0;

double thread_cpu_s()
{
    rusage ru{};
    ::getrusage(RUSAGE_THREAD, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// epoll timeout for a wait of `ns`: rounded up, capped so a far deadline
/// never overflows the int.
int wait_ms(std::int64_t ns)
{
    return static_cast<int>(std::clamp<std::int64_t>(ns / 1'000'000 + 1, 1, 100));
}

[[noreturn]] void fail_errno(const char* what)
{
    throw std::runtime_error{std::string{what} + ": " + std::strerror(errno)};
}

}  // namespace

struct loadgen::conn {
    int fd = -1;
    bool dead = false;
    bool want_write = false;
    struct out_item {
        std::size_t rec = 0;
        std::uint8_t hdr[net::k_header_size] = {};
        std::size_t off = 0;
    };
    std::deque<out_item> out;
    // Response parser.
    std::uint8_t hdr[net::k_header_size] = {};
    std::size_t hdr_filled = 0;
    bool in_payload = false;
    net::response_header rh;
    std::size_t remaining = 0;
    std::uint8_t sub[net::k_layer_header_size] = {};
    std::size_t sub_filled = 0;
    /// The frame's expected raw payload (none when the request id is not
    /// outstanding), how much of it has arrived, and whether all of that
    /// matched.
    const std::vector<std::uint8_t>* want = nullptr;
    std::size_t want_pos = 0;
    bool match = true;
    std::int64_t frame_start = 0;
    std::string message;  ///< diagnostic payload of an error status
};

std::size_t phase_result::count(outcome o) const
{
    std::size_t n = 0;
    for (const auto& r : reqs) n += r.out == o ? 1 : 0;
    return n;
}

std::size_t phase_result::failed() const
{
    return reqs.size() - count(outcome::ok);
}

double phase_result::closed_rps(int in_flight) const
{
    double sum_s = 0.0;
    std::size_t n = 0;
    for (const auto& r : reqs)
        if (r.out == outcome::ok && r.due >= begin_ns && r.due < end_ns) {
            sum_s += static_cast<double>(r.done - r.due) / 1e9;
            ++n;
        }
    if (n == 0 || sum_s <= 0.0) return 0.0;
    return static_cast<double>(in_flight) * static_cast<double>(n) / sum_s;
}

namespace {

std::vector<double> lags_ms(const std::vector<phase_result>& ps)
{
    std::vector<double> lag;
    for (const phase_result& p : ps)
        for (const auto& r : p.reqs)
            if (r.sent) lag.push_back(static_cast<double>(r.sent - r.due) / 1e6);
    return lag;
}

}  // namespace

double lag_p99_ms(const std::vector<phase_result>& ps)
{
    return quantile(lags_ms(ps), 0.99);
}

loadgen::loadgen(const corpus& c, std::uint16_t port, int connections)
    : corpus_{c}, rbuf_(64u << 10)
{
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) fail_errno("epoll_create1");
    timer_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (timer_ < 0) fail_errno("timerfd_create");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = k_timer_tag;
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, timer_, &ev) < 0) fail_errno("epoll_ctl(timer)");

    conns_.resize(static_cast<std::size_t>(connections));
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        conn& c = conns_[i];
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (c.fd < 0) fail_errno("socket");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
            fail_errno("connect");
        const int one = 1;
        ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        const int fl = ::fcntl(c.fd, F_GETFL, 0);
        if (fl < 0 || ::fcntl(c.fd, F_SETFL, fl | O_NONBLOCK) < 0) fail_errno("fcntl");
        epoll_event cev{};
        cev.events = EPOLLIN;
        cev.data.u64 = i + 1;
        if (::epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &cev) < 0)
            fail_errno("epoll_ctl(conn)");
    }
}

loadgen::~loadgen()
{
    for (conn& c : conns_)
        if (c.fd >= 0) ::close(c.fd);
    if (timer_ >= 0) ::close(timer_);
    if (ep_ >= 0) ::close(ep_);
}

void loadgen::begin_phase(phase_result& p, std::size_t id_range)
{
    phase_ = &p;
    rid_base_ = next_rid_;
    next_rid_ += static_cast<std::uint32_t>(id_range);
    outstanding_ = 0;
}

void loadgen::end_phase(phase_result& p, double cpu0_s, std::int64_t wall0)
{
    const std::int64_t wall = now_ns() - wall0;
    p.cpu_frac =
        wall > 0 ? (thread_cpu_s() - cpu0_s) / (static_cast<double>(wall) / 1e9) : 0.0;
    for (auto& r : p.reqs)
        if (r.out == outcome::pending) r.out = outcome::timeout;
    // Anything still queued or in flight belongs to a request already
    // charged as a timeout: drop it, and reset the parsers on a connection
    // that had a reply cut off (its stream cannot be resynchronised).
    for (conn& c : conns_) {
        const bool mid_frame = c.in_payload || c.hdr_filled > 0 || !c.out.empty();
        if (outstanding_ > 0 && !c.dead && mid_frame)
            kill_conn(c, "reply deadline passed mid-frame");
        c.out.clear();
    }
    phase_ = nullptr;
    client_ = nullptr;
    src_ = nullptr;
}

void loadgen::arm_timer(std::int64_t at_ns)
{
    itimerspec its{};
    its.it_value.tv_sec = at_ns / 1'000'000'000;
    its.it_value.tv_nsec = at_ns % 1'000'000'000;
    ::timerfd_settime(timer_, TFD_TIMER_ABSTIME, &its, nullptr);
}

void loadgen::issue(std::size_t ci, std::size_t ri)
{
    request_record& r = phase_->reqs[ri];
    conn& c = conns_[ci];
    r.sent = now_ns();
    if (c.dead) return;  // stays pending -> charged as a timeout
    conn::out_item it;
    it.rec = ri;
    net::request_header h;
    h.priority_raw = 1;  // batch
    h.format_raw = static_cast<std::uint8_t>(net::result_format::raw);
    h.flags = corpus_.spec->flags;
    h.codec = corpus_.spec->codec;
    h.request_id = rid_base_ + static_cast<std::uint32_t>(ri);
    h.payload_len = static_cast<std::uint32_t>(corpus_.inputs[r.input].bytes.size());
    net::encode_request_header(h, it.hdr);
    c.out.push_back(it);
    ++outstanding_;
    if (!c.want_write) flush(c);
}

void loadgen::flush(conn& c)
{
    while (!c.out.empty()) {
        conn::out_item& it = c.out.front();
        request_record& r = phase_->reqs[it.rec];
        const std::vector<std::uint8_t>& payload = corpus_.inputs[r.input].bytes;
        const std::size_t total = net::k_header_size + payload.size();
        iovec iov[2];
        int n_iov = 0;
        if (it.off < net::k_header_size) {
            iov[n_iov++] = {it.hdr + it.off, net::k_header_size - it.off};
            if (!payload.empty())
                iov[n_iov++] = {const_cast<std::uint8_t*>(payload.data()),
                                payload.size()};
        } else {
            iov[n_iov++] = {const_cast<std::uint8_t*>(payload.data()) +
                                (it.off - net::k_header_size),
                            total - it.off};
        }
        msghdr m{};
        m.msg_iov = iov;
        m.msg_iovlen = static_cast<std::size_t>(n_iov);
        const ssize_t n = ::sendmsg(c.fd, &m, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            kill_conn(c, "send failed");
            return;
        }
        it.off += static_cast<std::size_t>(n);
        if (it.off == total) {
            r.send_done = now_ns();
            c.out.pop_front();
        }
    }
    set_write_interest(c, !c.out.empty());
}

void loadgen::set_write_interest(conn& c, bool on)
{
    if (c.want_write == on || c.dead) return;
    c.want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<std::uint64_t>(&c - conns_.data()) + 1;
    ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
}

void loadgen::kill_conn(conn& c, const char* why)
{
    if (c.dead) return;
    std::fprintf(stderr, "loadgen: connection %zu closed: %s\n",
                 static_cast<std::size_t>(&c - conns_.data()), why);
    ++protocol_errors_;
    c.dead = true;
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
    c.out.clear();
}

void loadgen::on_readable(std::size_t ci)
{
    // One bounded read per readiness event: the level-triggered poller
    // reports the rest, and due sends get their turn in between, so a
    // multi-megabyte progressive stream cannot hold up the schedule.
    conn& c = conns_[ci];
    ssize_t n = 0;
    do {
        n = ::recv(c.fd, rbuf_.data(), rbuf_.size(), 0);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
        consume(ci, rbuf_.data(), static_cast<std::size_t>(n), now_ns());
        return;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    kill_conn(c, n == 0 ? "server closed the connection" : "recv failed");
}

void loadgen::consume(std::size_t ci, const std::uint8_t* p, std::size_t n,
                      std::int64_t t)
{
    while (n > 0) {
        conn& c = conns_[ci];
        if (c.dead) return;
        if (!c.in_payload) {
            if (c.hdr_filled == 0) c.frame_start = t;
            const std::size_t take = std::min(n, net::k_header_size - c.hdr_filled);
            std::memcpy(c.hdr + c.hdr_filled, p, take);
            c.hdr_filled += take;
            p += take;
            n -= take;
            if (c.hdr_filled < net::k_header_size) return;
            c.hdr_filled = 0;
            const auto rh = net::decode_response_header({c.hdr, net::k_header_size});
            if (!rh) {
                kill_conn(c, "malformed response header");
                return;
            }
            c.rh = *rh;
            c.remaining = rh->payload_len;
            c.in_payload = true;
            c.sub_filled = 0;
            c.want = nullptr;
            c.want_pos = 0;
            c.match = true;
            c.message.clear();
            if (phase_ && rh->request_id >= rid_base_ &&
                rh->request_id - rid_base_ < phase_->reqs.size()) {
                request_record& r = phase_->reqs[rh->request_id - rid_base_];
                if (r.first_byte == 0) r.first_byte = c.frame_start;
                // Frame k of a request carries layer k (1-based) of its input.
                const auto& expect = corpus_.inputs[r.input].expect;
                if (r.frames < expect.size()) c.want = &expect[r.frames];
            }
            if (c.remaining == 0) finish_frame(ci, t);
            continue;
        }
        std::size_t take = std::min(n, c.remaining);
        const std::uint8_t* q = p;
        std::size_t m = take;
        if (c.rh.st == net::status::streaming &&
            c.sub_filled < net::k_layer_header_size) {
            const std::size_t s = std::min(m, net::k_layer_header_size - c.sub_filled);
            std::memcpy(c.sub + c.sub_filled, q, s);
            c.sub_filled += s;
            q += s;
            m -= s;
        }
        if (c.rh.st == net::status::ok || c.rh.st == net::status::streaming) {
            c.match = c.match && c.want && c.want_pos + m <= c.want->size() &&
                      std::memcmp(c.want->data() + c.want_pos, q, m) == 0;
            c.want_pos += m;
        } else if (c.message.size() < 200) {
            c.message.append(reinterpret_cast<const char*>(q),
                             std::min<std::size_t>(m, 200));
        }
        c.remaining -= take;
        p += take;
        n -= take;
        if (c.remaining == 0) finish_frame(ci, t);
    }
}

void loadgen::finish_frame(std::size_t ci, std::int64_t t)
{
    conn& c = conns_[ci];
    c.in_payload = false;
    const std::uint32_t rid = c.rh.request_id;
    if (!phase_ || rid < rid_base_ || rid - rid_base_ >= phase_->reqs.size()) {
        ++protocol_errors_;
        return;
    }
    const std::size_t ri = rid - rid_base_;
    request_record& r = phase_->reqs[ri];
    if (r.out != outcome::pending) {
        ++protocol_errors_;
        return;
    }
    const std::size_t layers = corpus_.inputs[r.input].expect.size();
    const bool payload_ok = c.match && c.want && c.want_pos == c.want->size();
    if (r.frames == 0) r.first_frame = t;
    ++r.frames;
    bool terminal = true;
    outcome o = outcome::ok;
    switch (c.rh.st) {
    case net::status::ok:
        if (layers != 1 || !payload_ok) r.bad = true;
        o = r.bad ? outcome::mismatch : outcome::ok;
        break;
    case net::status::streaming: {
        const auto lh = c.sub_filled == net::k_layer_header_size
                            ? net::decode_layer_header({c.sub, net::k_layer_header_size})
                            : std::nullopt;
        // payload_ok compared the frame with layer r.frames of the input.
        if (!lh || lh->layer != r.frames || lh->total != layers || !payload_ok)
            r.bad = true;
        terminal = !lh || lh->last == 1;
        o = r.bad ? outcome::mismatch : outcome::ok;
        break;
    }
    case net::status::shed:
        o = outcome::shed;
        break;
    default:
        o = outcome::error_status;
        std::fprintf(stderr, "loadgen: request %u (input %u): status %s: %s\n", rid,
                     r.input, net::status_name(c.rh.st), c.message.c_str());
        break;
    }
    if (o == outcome::mismatch && mismatch_reports_ < 5) {
        ++mismatch_reports_;
        std::fprintf(stderr, "loadgen: request %u (input %u) frame %u: payload mismatch\n",
                     rid, r.input, static_cast<unsigned>(r.frames));
    }
    if (!terminal) return;
    r.done = t;
    r.out = o;
    --outstanding_;
    if (client_) {
        client_->add("request", rid, r.due, r.done);
        client_->add("send", rid, r.sent, r.send_done);
        client_->add("server", rid, r.send_done, r.first_byte);
        client_->add("recv", rid, r.first_byte, r.done);
    }
    if (src_ && issuing_) {
        if (const auto next = (*src_)()) {
            request_record nr;
            nr.input = *next;
            nr.due = now_ns();
            phase_->reqs.push_back(nr);
            issue(ci, phase_->reqs.size() - 1);
        }
    }
}

void loadgen::wait(int timeout_ms)
{
    epoll_event evs[16];
    const int n = ::epoll_wait(ep_, evs, 16, timeout_ms);
    if (n < 0) {
        if (errno == EINTR) return;
        fail_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = evs[i].data.u64;
        if (tag == k_timer_tag) {
            std::uint64_t expirations = 0;
            [[maybe_unused]] const ssize_t r =
                ::read(timer_, &expirations, sizeof expirations);
            continue;
        }
        const std::size_t ci = tag - 1;
        if (conns_[ci].dead) continue;
        if (evs[i].events & EPOLLOUT) flush(conns_[ci]);
        if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) on_readable(ci);
        send_due();
    }
}

void loadgen::send_due()
{
    if (open_next_ == SIZE_MAX) return;
    std::vector<request_record>& reqs = phase_->reqs;
    while (open_next_ < reqs.size() && reqs[open_next_].due <= now_ns()) {
        issue(open_next_ % conns_.size(), open_next_);
        ++open_next_;
    }
}

phase_result loadgen::open(const std::vector<std::uint32_t>& inputs, double rps,
                           spans::track* client)
{
    phase_result p;
    p.name = client ? "open_traced" : "open";
    p.reqs.resize(inputs.size());
    begin_phase(p, inputs.size());
    client_ = client;
    const double cpu0 = thread_cpu_s();
    const std::int64_t wall0 = now_ns();
    const std::int64_t t0 = wall0 + 1'000'000;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        p.reqs[i].input = inputs[i];
        p.reqs[i].due =
            t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rps);
    }
    const std::size_t n = inputs.size();
    const std::int64_t deadline = (n ? p.reqs.back().due : t0) + k_drain_ns;
    open_next_ = 0;
    std::int64_t armed = -1;
    for (;;) {
        send_due();
        const std::int64_t t = now_ns();
        if (open_next_ == n && (outstanding_ == 0 || t >= deadline)) break;
        int timeout_ms = -1;
        if (open_next_ < n) {
            if (armed != p.reqs[open_next_].due) {
                armed = p.reqs[open_next_].due;
                arm_timer(armed);
            }
        } else {
            timeout_ms = wait_ms(deadline - t);
        }
        wait(timeout_ms);
    }
    itimerspec off{};
    ::timerfd_settime(timer_, 0, &off, nullptr);
    open_next_ = SIZE_MAX;
    p.begin_ns = t0;
    p.end_ns = now_ns();
    end_phase(p, cpu0, wall0);
    return p;
}

phase_result loadgen::run_closed(const char* name, const source& src, int in_flight,
                                 std::int64_t seconds_ns,
                                 const std::function<void()>& at_start,
                                 const std::function<void()>& at_end)
{
    phase_result p;
    p.name = name;
    begin_phase(p, k_closed_id_range);
    src_ = &src;
    issuing_ = true;
    const double cpu0 = thread_cpu_s();
    const std::int64_t wall0 = now_ns();
    if (at_start) at_start();
    p.begin_ns = now_ns();
    const std::int64_t t_end = p.begin_ns + seconds_ns;
    const auto k =
        std::min<std::size_t>(static_cast<std::size_t>(in_flight), conns_.size());
    for (std::size_t ci = 0; ci < k; ++ci) {
        const auto next = src();
        if (!next) break;
        request_record r;
        r.input = *next;
        r.due = now_ns();
        p.reqs.push_back(r);
        issue(ci, p.reqs.size() - 1);
    }
    auto close_window = [&] {
        issuing_ = false;
        p.end_ns = now_ns();
        if (at_end) at_end();
    };
    std::int64_t deadline = INT64_MAX;
    for (;;) {
        const std::int64_t t = now_ns();
        const bool ids_left = p.reqs.size() < k_closed_id_range - conns_.size();
        if (issuing_ && (t >= t_end || !ids_left)) {
            close_window();
            deadline = t + k_drain_ns;
        }
        if (outstanding_ == 0 || t >= deadline) break;
        wait(wait_ms((issuing_ ? t_end : deadline) - t));
    }
    if (issuing_) close_window();  // the source ran dry (warm pass)
    end_phase(p, cpu0, wall0);
    return p;
}

phase_result loadgen::warm(int in_flight)
{
    std::size_t i = 0;
    const source src = [&]() -> std::optional<std::uint32_t> {
        if (i == corpus_.warm_order.size()) return std::nullopt;
        return corpus_.warm_order[i++];
    };
    return run_closed("warm", src, in_flight, INT64_MAX / 4, {}, {});
}

phase_result loadgen::closed(sequence& seq, double seconds,
                             const std::function<void()>& at_start,
                             const std::function<void()>& at_end)
{
    const source src = [&]() -> std::optional<std::uint32_t> { return seq.next(); };
    return run_closed("closed", src, corpus_.spec->closed_in_flight,
                      static_cast<std::int64_t>(seconds * 1e9), at_start, at_end);
}

}  // namespace bench
