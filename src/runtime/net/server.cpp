#include "server.hpp"

#include "poller.hpp"

#include <codec/error.hpp>
#include <j2k/codestream.hpp>
#include <j2k/pnm.hpp>
#include <obs/obs.hpp>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace runtime::net {

namespace {

// poller / ready_event / set_nonblocking / throw_errno moved to poller.hpp —
// the HTTP ops plane (ops/ops_server.cpp) drives the same backends.

constexpr std::uint64_t k_listener_id = 0;
constexpr std::uint64_t k_wake_id = 1;
constexpr std::uint64_t k_first_conn_id = 2;

/// 0 = auto: one shard per hardware thread, clamped — beyond ~16 loops the
/// listeners outnumber any plausible NIC queue count.
std::size_t resolve_shards(std::size_t cfg_shards)
{
    if (cfg_shards) return std::min<std::size_t>(cfg_shards, 64);
    const unsigned hc = std::thread::hardware_concurrency();
    return std::min<std::size_t>(hc ? hc : 1, 16);
}

void log_sockopt_failure(const char* what)
{
    std::fprintf(stderr, "runtime::net: setsockopt(%s) failed: %s\n", what,
                 std::strerror(errno));
}

/// Bind + listen one front-end listener.  With `reuseport` every shard binds
/// the same port and the kernel hashes connections across them — that is the
/// whole sharding mechanism, so a missing SO_REUSEPORT is a hard error there,
/// while the best-effort SO_REUSEADDR only logs.
int make_listener(const std::string& bind_address, std::uint16_t port,
                  int backlog, bool reuseport, std::uint16_t* bound_port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0)
        log_sockopt_failure("SO_REUSEADDR");
    if (reuseport) {
#ifdef SO_REUSEPORT
        if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0) {
            const int err = errno;
            ::close(fd);
            throw std::system_error{err, std::generic_category(),
                                    "setsockopt(SO_REUSEPORT)"};
        }
#else
        ::close(fd);
        throw std::system_error{ENOTSUP, std::generic_category(),
                                "multi-shard server needs SO_REUSEPORT"};
#endif
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw std::system_error{EINVAL, std::generic_category(),
                                "bad bind address (numeric IPv4 expected)"};
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, backlog) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::system_error{err, std::generic_category(), "bind/listen"};
    }
    set_nonblocking(fd);
    socklen_t alen = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen) < 0) {
        // Without the bound address, port() would report garbage.
        const int err = errno;
        ::close(fd);
        throw std::system_error{err, std::generic_category(), "getsockname"};
    }
    *bound_port = ntohs(addr.sin_port);
    return fd;
}

}  // namespace

struct server::impl {
    explicit impl(server_config cfg)
        : cfg_{std::move(cfg)},
          service_{[&] {
              service_config sc = cfg_.service;
              // `block` at admission would stall the event loops; shed instead.
              if (sc.policy == backpressure::block) sc.policy = backpressure::reject;
              return sc;
          }()}
    {
    }

    ~impl() { stop(); }

    // ---- one event-loop shard --------------------------------------------
    //
    // Everything a single-loop server owned is per-shard now: the listener,
    // the poller, the wake pipe, the connection map, the completion queue,
    // the batcher, the counters.  Shards share only the decode service (and
    // the immutable config) through `owner_` — no lock is ever taken across
    // shards on the hot path.

    struct shard {
        shard(impl& owner, std::size_t index, std::size_t nshards)
            : owner_{owner}, index_{index}, stride_{nshards},
              next_conn_id_{k_first_conn_id + index}
        {
            if (nshards > 1) {
                char buf[48];
                auto& tr = obs::tracer::instance();
                std::snprintf(buf, sizeof buf, "net-loop-%zu", index);
                thread_name_ = tr.intern(buf);
                std::snprintf(buf, sizeof buf, "net_bytes_in.s%zu", index);
                track_bytes_in_ = tr.intern(buf);
                std::snprintf(buf, sizeof buf, "net_bytes_out.s%zu", index);
                track_bytes_out_ = tr.intern(buf);
                std::snprintf(buf, sizeof buf, "net_connections.s%zu", index);
                track_connections_ = tr.intern(buf);
            }
        }

        const server_config& cfg() const noexcept { return owner_.cfg_; }
        decode_service& service() noexcept { return owner_.service_; }

        // ---- connection state --------------------------------------------

        struct connection {
            int fd = -1;
            std::uint64_t id = 0;
            // Frame parser state.
            enum class reading { header, payload };
            reading state = reading::header;
            std::uint8_t hdr_buf[k_header_size] = {};
            std::size_t hdr_filled = 0;
            request_header hdr;
            /// recv() lands payload bytes directly here, and the whole vector
            /// moves into the decode job on dispatch (and on into the cache
            /// entry) — the socket path adds no intermediate copy.  It grows
            /// as bytes arrive (grow_payload), never on the header's word.
            std::vector<std::uint8_t> payload;
            std::size_t payload_filled = 0;
            // Outbound frames (fully framed responses), possibly partially sent.
            std::deque<std::vector<std::uint8_t>> out;
            std::size_t out_off = 0;
            std::size_t out_bytes = 0;  ///< unsent bytes across `out`
            bool want_write = false;
            bool closing = false;  ///< close once `out` drains (protocol error)
            /// Liveness flag shared with in-flight progressive jobs: cleared on
            /// close, read by the per-layer completion on the worker so a
            /// departed client cancels its stream instead of decoding layers
            /// nobody will read.
            std::shared_ptr<std::atomic<bool>> alive =
                std::make_shared<std::atomic<bool>>(true);
        };

        struct completion_record {
            std::uint64_t conn_id = 0;
            std::vector<std::uint8_t> frame;
            std::uint64_t trace_id = 0;
            /// False for intermediate streaming frames: the async "frame" span
            /// ends once per request, on the final (or error) frame.
            bool end_span = true;
        };

        struct small_job {
            std::uint64_t conn_id = 0;
            std::vector<std::uint8_t> bytes;
            decode_options opt;
            decode_service::completion done;
        };

        // ---- lifecycle ---------------------------------------------------

        /// Bind the listener, the wake pipe, and the emergency reserve fd.
        /// No thread yet — start() launches loops only once every shard
        /// bound, so a failure tears down cleanly with close_fds() alone.
        void open(std::uint16_t port, bool reuseport, std::uint16_t* bound_port)
        {
            listen_fd_ = make_listener(cfg().bind_address, port,
                                       cfg().listen_backlog, reuseport, bound_port);
            int pipefd[2];
            if (::pipe(pipefd) < 0) {
                const int err = errno;
                ::close(listen_fd_);
                listen_fd_ = -1;
                throw std::system_error{err, std::generic_category(), "pipe"};
            }
            wake_rd_ = pipefd[0];
            wake_wr_ = pipefd[1];
            set_nonblocking(wake_rd_);
            set_nonblocking(wake_wr_);  // a full pipe must never block a worker

            // Emergency reserve: one fd kept idle so that, at EMFILE, the
            // queued connection can still be accepted and shed (see
            // accept_or_shed).  Best-effort — a failed open just means the
            // shed path degrades to backoff.
            reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

            poller_ = make_poller(cfg().use_poll);
            poller_->add(listen_fd_, k_listener_id, false);
            poller_->add(wake_rd_, k_wake_id, false);
        }

        void launch() { loop_thread_ = std::thread{[this] { run_loop(); }}; }

        void close_fds()
        {
            if (listen_fd_ >= 0) ::close(listen_fd_);
            if (wake_rd_ >= 0) ::close(wake_rd_);
            if (wake_wr_ >= 0) ::close(wake_wr_);
            if (reserve_fd_ >= 0) ::close(reserve_fd_);
            listen_fd_ = wake_rd_ = wake_wr_ = reserve_fd_ = -1;
        }

        /// After the loop thread exits: close the wake pipe.  Every writer —
        /// stop()'s wakes and worker completions (all finished before the
        /// service drain returned) — happens-before this, so no write() can
        /// race it or hit a recycled fd.
        void join_and_teardown()
        {
            if (loop_thread_.joinable()) loop_thread_.join();
            close_fds();
        }

        // ---- event loop --------------------------------------------------

        void run_loop()
        {
            obs::tracer::instance().set_thread_name(thread_name_);
            std::vector<ready_event> events;
            std::vector<small_job> batch;
            while (!stop_requested_.load(std::memory_order_acquire)) {
                // Drain phase 1: the listener goes first, while established
                // connections keep flowing (responses for jobs the shared
                // service is still finishing).
                if (drain_requested_.load(std::memory_order_acquire) &&
                    listen_fd_ >= 0)
                    close_listener();
                events.clear();
                poller_->wait(events, -1);
                for (const ready_event& ev : events) {
                    if (ev.id == k_listener_id) {
                        accept_ready();
                    } else if (ev.id == k_wake_id) {
                        drain_wake_pipe();
                        deliver_completions();
                    } else {
                        auto it = conns_.find(ev.id);
                        if (it == conns_.end()) continue;
                        connection& c = *it->second;
                        if (ev.hangup && !ev.readable) {
                            close_conn(c);
                            continue;
                        }
                        if (ev.writable) on_writable(c);
                        // on_writable may have closed the connection.
                        if (conns_.count(ev.id) && ev.readable) on_readable(c, batch);
                    }
                }
                flush_small_jobs(batch);
                OBS_TRACE_COUNTER("net", track_bytes_in_,
                                  bytes_in_.load(std::memory_order_relaxed));
                OBS_TRACE_COUNTER("net", track_bytes_out_,
                                  bytes_out_.load(std::memory_order_relaxed));
            }

            // Drain phase 2 (the service finished every admitted job between
            // the phases): hand the final frames to their connections, flush
            // best-effort, then tear down.
            close_listener();
            deliver_completions();
            for (auto& [id, c] : conns_) flush_blocking(*c);
            for (auto& [id, c] : conns_) {
                c->alive->store(false, std::memory_order_release);
                poller_->remove(c->fd);
                ::close(c->fd);
                OBS_TRACE_ASYNC_END("net", "connection", c->id);
            }
            conns_.clear();
            connections_open_.store(0, std::memory_order_relaxed);
            // The wake pipe stays open: stop() closes it after joining this
            // thread, so a concurrent completion's wake() never writes to a
            // dead fd.
        }

        void close_listener()
        {
            if (listen_fd_ >= 0) {
                poller_->remove(listen_fd_);
                ::close(listen_fd_);
                listen_fd_ = -1;
            }
            listener_closed_.store(true, std::memory_order_release);
        }

        void accept_ready()
        {
            if (listen_fd_ < 0) return;  // raced with drain
            int fd = -1;
            while ((fd = accept_or_shed(listen_fd_, reserve_fd_, accepts_failed_)) >= 0) {
                set_nonblocking(fd);
                const int one = 1;
                if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) < 0)
                    log_sockopt_failure("TCP_NODELAY");
                if (cfg().sndbuf_bytes > 0 &&
                    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg().sndbuf_bytes,
                                 sizeof cfg().sndbuf_bytes) < 0)
                    log_sockopt_failure("SO_SNDBUF");
                auto c = std::make_unique<connection>();
                c->fd = fd;
                c->id = next_conn_id_;
                next_conn_id_ += stride_;  // ids stay unique across shards
                poller_->add(fd, c->id, false);
                OBS_TRACE_ASYNC_BEGIN("net", "connection", c->id);
                conns_.emplace(c->id, std::move(c));
                connections_accepted_.fetch_add(1, std::memory_order_relaxed);
                connections_open_.fetch_add(1, std::memory_order_relaxed);
                OBS_TRACE_COUNTER("net", track_connections_, conns_.size());
            }
        }

        void on_readable(connection& c, std::vector<small_job>& batch)
        {
            if (c.closing) return;  // refuse further input after a protocol error
            for (;;) {
                if (c.state == connection::reading::header) {
                    const ssize_t n = ::recv(c.fd, c.hdr_buf + c.hdr_filled,
                                             k_header_size - c.hdr_filled, 0);
                    if (!advance(c, n)) return;
                    c.hdr_filled += static_cast<std::size_t>(n);
                    if (c.hdr_filled < k_header_size) continue;
                    const char* why = nullptr;
                    const auto hdr = decode_request_header(c.hdr_buf, &why);
                    if (!hdr) {
                        refuse_frame(c, status::bad_frame, 0, why);
                        return;
                    }
                    if (hdr->payload_len > cfg().max_payload) {
                        refuse_frame(c, status::too_large, hdr->request_id,
                                     "payload_len above server limit");
                        return;
                    }
                    c.hdr = *hdr;
                    c.hdr_filled = 0;
                    if (hdr->payload_len == 0) {
                        dispatch_frame(c, {}, batch);  // decode of 0 bytes → malformed
                        continue;
                    }
                    c.state = connection::reading::payload;
                    c.payload_filled = 0;
                } else {
                    if (c.payload_filled == c.payload.size()) grow_payload(c);
                    const ssize_t n =
                        ::recv(c.fd, c.payload.data() + c.payload_filled,
                               c.payload.size() - c.payload_filled, 0);
                    if (!advance(c, n)) return;
                    c.payload_filled += static_cast<std::size_t>(n);
                    if (c.payload_filled < c.hdr.payload_len) continue;
                    c.state = connection::reading::header;
                    dispatch_frame(c, std::move(c.payload), batch);
                    c.payload = {};
                    c.payload_filled = 0;
                }
            }
        }

        /// Make room for more payload: double the buffer, from a 64 KiB first
        /// chunk, capped at the declared length.  A header alone commits one
        /// chunk however much it declares, and the finished buffer's
        /// capacity is exactly payload_len — the bytes a cache entry keeps.
        static void grow_payload(connection& c)
        {
            constexpr std::size_t k_first_chunk = 64u << 10;
            const std::size_t want = std::min<std::size_t>(
                c.hdr.payload_len, std::max(k_first_chunk, 2 * c.payload.size()));
            c.payload.reserve(want);  // exact: resize alone may over-allocate
            c.payload.resize(want);
        }

        /// Common recv() outcome handling; returns false when reading must stop
        /// (EAGAIN, disconnect, error).  Closes the connection on EOF/error.
        bool advance(connection& c, ssize_t n)
        {
            if (n > 0) {
                bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                                    std::memory_order_relaxed);
                return true;
            }
            if (n < 0) {
                // EINTR: readability persists, the level-triggered poller re-fires.
                if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                    return false;
            }
            // EOF (possibly mid-frame) or hard error: tear the connection down.
            // In-flight decode jobs for it settle into a vanished conn id and are
            // discarded at completion delivery.
            close_conn(c);
            return false;
        }

        void dispatch_frame(connection& c, std::vector<std::uint8_t>&& payload,
                            std::vector<small_job>& batch)
        {
            frames_in_.fetch_add(1, std::memory_order_relaxed);
            const std::uint64_t trace_id = obs::tracer::instance().next_id();
            OBS_TRACE_ASYNC_BEGIN("net", "frame", trace_id);
            decode_options opt;
            opt.prio = c.hdr.priority_raw == 0 ? priority::interactive : priority::batch;
            opt.cache = c.hdr.cache_bypass()  ? cache_policy::bypass
                        : c.hdr.cache_pin()   ? cache_policy::pin
                                              : cache_policy::use;
            // The codec byte routes the job; ids the registry doesn't know
            // (and codec/flag mismatches) come back as typed
            // unsupported_codec errors through the normal completion, so the
            // connection stays open — the frame itself was well-formed.
            opt.codec = c.hdr.codec;
            if (c.hdr.progressive()) {
                // Streaming requests are never coalesced: each one produces a
                // whole response sequence and holds a worker for its duration.
                progressive_streams_.fetch_add(1, std::memory_order_relaxed);
                service().submit_progressive(
                    std::move(payload), opt,
                    make_layer_completion(c.id, c.hdr.request_id, c.hdr.codec,
                                          static_cast<result_format>(c.hdr.format_raw),
                                          trace_id, c.alive));
                return;
            }
            auto done = make_completion(c.id, c.hdr.request_id, c.hdr.codec,
                                        static_cast<result_format>(c.hdr.format_raw),
                                        trace_id);
            if (payload.size() < cfg().small_job_threshold) {
                batch.push_back({c.id, std::move(payload), opt, std::move(done)});
            } else {
                service().submit_async(std::move(payload), opt, std::move(done));
            }
        }

        /// Coalesce the small jobs gathered this poll iteration into one
        /// submit_batch (single pool pump) — a lone small job takes the plain
        /// path, which is the same cost.
        void flush_small_jobs(std::vector<small_job>& batch)
        {
            if (batch.empty()) return;
            if (batch.size() == 1) {
                service().submit_async(std::move(batch[0].bytes), batch[0].opt,
                                       std::move(batch[0].done));
            } else {
                std::vector<decode_service::batch_item> items;
                items.reserve(batch.size());
                for (small_job& sj : batch)
                    items.push_back({std::move(sj.bytes), sj.opt, std::move(sj.done)});
                batches_.fetch_add(1, std::memory_order_relaxed);
                batched_jobs_.fetch_add(items.size(), std::memory_order_relaxed);
                service().submit_batch(std::move(items));
            }
            batch.clear();
        }

        /// Build the completion that runs on the decoding worker: serialise the
        /// result (or map the error to a status), frame it, and hand it to the
        /// owning shard via its completion queue + wake pipe.
        decode_service::completion make_completion(std::uint64_t conn_id,
                                                   std::uint32_t request_id,
                                                   std::uint8_t codec,
                                                   result_format fmt,
                                                   std::uint64_t trace_id)
        {
            return [this, conn_id, request_id, codec, fmt,
                    trace_id](std::shared_ptr<const raw_image> img,
                              std::exception_ptr err) {
                response_header rh;
                rh.request_id = request_id;
                rh.codec = codec;
                std::vector<std::uint8_t> frame(k_header_size);
                rh.st = err ? map_error(std::move(err), frame)
                            : append_image(frame, *img, fmt, status::ok);
                enqueue_frame(conn_id, rh, std::move(frame), trace_id, true);
            };
        }

        static void append_text(std::vector<std::uint8_t>& frame, const char* text)
        {
            frame.insert(frame.end(), text, text + std::strlen(text));
        }

        /// Append the packed result `img` to `frame` and answer `ok`: a raw
        /// payload is one copy of its bytes; PNM unpacks them and goes through
        /// j2k::pnm_bytes.  On failure the frame is cut back to its header
        /// room plus the diagnostic, and the answer is internal_error.
        static status append_image(std::vector<std::uint8_t>& frame, const raw_image& img,
                                   result_format fmt, status ok)
        {
            try {
                if (fmt == result_format::raw) {
                    frame.insert(frame.end(), img.bytes().begin(), img.bytes().end());
                } else {
                    const std::vector<std::uint8_t> pnm = j2k::pnm_bytes(img.unpack());
                    frame.insert(frame.end(), pnm.begin(), pnm.end());
                }
                return ok;
            } catch (const std::exception& e) {
                frame.resize(k_header_size);
                append_text(frame, e.what());
                return status::internal_error;
            }
        }

        /// Map a decode/admission exception onto a response status (diagnostic
        /// text, when any, is appended to `frame`).
        static status map_error(std::exception_ptr err, std::vector<std::uint8_t>& frame)
        {
            try {
                std::rethrow_exception(std::move(err));
            } catch (const codec::codestream_error& e) {
                // One catch covers every codec: j2k::codestream_error is an
                // alias of the codec-neutral base.
                append_text(frame, e.what());
                return status::malformed_codestream;
            } catch (const unsupported_codec& e) {
                append_text(frame, e.what());
                return status::unsupported_codec;
            } catch (const admission_rejected&) {
                return status::shed;
            } catch (const job_dropped&) {
                return status::shed;
            } catch (const service_stopped&) {
                return status::stopped;
            } catch (const std::exception& e) {
                append_text(frame, e.what());
                return status::internal_error;
            }
        }

        /// Stamp the header onto a response frame (payload already in place
        /// after k_header_size bytes) and hand it to the shard's loop
        /// (worker side).
        void enqueue_frame(std::uint64_t conn_id, response_header rh,
                           std::vector<std::uint8_t>&& frame, std::uint64_t trace_id,
                           bool end_span)
        {
            rh.payload_len = static_cast<std::uint32_t>(frame.size() - k_header_size);
            encode_response_header(rh, frame.data());
            {
                std::lock_guard lk{completions_m_};
                completions_.push_back({conn_id, std::move(frame), trace_id, end_span});
            }
            wake();
        }

        /// Per-layer completion for progressive requests: each refinement becomes
        /// one `streaming` frame (layer sub-header + encoded image); a terminal
        /// error becomes a plain error frame; a vanished client cancels the rest
        /// of the session by returning false.
        decode_service::progressive_completion make_layer_completion(
            std::uint64_t conn_id, std::uint32_t request_id, std::uint8_t codec,
            result_format fmt, std::uint64_t trace_id,
            std::shared_ptr<std::atomic<bool>> alive)
        {
            return [this, conn_id, request_id, codec, fmt, trace_id,
                    alive = std::move(alive)](decode_service::layer_event&& ev,
                                              std::exception_ptr err) -> bool {
                if (!alive->load(std::memory_order_acquire)) {
                    streams_cancelled_.fetch_add(1, std::memory_order_relaxed);
                    OBS_TRACE_INSTANT("net", "stream_cancelled");
                    OBS_TRACE_ASYNC_END("net", "frame", trace_id);
                    return false;
                }
                response_header rh;
                rh.request_id = request_id;
                rh.codec = codec;
                std::vector<std::uint8_t> frame(k_header_size);
                if (!err) {
                    frame.resize(k_header_size + k_layer_header_size);
                    encode_layer_header({static_cast<std::uint8_t>(ev.layer),
                                         static_cast<std::uint8_t>(ev.total),
                                         static_cast<std::uint8_t>(ev.last ? 1 : 0)},
                                        frame.data() + k_header_size);
                    rh.st = append_image(frame, *ev.img, fmt, status::streaming);
                } else {
                    rh.st = map_error(std::move(err), frame);
                }
                const bool streaming = rh.st == status::streaming;
                if (streaming) layer_frames_out_.fetch_add(1, std::memory_order_relaxed);
                enqueue_frame(conn_id, rh, std::move(frame), trace_id, !streaming || ev.last);
                return streaming;
            };
        }

        /// Loop thread: move completed frames onto their connections and
        /// flush.  A connection whose unsent backlog exceeds the outbound cap
        /// after the flush is a stalled reader: close it (which also cancels
        /// its progressive session via the alive flag) rather than queueing
        /// frames without bound.
        void deliver_completions()
        {
            std::vector<completion_record> ready;
            {
                std::lock_guard lk{completions_m_};
                ready.swap(completions_);
            }
            for (completion_record& r : ready) {
                if (r.end_span) OBS_TRACE_ASYNC_END("net", "frame", r.trace_id);
                auto it = conns_.find(r.conn_id);
                if (it == conns_.end()) continue;  // client went away mid-decode
                connection& c = *it->second;
                c.out_bytes += r.frame.size();
                c.out.push_back(std::move(r.frame));
                on_writable(c);
                // on_writable may have closed (and erased) the connection.
                auto again = conns_.find(r.conn_id);
                if (again != conns_.end() &&
                    again->second->out_bytes > cfg().max_outbound_bytes) {
                    slow_reader_closed_.fetch_add(1, std::memory_order_relaxed);
                    OBS_TRACE_INSTANT("net", "slow_reader_closed");
                    close_conn(*again->second);
                }
            }
        }

        /// Refuse the in-progress frame: queue an error response, stop reading
        /// from this connection, and close once the response drains.  (After a
        /// framing error the byte stream cannot be resynchronised.)
        void refuse_frame(connection& c, status st, std::uint32_t request_id,
                          const char* message)
        {
            bad_frames_.fetch_add(1, std::memory_order_relaxed);
            response_header rh;
            rh.st = st;
            rh.request_id = request_id;
            const std::size_t len = message ? std::strlen(message) : 0;
            rh.payload_len = static_cast<std::uint32_t>(len);
            std::vector<std::uint8_t> frame(k_header_size + len);
            encode_response_header(rh, frame.data());
            if (len) std::memcpy(frame.data() + k_header_size, message, len);
            c.out_bytes += frame.size();
            c.out.push_back(std::move(frame));
            c.closing = true;
            OBS_TRACE_INSTANT("net", "frame_refused");
            on_writable(c);
        }

        void on_writable(connection& c)
        {
            while (!c.out.empty()) {
                const std::vector<std::uint8_t>& front = c.out.front();
                const ssize_t n = ::send(c.fd, front.data() + c.out_off,
                                         front.size() - c.out_off, MSG_NOSIGNAL);
                if (n < 0) {
                    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                    if (errno == EINTR) continue;
                    close_conn(c);
                    return;
                }
                bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                                     std::memory_order_relaxed);
                c.out_off += static_cast<std::size_t>(n);
                c.out_bytes -= static_cast<std::size_t>(n);
                if (c.out_off == front.size()) {
                    c.out.pop_front();
                    c.out_off = 0;
                    responses_out_.fetch_add(1, std::memory_order_relaxed);
                }
            }
            if (c.out.empty() && c.closing) {
                close_conn(c);
                return;
            }
            const bool want_write = !c.out.empty();
            if (want_write != c.want_write) {
                c.want_write = want_write;
                poller_->update(c.fd, c.id, want_write);
            }
        }

        /// Best-effort synchronous flush during shutdown (sockets switched back
        /// to blocking with a short send timeout; errors are ignored).
        void flush_blocking(connection& c)
        {
            if (c.out.empty()) return;
            const int flags = ::fcntl(c.fd, F_GETFL, 0);
            if (flags >= 0) ::fcntl(c.fd, F_SETFL, flags & ~O_NONBLOCK);
            timeval tv{1, 0};
            if (::setsockopt(c.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) < 0)
                log_sockopt_failure("SO_SNDTIMEO");
            while (!c.out.empty()) {
                const std::vector<std::uint8_t>& front = c.out.front();
                const ssize_t n = ::send(c.fd, front.data() + c.out_off,
                                         front.size() - c.out_off, MSG_NOSIGNAL);
                if (n <= 0) return;
                bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                                     std::memory_order_relaxed);
                c.out_off += static_cast<std::size_t>(n);
                c.out_bytes -= static_cast<std::size_t>(n);
                if (c.out_off == front.size()) {
                    c.out.pop_front();
                    c.out_off = 0;
                    responses_out_.fetch_add(1, std::memory_order_relaxed);
                }
            }
        }

        void close_conn(connection& c)
        {
            c.alive->store(false, std::memory_order_release);
            poller_->remove(c.fd);
            ::close(c.fd);
            OBS_TRACE_ASYNC_END("net", "connection", c.id);
            conns_.erase(c.id);  // destroys c — must be the last use
            connections_open_.fetch_sub(1, std::memory_order_relaxed);
            OBS_TRACE_COUNTER("net", track_connections_, conns_.size());
        }

        void wake()
        {
            const std::uint8_t b = 1;
            // Non-blocking: a full pipe already guarantees a pending wakeup.
            [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &b, 1);
        }

        void drain_wake_pipe()
        {
            std::uint8_t buf[256];
            while (::read(wake_rd_, buf, sizeof buf) > 0) {
            }
        }

        // ---- state -------------------------------------------------------

        impl& owner_;
        const std::size_t index_;
        const std::size_t stride_;  ///< conn-id stride = shard count

        int listen_fd_ = -1;
        int wake_rd_ = -1;
        int wake_wr_ = -1;
        int reserve_fd_ = -1;  ///< emergency fd released to shed at EMFILE
        std::unique_ptr<poller> poller_;
        std::unordered_map<std::uint64_t, std::unique_ptr<connection>> conns_;
        std::uint64_t next_conn_id_;

        std::mutex completions_m_;
        std::vector<completion_record> completions_;

        std::thread loop_thread_;
        std::atomic<bool> drain_requested_{false};
        std::atomic<bool> listener_closed_{false};
        std::atomic<bool> stop_requested_{false};

        // Per-shard trace identity (shared single-loop names when shards == 1,
        // so existing trace consumers see the classic tracks).
        const char* thread_name_ = "net-loop";
        const char* track_bytes_in_ = "net_bytes_in";
        const char* track_bytes_out_ = "net_bytes_out";
        const char* track_connections_ = "net_connections";

        std::atomic<std::uint64_t> connections_accepted_{0};
        std::atomic<std::uint64_t> connections_open_{0};
        std::atomic<std::uint64_t> accepts_failed_{0};
        std::atomic<std::uint64_t> frames_in_{0};
        std::atomic<std::uint64_t> responses_out_{0};
        std::atomic<std::uint64_t> bytes_in_{0};
        std::atomic<std::uint64_t> bytes_out_{0};
        std::atomic<std::uint64_t> batches_{0};
        std::atomic<std::uint64_t> batched_jobs_{0};
        std::atomic<std::uint64_t> bad_frames_{0};
        std::atomic<std::uint64_t> slow_reader_closed_{0};
        std::atomic<std::uint64_t> progressive_streams_{0};
        std::atomic<std::uint64_t> layer_frames_out_{0};
        std::atomic<std::uint64_t> streams_cancelled_{0};

        [[nodiscard]] stats_snapshot stats() const noexcept
        {
            stats_snapshot s;
            s.connections_accepted =
                connections_accepted_.load(std::memory_order_relaxed);
            s.connections_open = connections_open_.load(std::memory_order_relaxed);
            s.accepts_failed = accepts_failed_.load(std::memory_order_relaxed);
            s.frames_in = frames_in_.load(std::memory_order_relaxed);
            s.responses_out = responses_out_.load(std::memory_order_relaxed);
            s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
            s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
            s.batches = batches_.load(std::memory_order_relaxed);
            s.batched_jobs = batched_jobs_.load(std::memory_order_relaxed);
            s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
            s.slow_reader_closed =
                slow_reader_closed_.load(std::memory_order_relaxed);
            s.progressive_streams =
                progressive_streams_.load(std::memory_order_relaxed);
            s.layer_frames_out = layer_frames_out_.load(std::memory_order_relaxed);
            s.streams_cancelled =
                streams_cancelled_.load(std::memory_order_relaxed);
            return s;
        }
    };

    // ---- whole-server lifecycle ------------------------------------------

    void start()
    {
        if (running_) return;
        const std::size_t n = resolve_shards(cfg_.shards);
        shards_.clear();
        shards_.reserve(n);
        try {
            // Shard 0 resolves the port (cfg_.port may be 0 = ephemeral);
            // every further shard binds the same concrete port through
            // SO_REUSEPORT.  All listeners carry the option whenever there is
            // more than one, shard 0 included — it must be set before bind.
            for (std::size_t i = 0; i < n; ++i) {
                auto s = std::make_unique<shard>(*this, i, n);
                std::uint16_t bound = 0;
                s->open(i == 0 ? cfg_.port : port_, n > 1, &bound);
                if (i == 0) port_ = bound;
                shards_.push_back(std::move(s));
            }
        } catch (...) {
            for (auto& s : shards_) s->close_fds();  // no threads running yet
            shards_.clear();
            throw;
        }
        for (auto& s : shards_) s->launch();
        running_ = true;
    }

    void stop()
    {
        if (!running_) return;
        // Phase 1: stop every listener first — no shard admits new
        // connections while any other is still draining.
        for (auto& s : shards_) {
            s->drain_requested_.store(true, std::memory_order_release);
            s->wake();
        }
        for (auto& s : shards_)
            while (!s->listener_closed_.load(std::memory_order_acquire))
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        // Phase 2: drain the shared service (this flips draining() — a
        // /readyz probe goes 503 here) while the loops keep delivering
        // completions and flushing responses to live clients.
        service_.shutdown();
        // Phase 3: all jobs settled, all frames queued on their shards; let
        // the loops run their final delivery + blocking flush and exit.
        for (auto& s : shards_) {
            s->stop_requested_.store(true, std::memory_order_release);
            s->wake();
        }
        for (auto& s : shards_) s->join_and_teardown();
        running_ = false;
    }

    // ---- state -----------------------------------------------------------

    server_config cfg_;
    decode_service service_;
    std::vector<std::unique_ptr<shard>> shards_;
    std::uint16_t port_ = 0;
    bool running_ = false;
};

server::server(server_config cfg) : impl_{std::make_unique<impl>(std::move(cfg))} {}

server::~server() = default;  // impl dtor stops the loops

void server::start() { impl_->start(); }

void server::stop() { impl_->stop(); }

std::uint16_t server::port() const noexcept { return impl_->port_; }

std::size_t server::shards() const noexcept { return impl_->shards_.size(); }

decode_service& server::service() noexcept { return impl_->service_; }

const decode_service& server::service() const noexcept { return impl_->service_; }

server::stats_snapshot server::stats() const noexcept
{
    stats_snapshot total;
    for (const auto& sh : impl_->shards_) {
        const stats_snapshot s = sh->stats();
        total.connections_accepted += s.connections_accepted;
        total.connections_open += s.connections_open;
        total.accepts_failed += s.accepts_failed;
        total.frames_in += s.frames_in;
        total.responses_out += s.responses_out;
        total.bytes_in += s.bytes_in;
        total.bytes_out += s.bytes_out;
        total.batches += s.batches;
        total.batched_jobs += s.batched_jobs;
        total.bad_frames += s.bad_frames;
        total.slow_reader_closed += s.slow_reader_closed;
        total.progressive_streams += s.progressive_streams;
        total.layer_frames_out += s.layer_frames_out;
        total.streams_cancelled += s.streams_cancelled;
    }
    return total;
}

server::stats_snapshot server::stats(std::size_t shard) const noexcept
{
    if (shard >= impl_->shards_.size()) return {};
    return impl_->shards_[shard]->stats();
}

}  // namespace runtime::net
