// runtime/net/client.hpp — minimal blocking client for the decode server.
//
// Covers the two usage shapes the tests and examples need: the one-shot
// convenience (`decode()` = send + wait for the matching response) and
// explicit pipelining (`send()` / `send_burst()` N frames, then `recv()` N
// responses, correlating by request_id — the server answers in completion
// order).
#pragma once

#include "protocol.hpp"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace runtime::net {

/// One request to put on the wire.
struct request {
    std::span<const std::uint8_t> codestream;
    std::uint8_t priority = 1;  ///< 0 interactive, 1 batch
    result_format format = result_format::raw;
    std::uint32_t request_id = 0;
    bool progressive = false;   ///< stream one response per quality layer
    bool cache_bypass = false;  ///< decode without the server's result cache
    bool cache_pin = false;     ///< pin the cached entry (exclusive with bypass)
    std::uint8_t codec = 0;     ///< codec wire id (0 = j2k, 1 = ccsds123)
};

/// One response off the wire.
struct response {
    status st = status::ok;
    std::uint8_t codec = 0;  ///< echo of the request's codec byte
    std::uint32_t request_id = 0;
    std::vector<std::uint8_t> payload;  ///< image bytes (ok) or diagnostic text

    [[nodiscard]] bool ok() const noexcept { return st == status::ok; }
    /// Diagnostic payload as text (error responses).
    [[nodiscard]] std::string message() const
    {
        return {payload.begin(), payload.end()};
    }
};

/// One refinement split out of a `status::streaming` response.
struct layer_frame {
    int layer = 0;  ///< 1-based refinement index
    int total = 0;  ///< refinements the stream will emit
    bool last = false;
    std::span<const std::uint8_t> image;  ///< encoded image, sub-header stripped
};

/// Split a streaming response into its layer sub-header and image bytes.
/// Returns nullopt when the response is not `status::streaming` or its
/// sub-header fails validation.  The span aliases `r.payload` — it dies with
/// the response.
[[nodiscard]] std::optional<layer_frame> split_layer_frame(const response& r);

class client {
public:
    /// Connect (blocking) to a decode server through net::connect_tcp:
    /// std::runtime_error for a host that is not numeric IPv4,
    /// std::system_error when the connect fails.
    client(const std::string& host, std::uint16_t port);
    ~client();

    client(const client&) = delete;
    client& operator=(const client&) = delete;
    client(client&& other) noexcept;
    client& operator=(client&& other) noexcept;

    /// Frame and send one request (blocking until fully written).
    void send(const request& r);

    /// Frame all requests into one buffer and write it with a single send
    /// loop — lands as one readable burst at the server, which is what lets
    /// its per-iteration batcher coalesce the jobs.
    void send_burst(const std::vector<request>& rs);

    /// Read one complete response frame (blocking).  Throws std::runtime_error
    /// on EOF mid-frame or a malformed response header.
    [[nodiscard]] response recv();

    /// send() + recv() one frame.  Only valid when no responses are pending.
    [[nodiscard]] response decode(const request& r);

    /// Send a progressive request and block through the whole stream, invoking
    /// `on_layer` for each refinement in layer order.  Returns the terminal
    /// response: the `last = 1` streaming frame, or the error frame that cut
    /// the stream short.  Only valid when no responses are pending.  Forces
    /// `r.progressive` on regardless of the caller's flag.
    [[nodiscard]] response decode_progressive(
        const request& r, const std::function<void(const layer_frame&)>& on_layer);

    /// Half-close the write side (server sees EOF after pending frames).
    void shutdown_write() noexcept;

    /// Raw socket fd — tests use it to inject torn/garbage bytes.
    [[nodiscard]] int fd() const noexcept { return fd_; }

private:
    int fd_ = -1;
};

}  // namespace runtime::net
