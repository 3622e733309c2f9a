// runtime/ops/http_client.hpp — a blocking one-shot HTTP GET, just enough to
// scrape the ops plane from tests and the bench harness without shelling out
// to curl.  Connects, sends the request, reads to EOF (the ops server always
// closes), splits status line / headers / body.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace runtime::ops {

struct http_response {
    int status = 0;
    /// Header names lowercased; last value wins on duplicates.
    std::map<std::string, std::string> headers;
    std::string body;
};

/// GET `target` (path + optional query, e.g. "/metrics?format=json") from
/// host:port (numeric IPv4, connected through net::connect_tcp).  Throws
/// std::system_error on connect/send/recv failure and std::runtime_error on a
/// non-numeric host or a malformed response.
[[nodiscard]] http_response http_get(const std::string& host, std::uint16_t port,
                                     const std::string& target);

}  // namespace runtime::ops
