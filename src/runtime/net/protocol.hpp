// runtime/net/protocol.hpp — the minimal length-prefixed framing protocol the
// decode server speaks.
//
// This is the software realisation of the paper's VTA boundary: requests are
// serialised across a byte channel, unpacked by a transactor (the server's
// event loop) and handed to the guarded shared resource (decode_service)
// exactly as the OSSS RMI channel marshals method calls onto the shared
// object.  All integers are big-endian, mirroring the codestream container.
//
// Request frame (20-byte header + payload, protocol version 2 — version 2
// widened both headers from 16 bytes to carry the codec id):
//
//   u32 magic      'J2NE'
//   u8  version    2
//   u8  priority   0 = interactive, 1 = batch
//   u8  format     0 = raw planar samples, 1 = PNM (PGM/PPM)
//   u8  flags      bit 0 = progressive (stream one response per quality
//                  layer); bit 1 = cache bypass; bit 2 = cache pin
//                  (bits 1+2 together, or any other bit, reject the frame)
//   u8  codec      codec wire id (0 = j2k, 1 = ccsds123, ...).  Any value is
//                  structurally valid; ids absent from the server's codec
//                  registry elicit a typed `unsupported_codec` response, not
//                  a connection close — the frame itself is well-formed.
//   u8  reserved   ×3, must be zero (rejected otherwise)
//   u32 request_id echoed verbatim in the response (pipelining correlation)
//   u32 payload_len
//   ... payload_len bytes of codestream for the named codec
//
// Response frame (20-byte header + payload):
//
//   u32 magic      'J2NE'
//   u8  version    2
//   u8  status     see `status` below
//   u8  codec      echo of the request's codec byte
//   u8  reserved   0
//   u32 reserved   0
//   u32 request_id
//   u32 payload_len
//   ... decoded image (ok) or an ASCII diagnostic message (errors)
//
// request_id and payload_len sit at offsets 12/16 in both directions.
//
// A progressive request elicits a *sequence* of `streaming` responses with
// the same request_id — one per completed quality layer, in layer order.
// Each streaming payload starts with a 4-byte layer sub-header:
//
//   u8 layer   1-based refinement index
//   u8 total   layers this stream will emit
//   u8 last    1 on the final refinement, else 0
//   u8 0       reserved
//
// followed by the image in the requested result encoding.  The frame with
// `last = 1` ends the sequence; a terminal error status (same request_id) can
// replace any remaining refinements.
//
// Responses are emitted in *completion* order, not request order — pipelined
// clients must correlate by request_id.
//
// The `raw` result encoding is the service's own result currency
// (runtime/raw_image.hpp): every decode is packed into it once, on the worker,
// and the cache keeps it that way, so an `ok` raw payload is a copy of those
// bytes and a PNM payload is built from them.
#pragma once

#include <j2k/image.hpp>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace runtime::net {

inline constexpr std::uint32_t k_magic = 0x4A324E45u;  // "J2NE"
inline constexpr std::uint8_t k_version = 2;
inline constexpr std::size_t k_header_size = 20;

/// Requested result encoding.
enum class result_format : std::uint8_t {
    raw = 0,  ///< u32 w | u32 h | u8 comps | u8 depth | u16 0 | planar samples
    pnm = 1,  ///< the exact bytes j2k::pnm_bytes would write (P5/P6)
};

/// Response status byte.
enum class status : std::uint8_t {
    ok = 0,
    malformed_codestream = 1,  ///< decode threw codec::codestream_error
    shed = 2,                  ///< admission rejected or job evicted (overload)
    too_large = 3,             ///< payload_len above the server's limit
    bad_frame = 4,             ///< bad magic / version / priority / format
    stopped = 5,               ///< server shutting down
    internal_error = 6,        ///< anything else (message in payload)
    streaming = 7,             ///< one refinement of a progressive request
    unsupported_codec = 8,     ///< codec id not in the registry, or the codec
                               ///< cannot honour the requested flags
};

[[nodiscard]] constexpr const char* status_name(status s) noexcept
{
    switch (s) {
    case status::ok: return "ok";
    case status::malformed_codestream: return "malformed_codestream";
    case status::shed: return "shed";
    case status::too_large: return "too_large";
    case status::bad_frame: return "bad_frame";
    case status::stopped: return "stopped";
    case status::internal_error: return "internal_error";
    case status::streaming: return "streaming";
    case status::unsupported_codec: return "unsupported_codec";
    }
    return "?";
}

/// Request flag bits (request header byte 7).  `cache_bypass` decodes without
/// reading or populating the server's decoded-result cache; `cache_pin`
/// exempts the inserted entry from eviction.  Setting both is contradictory
/// and rejected as a bad frame.  Both are no-ops on a server running without
/// a cache, and on a progressive request, which never touches the cache.
inline constexpr std::uint8_t k_flag_progressive = 0x01;
inline constexpr std::uint8_t k_flag_cache_bypass = 0x02;
inline constexpr std::uint8_t k_flag_cache_pin = 0x04;
inline constexpr std::uint8_t k_flag_known_mask =
    k_flag_progressive | k_flag_cache_bypass | k_flag_cache_pin;

struct request_header {
    std::uint8_t priority_raw = 1;  ///< runtime::priority as a byte
    std::uint8_t format_raw = 0;    ///< result_format as a byte
    std::uint8_t flags = 0;         ///< k_flag_* bits; unknown bits rejected
    std::uint8_t codec = 0;         ///< codec wire id (0 = j2k); any value parses
    std::uint32_t request_id = 0;
    std::uint32_t payload_len = 0;

    [[nodiscard]] bool progressive() const noexcept
    {
        return (flags & k_flag_progressive) != 0;
    }
    [[nodiscard]] bool cache_bypass() const noexcept
    {
        return (flags & k_flag_cache_bypass) != 0;
    }
    [[nodiscard]] bool cache_pin() const noexcept
    {
        return (flags & k_flag_cache_pin) != 0;
    }
};

struct response_header {
    status st = status::ok;
    std::uint8_t codec = 0;  ///< echo of the request's codec byte
    std::uint32_t request_id = 0;
    std::uint32_t payload_len = 0;
};

/// Serialise a request header into exactly k_header_size bytes.
void encode_request_header(const request_header& h, std::uint8_t out[k_header_size]);

/// Parse a request header.  Returns nullopt (and sets *why) when the frame is
/// structurally invalid — bad magic, version, priority or format byte.
[[nodiscard]] std::optional<request_header> decode_request_header(
    std::span<const std::uint8_t> in, const char** why = nullptr);

void encode_response_header(const response_header& h, std::uint8_t out[k_header_size]);

[[nodiscard]] std::optional<response_header> decode_response_header(
    std::span<const std::uint8_t> in);

/// Sub-header prefixed to every `streaming` response payload.
struct layer_header {
    std::uint8_t layer = 0;  ///< 1-based refinement index
    std::uint8_t total = 0;  ///< refinements the stream will emit
    std::uint8_t last = 0;   ///< 1 on the final refinement
};

inline constexpr std::size_t k_layer_header_size = 4;

void encode_layer_header(const layer_header& h, std::uint8_t out[k_layer_header_size]);

/// Parse (and validate) a layer sub-header from the front of a streaming
/// payload.  Returns nullopt on short input, a nonzero reserved byte, or an
/// inconsistent layer/total/last combination.
[[nodiscard]] std::optional<layer_header> decode_layer_header(
    std::span<const std::uint8_t> in);

// `raw` payloads of an int32 image, for clients, tests and tools: forwards to
// runtime/raw_image.hpp, which owns the layout.

/// Size of `img`'s `raw` result payload: 12 header bytes plus one byte per
/// sample (two above 8 bits).
[[nodiscard]] std::size_t raw_image_size(const j2k::image& img) noexcept;

/// Encode `img` as the `raw` result payload into `out`, which must hold
/// exactly raw_image_size(img) bytes (std::invalid_argument otherwise).
void encode_image_raw_into(const j2k::image& img, std::span<std::uint8_t> out);

/// Encode a decoded image as the `raw` result payload, into a new buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_image_raw(const j2k::image& img);

/// Parse a `raw` result payload (client side).  Throws std::runtime_error on
/// malformed payloads.
[[nodiscard]] j2k::image decode_image_raw(std::span<const std::uint8_t> in);

}  // namespace runtime::net
