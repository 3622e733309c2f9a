#include "protocol.hpp"

#include <runtime/raw_image.hpp>

namespace runtime::net {

namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) noexcept
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

}  // namespace

void encode_request_header(const request_header& h, std::uint8_t out[k_header_size])
{
    put_u32(out, k_magic);
    out[4] = k_version;
    out[5] = h.priority_raw;
    out[6] = h.format_raw;
    out[7] = h.flags;
    out[8] = h.codec;
    out[9] = 0;
    out[10] = 0;
    out[11] = 0;
    put_u32(out + 12, h.request_id);
    put_u32(out + 16, h.payload_len);
}

std::optional<request_header> decode_request_header(std::span<const std::uint8_t> in,
                                                    const char** why)
{
    const auto fail = [&](const char* reason) -> std::optional<request_header> {
        if (why) *why = reason;
        return std::nullopt;
    };
    if (in.size() < k_header_size) return fail("short header");
    if (get_u32(in.data()) != k_magic) return fail("bad magic");
    if (in[4] != k_version) return fail("unsupported version");
    request_header h;
    h.priority_raw = in[5];
    h.format_raw = in[6];
    if (h.priority_raw > 1) return fail("bad priority byte");
    if (h.format_raw > 1) return fail("bad format byte");
    h.flags = in[7];
    if ((h.flags & ~k_flag_known_mask) != 0) return fail("unknown flag bits");
    if (h.cache_bypass() && h.cache_pin()) return fail("bypass+pin flags conflict");
    h.codec = in[8];  // any id is structurally valid; the server answers
                      // unknown ones with status::unsupported_codec
    if (in[9] != 0 || in[10] != 0 || in[11] != 0) return fail("nonzero reserved bytes");
    h.request_id = get_u32(in.data() + 12);
    h.payload_len = get_u32(in.data() + 16);
    return h;
}

void encode_response_header(const response_header& h, std::uint8_t out[k_header_size])
{
    put_u32(out, k_magic);
    out[4] = k_version;
    out[5] = static_cast<std::uint8_t>(h.st);
    out[6] = h.codec;
    out[7] = 0;
    put_u32(out + 8, 0);
    put_u32(out + 12, h.request_id);
    put_u32(out + 16, h.payload_len);
}

std::optional<response_header> decode_response_header(std::span<const std::uint8_t> in)
{
    if (in.size() < k_header_size) return std::nullopt;
    if (get_u32(in.data()) != k_magic) return std::nullopt;
    if (in[4] != k_version) return std::nullopt;
    if (in[5] > static_cast<std::uint8_t>(status::unsupported_codec))
        return std::nullopt;
    response_header h;
    h.st = static_cast<status>(in[5]);
    h.codec = in[6];
    h.request_id = get_u32(in.data() + 12);
    h.payload_len = get_u32(in.data() + 16);
    return h;
}

void encode_layer_header(const layer_header& h, std::uint8_t out[k_layer_header_size])
{
    out[0] = h.layer;
    out[1] = h.total;
    out[2] = h.last;
    out[3] = 0;
}

std::optional<layer_header> decode_layer_header(std::span<const std::uint8_t> in)
{
    if (in.size() < k_layer_header_size) return std::nullopt;
    layer_header h;
    h.layer = in[0];
    h.total = in[1];
    h.last = in[2];
    if (in[3] != 0) return std::nullopt;
    if (h.layer < 1 || h.total < 1 || h.layer > h.total) return std::nullopt;
    if (h.last > 1) return std::nullopt;
    if ((h.last == 1) != (h.layer == h.total)) return std::nullopt;
    return h;
}

std::size_t raw_image_size(const j2k::image& img) noexcept { return raw_size(img); }

void encode_image_raw_into(const j2k::image& img, std::span<std::uint8_t> out)
{
    pack_raw(img, out);
}

std::vector<std::uint8_t> encode_image_raw(const j2k::image& img)
{
    std::vector<std::uint8_t> out(raw_size(img));
    pack_raw(img, out);
    return out;
}

j2k::image decode_image_raw(std::span<const std::uint8_t> in) { return unpack_raw(in); }

}  // namespace runtime::net
