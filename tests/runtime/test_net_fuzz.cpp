// Wire-protocol fuzzing for the J2NE framing layer: mutated request frames
// (byte flips, truncations, splices, targeted header corruption, hostile
// progressive flags) thrown at a live in-process net::server, and mutated
// streaming response payloads thrown at the client-side parsers.  The
// contract on both sides: a typed status / nullopt / documented exception or
// a clean connection close — never a crash, hang, or sanitizer report.
// Deterministic: fixed xorshift64 seeds drive every mutation, so failures
// replay exactly.
//
// Iteration count scales with the FUZZ_ITERS environment variable (default
// 150 per direction); CI's nightly schedule raises it.
#include <runtime/net/client.hpp>
#include <runtime/net/server.hpp>

#include <ccsds/ccsds123.hpp>
#include <j2k/j2k.hpp>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace {

namespace net = runtime::net;

/// xorshift64: tiny, deterministic, good enough to drive mutations.
class xorshift64 {
public:
    explicit xorshift64(std::uint64_t seed) : s_{seed ? seed : 0x9E3779B97F4A7C15ull}
    {
    }
    std::uint64_t next()
    {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_;
    }
    /// Uniform-ish value in [0, n).
    std::size_t below(std::size_t n) { return n ? next() % n : 0; }

private:
    std::uint64_t s_;
};

int fuzz_iters()
{
    if (const char* env = std::getenv("FUZZ_ITERS")) {
        const int v = std::atoi(env);
        if (v > 0) return v;
    }
    return 150;
}

std::vector<std::uint8_t> make_stream(int layers)
{
    j2k::codec_params p;
    p.tile_width = 32;
    p.tile_height = 32;
    p.quality_layers = layers;
    return j2k::encode(j2k::make_test_image(64, 64, 1), p);
}

/// One framed request (header + payload) ready for mutation.
std::vector<std::uint8_t> make_frame(const std::vector<std::uint8_t>& cs,
                                     bool progressive)
{
    net::request_header h;
    h.priority_raw = 0;
    h.format_raw = 0;
    h.flags = progressive ? net::k_flag_progressive : 0;
    h.request_id = 1;
    h.payload_len = static_cast<std::uint32_t>(cs.size());
    std::vector<std::uint8_t> frame(net::k_header_size);
    net::encode_request_header(h, frame.data());
    frame.insert(frame.end(), cs.begin(), cs.end());
    return frame;
}

/// Apply one randomly chosen mutation, skewed toward the 20-byte header
/// where a flipped byte changes framing control flow rather than payload.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& seed,
                                 xorshift64& rng)
{
    std::vector<std::uint8_t> out = seed;
    switch (rng.below(6)) {
    case 0: {  // flip 1..8 random bytes anywhere
        const std::size_t flips = 1 + rng.below(8);
        for (std::size_t i = 0; i < flips && !out.empty(); ++i)
            out[rng.below(out.size())] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
        break;
    }
    case 1: {  // corrupt the frame header specifically
        const std::size_t region = std::min<std::size_t>(out.size(),
                                                         net::k_header_size);
        const std::size_t flips = 1 + rng.below(4);
        for (std::size_t i = 0; i < flips && region; ++i)
            out[rng.below(region)] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
        break;
    }
    case 2:  // truncate to a random prefix (possibly empty)
        out.resize(rng.below(out.size() + 1));
        break;
    case 3: {  // splice: overwrite a run with bytes from elsewhere
        if (out.size() > 8) {
            const std::size_t len = 1 + rng.below(out.size() / 4);
            const std::size_t dst = rng.below(out.size() - len);
            const std::size_t src = rng.below(out.size() - len);
            for (std::size_t i = 0; i < len; ++i) out[dst + i] = out[src + i];
        }
        break;
    }
    case 4: {  // insert random garbage mid-frame
        const std::size_t at = rng.below(out.size() + 1);
        const std::size_t len = 1 + rng.below(32);
        std::vector<std::uint8_t> junk(len);
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), junk.begin(),
                   junk.end());
        break;
    }
    default: {  // delete a random run
        if (out.size() > 4) {
            const std::size_t len = 1 + rng.below(out.size() / 2);
            const std::size_t at = rng.below(out.size() - len);
            out.erase(out.begin() + static_cast<std::ptrdiff_t>(at),
                      out.begin() + static_cast<std::ptrdiff_t>(at + len));
        }
        break;
    }
    }
    return out;
}

/// Read exactly `len` bytes.  Returns bytes read; < len means clean EOF.
/// The socket carries a receive timeout — expiry fails the test (a hang).
std::size_t recv_upto(int fd, std::uint8_t* data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::recv(fd, data + off, len - off, 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            EXPECT_TRUE(errno != EAGAIN && errno != EWOULDBLOCK)
                << "server hung: no response and no close within the timeout";
            return off;  // timeout or reset — either way, stop reading
        }
        if (n == 0) return off;  // clean close
        off += static_cast<std::size_t>(n);
    }
    return off;
}

/// Throw one mutated frame at the server: every byte that comes back must
/// parse as well-formed response frames until the server closes the
/// connection; a receive timeout (hang) fails.
void expect_clean_exchange(std::uint16_t port,
                           const std::vector<std::uint8_t>& frame,
                           std::uint64_t iter)
{
    net::client cli{"127.0.0.1", port};
    timeval tv{};
    tv.tv_sec = 10;  // generous: decode of a surviving frame counts too
    ::setsockopt(cli.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    std::size_t off = 0;
    while (off < frame.size()) {
        const ssize_t n =
            ::send(cli.fd(), frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) return;  // server already refused and closed — fine
        off += static_cast<std::size_t>(n);
    }
    cli.shutdown_write();  // EOF ends any wait for missing payload bytes

    for (;;) {
        std::uint8_t hdr[net::k_header_size];
        const std::size_t got = recv_upto(cli.fd(), hdr, sizeof hdr);
        if (got == 0) return;  // clean close
        ASSERT_EQ(got, sizeof hdr) << "iter " << iter << ": torn response header";
        const auto h = net::decode_response_header(hdr);
        ASSERT_TRUE(h) << "iter " << iter << ": malformed response header";
        std::vector<std::uint8_t> payload(h->payload_len);
        if (h->payload_len) {
            ASSERT_EQ(recv_upto(cli.fd(), payload.data(), payload.size()),
                      payload.size())
                << "iter " << iter << ": torn response payload";
        }
        if (h->st == net::status::streaming) {
            EXPECT_TRUE(net::decode_layer_header(payload))
                << "iter " << iter << ": streaming frame without a sub-header";
        }
    }
}

TEST(NetFuzz, MutatedRequestFramesNeverCrashOrHangTheServer)
{
    net::server_config cfg;
    cfg.service.workers = 2;
    cfg.max_payload = 1u << 20;
    net::server srv{cfg};
    srv.start();

    const std::vector<std::uint8_t> plain = make_stream(1);
    const std::vector<std::vector<std::uint8_t>> seeds = {
        make_frame(plain, false),
        make_frame(make_stream(4), true),  // progressive: streamed responses
    };
    const int iters = fuzz_iters();
    std::uint64_t iter = 0;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        xorshift64 rng{0xF8A3EDull * (s + 1)};
        for (int i = 0; i < iters; ++i, ++iter)
            expect_clean_exchange(srv.port(), mutate(seeds[s], rng), iter);
        if (HasFatalFailure()) break;
    }

    // Frames that survived mutation were admitted as real decode jobs; the
    // server keeps draining them after their connections vanish.  Wait for
    // the backlog so the health check below isn't shed by a full queue.
    for (int spin = 0; spin < 3000; ++spin) {
        const auto m = srv.service().metrics();
        if (m.jobs_submitted == m.jobs_completed + m.jobs_failed +
                                    m.jobs_rejected + m.jobs_dropped)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // The server survived the barrage and still serves valid traffic.
    net::client cli{"127.0.0.1", srv.port()};
    const auto r = cli.decode({plain, 0, net::result_format::raw, 99});
    ASSERT_TRUE(r.ok()) << net::status_name(r.st) << ": " << r.message() << "\n"
                        << srv.service().metrics().dump();
    EXPECT_EQ(net::decode_image_raw(r.payload), j2k::decoder{plain}.decode_all());
    srv.stop();
}

/// Codec-byte sweep on one live connection: every possible codec id on an
/// otherwise valid frame.  Known codecs answer ok or a typed decode error
/// (a j2k payload is garbage to ccsds — that is malformed_codestream, not a
/// crash); every unknown id is a typed unsupported_codec rejection.  The
/// connection must survive all 256, because a structurally valid frame never
/// costs the client its connection.
TEST(NetFuzz, CodecByteSweepAnswersTypedOnOneSurvivingConnection)
{
    net::server_config cfg;
    cfg.service.workers = 2;
    net::server srv{cfg};
    srv.start();
    const auto cs = make_stream(1);
    const j2k::image serial = j2k::decoder{cs}.decode_all();

    net::client cli{"127.0.0.1", srv.port()};
    for (int c = 0; c < 256; ++c) {
        net::request r;
        r.codestream = cs;
        r.request_id = static_cast<std::uint32_t>(c);
        r.codec = static_cast<std::uint8_t>(c);
        const auto resp = cli.decode(r);
        EXPECT_EQ(resp.request_id, static_cast<std::uint32_t>(c));
        EXPECT_EQ(resp.codec, static_cast<std::uint8_t>(c))
            << "response must echo the request codec byte";
        if (c == 0) {
            ASSERT_TRUE(resp.ok()) << resp.message();
            EXPECT_EQ(net::decode_image_raw(resp.payload), serial);
        } else if (c == 1) {
            EXPECT_EQ(resp.st, net::status::malformed_codestream)
                << "codec " << c << ": " << resp.message();
        } else {
            EXPECT_EQ(resp.st, net::status::unsupported_codec)
                << "codec " << c << ": " << resp.message();
            EXPECT_FALSE(resp.message().empty());
        }
    }
    srv.stop();
}

/// Codec/flag mismatch: progressive streaming requested from a codec whose
/// capabilities say no.  Typed rejection, connection survives, and a plain
/// decode of the same bytes still succeeds afterwards.
TEST(NetFuzz, ProgressiveFlagOnNonProgressiveCodecIsTypedNotFatal)
{
    net::server_config cfg;
    cfg.service.workers = 2;
    net::server srv{cfg};
    srv.start();

    const codec::image cube = codec::make_test_image(24, 16, 4, 16, 17);
    const auto cs = ccsds::encode(cube);

    net::client cli{"127.0.0.1", srv.port()};
    net::request r;
    r.codestream = cs;
    r.request_id = 5;
    r.codec = ccsds::k_codec_wire_id;
    r.progressive = true;
    const auto rej = cli.decode(r);
    EXPECT_EQ(rej.st, net::status::unsupported_codec) << rej.message();
    EXPECT_FALSE(rej.message().empty());

    r.progressive = false;
    r.request_id = 6;
    const auto ok = cli.decode(r);
    ASSERT_TRUE(ok.ok()) << ok.message();
    EXPECT_EQ(net::decode_image_raw(ok.payload), cube);
    srv.stop();
}

/// Client-side parsers against mutated streaming payloads: the layer
/// sub-header validates or rejects, and the raw-image parser either returns
/// an image or throws std::runtime_error — nothing else escapes.
TEST(NetFuzz, MutatedStreamingPayloadsNeverEscapeTheParserContract)
{
    const j2k::image img = j2k::make_test_image(33, 17, 3);
    std::vector<std::uint8_t> payload(net::k_layer_header_size);
    net::encode_layer_header({2, 3, 0}, payload.data());
    const auto raw = net::encode_image_raw(img);
    payload.insert(payload.end(), raw.begin(), raw.end());

    xorshift64 rng{0x57E4Aull};
    const int iters = fuzz_iters();
    for (int i = 0; i < iters; ++i) {
        const auto bytes = mutate(payload, rng);
        const auto lh = net::decode_layer_header(bytes);
        if (!lh) continue;  // rejected — fine
        EXPECT_GE(lh->layer, 1) << "iter " << i;
        EXPECT_LE(lh->layer, lh->total) << "iter " << i;
        try {
            const j2k::image out = net::decode_image_raw(
                std::span<const std::uint8_t>{bytes}.subspan(
                    net::k_layer_header_size));
            EXPECT_GT(out.width(), 0) << "iter " << i;
            EXPECT_GT(out.height(), 0) << "iter " << i;
        } catch (const std::runtime_error&) {
            // Documented failure mode for malformed payloads.
        }
    }
}

/// Truncated streaming responses: every prefix of a valid streamed reply
/// must part cleanly at the client — a complete well-formed frame, or a
/// header/payload rejection, never a crash.
TEST(NetFuzz, TruncatedStreamedResponsesPartCleanly)
{
    std::vector<std::uint8_t> wire(net::k_header_size);
    const j2k::image img = j2k::make_test_image(16, 16, 1);
    std::vector<std::uint8_t> payload(net::k_layer_header_size);
    net::encode_layer_header({1, 1, 1}, payload.data());
    const auto raw = net::encode_image_raw(img);
    payload.insert(payload.end(), raw.begin(), raw.end());
    net::response_header rh;
    rh.st = net::status::streaming;
    rh.request_id = 7;
    rh.payload_len = static_cast<std::uint32_t>(payload.size());
    net::encode_response_header(rh, wire.data());
    wire.insert(wire.end(), payload.begin(), payload.end());

    for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
        const std::span<const std::uint8_t> prefix{wire.data(), cut};
        const auto h = net::decode_response_header(prefix);
        if (cut < net::k_header_size) {
            EXPECT_FALSE(h) << "cut " << cut;
            continue;
        }
        ASSERT_TRUE(h) << "cut " << cut;
        const auto body = prefix.subspan(net::k_header_size);
        if (body.size() < h->payload_len) continue;  // frame incomplete: wait
        const auto lh = net::decode_layer_header(body);
        ASSERT_TRUE(lh) << "cut " << cut;
        EXPECT_NO_THROW(
            (void)net::decode_image_raw(body.subspan(net::k_layer_header_size)))
            << "cut " << cut;
    }
}

}  // namespace
