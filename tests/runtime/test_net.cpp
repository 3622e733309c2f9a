// runtime::net — wire protocol codecs, loopback end-to-end decode, torn and
// malformed frames, mid-frame disconnect, pipelined-burst batching,
// per-priority shedding, concurrent connections, fd exhaustion, and the
// socket layer's failure paths (start and connect).
#include <runtime/net/client.hpp>
#include <runtime/net/server.hpp>

#include "socket_probe.hpp"

#include <ccsds/ccsds123.hpp>
#include <j2k/j2k.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace {

using runtime::backpressure;
using runtime::priority;
namespace net = runtime::net;

std::vector<std::uint8_t> make_stream(int w, int h, int comps, int tile,
                                      j2k::wavelet mode = j2k::wavelet::w5_3,
                                      int layers = 1)
{
    const j2k::image img = j2k::make_test_image(w, h, comps);
    j2k::codec_params p;
    p.tile_width = tile;
    p.tile_height = tile;
    p.mode = mode;
    p.quality_layers = layers;
    return j2k::encode(img, p);
}

net::server_config quiet_config()
{
    net::server_config cfg;  // port 0 = ephemeral
    cfg.service.workers = 2;
    return cfg;
}

/// This process's resident set (VmRSS) in bytes; 0 without /proc.
std::int64_t rss_bytes()
{
    return static_cast<std::int64_t>(runtime::read_process_memory().resident_bytes);
}

/// Poll `done` every millisecond for up to five seconds; true once it holds.
template <typename Pred>
bool wait_for(Pred done)
{
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

// ---- protocol unit tests ---------------------------------------------------

TEST(NetProtocol, RequestHeaderRoundTripsAndValidates)
{
    net::request_header h;
    h.priority_raw = 0;
    h.format_raw = 1;
    h.request_id = 0xDEADBEEF;
    h.payload_len = 12345;
    std::uint8_t buf[net::k_header_size];
    net::encode_request_header(h, buf);
    const char* why = nullptr;
    const auto back = net::decode_request_header(buf, &why);
    ASSERT_TRUE(back) << why;
    EXPECT_EQ(back->priority_raw, 0);
    EXPECT_EQ(back->format_raw, 1);
    EXPECT_EQ(back->request_id, 0xDEADBEEFu);
    EXPECT_EQ(back->payload_len, 12345u);

    // Each structural violation is rejected with a reason.
    auto corrupt = [&](std::size_t off, std::uint8_t v) {
        std::uint8_t bad[net::k_header_size];
        std::memcpy(bad, buf, sizeof bad);
        bad[off] = v;
        const char* reason = nullptr;
        EXPECT_FALSE(net::decode_request_header(bad, &reason));
        EXPECT_NE(reason, nullptr);
    };
    corrupt(0, 0x00);  // magic
    corrupt(4, 99);    // version
    corrupt(5, 2);     // priority
    corrupt(6, 7);     // format
    corrupt(7, 0x08);  // unknown flag bit
    corrupt(7, 0xF8);  // all unknown flag bits
    corrupt(7, net::k_flag_cache_bypass | net::k_flag_cache_pin);  // contradictory

    // Bits 0-2 of byte 7 are the progressive / cache-bypass / cache-pin
    // flags — valid (bypass and pin individually, never together).
    auto accept = [&](std::uint8_t flags) {
        std::uint8_t ok[net::k_header_size];
        std::memcpy(ok, buf, sizeof ok);
        ok[7] = flags;
        const auto fh = net::decode_request_header(ok);
        ASSERT_TRUE(fh);
        EXPECT_EQ(fh->flags, flags);
    };
    accept(net::k_flag_progressive);
    accept(net::k_flag_cache_bypass);
    accept(net::k_flag_cache_pin);
    accept(net::k_flag_progressive | net::k_flag_cache_pin);
    EXPECT_FALSE(back->progressive());
    EXPECT_FALSE(back->cache_bypass());
    EXPECT_FALSE(back->cache_pin());
}

TEST(NetProtocol, CodecByteRoundTripsAndReservedBytesMustBeZero)
{
    net::request_header h;
    h.codec = 42;  // any value parses — unknown ids are rejected typed, later
    h.request_id = 9;
    h.payload_len = 10;
    std::uint8_t buf[net::k_header_size];
    net::encode_request_header(h, buf);
    const auto back = net::decode_request_header(buf);
    ASSERT_TRUE(back);
    EXPECT_EQ(back->codec, 42);

    // The three bytes after the codec id are reserved-zero in v2; a nonzero
    // value is a structural rejection, which is what lets them become fields
    // later without ambiguity.
    for (const std::size_t off : {std::size_t{9}, std::size_t{10}, std::size_t{11}}) {
        std::uint8_t bad[net::k_header_size];
        std::memcpy(bad, buf, sizeof bad);
        bad[off] = 1;
        const char* reason = nullptr;
        EXPECT_FALSE(net::decode_request_header(bad, &reason)) << off;
        ASSERT_NE(reason, nullptr);
        EXPECT_STREQ(reason, "nonzero reserved bytes");
    }

    // The response header echoes the codec byte.
    net::response_header rh;
    rh.st = net::status::ok;
    rh.codec = 42;
    rh.request_id = 9;
    rh.payload_len = 0;
    std::uint8_t rbuf[net::k_header_size];
    net::encode_response_header(rh, rbuf);
    const auto rback = net::decode_response_header(rbuf);
    ASSERT_TRUE(rback);
    EXPECT_EQ(rback->codec, 42);
    EXPECT_EQ(rback->st, net::status::ok);
}

TEST(NetProtocol, LayerHeaderRoundTripsAndValidates)
{
    net::layer_header h;
    h.layer = 2;
    h.total = 5;
    h.last = 0;
    std::uint8_t buf[net::k_layer_header_size];
    net::encode_layer_header(h, buf);
    const auto back = net::decode_layer_header(buf);
    ASSERT_TRUE(back);
    EXPECT_EQ(back->layer, 2);
    EXPECT_EQ(back->total, 5);
    EXPECT_EQ(back->last, 0);

    auto reject = [](std::uint8_t layer, std::uint8_t total, std::uint8_t last,
                     std::uint8_t reserved = 0) {
        const std::uint8_t bad[net::k_layer_header_size] = {layer, total, last,
                                                            reserved};
        EXPECT_FALSE(net::decode_layer_header(bad))
            << int(layer) << "/" << int(total) << "/" << int(last);
    };
    reject(0, 5, 0);     // layer below 1
    reject(6, 5, 0);     // layer above total
    reject(3, 0, 0);     // zero total
    reject(2, 5, 2);     // last out of range
    reject(5, 5, 0);     // final layer must be flagged last
    reject(2, 5, 1);     // non-final layer must not be flagged last
    reject(2, 5, 0, 9);  // reserved byte must be zero

    // Final layer, correctly flagged.
    const std::uint8_t fin[net::k_layer_header_size] = {5, 5, 1, 0};
    ASSERT_TRUE(net::decode_layer_header(fin));

    // Short input.
    EXPECT_FALSE(net::decode_layer_header(std::span<const std::uint8_t>{buf, 3}));
}

TEST(NetProtocol, ResponseHeaderRoundTrips)
{
    net::response_header h;
    h.st = net::status::shed;
    h.request_id = 7;
    h.payload_len = 0;
    std::uint8_t buf[net::k_header_size];
    net::encode_response_header(h, buf);
    const auto back = net::decode_response_header(buf);
    ASSERT_TRUE(back);
    EXPECT_EQ(back->st, net::status::shed);
    EXPECT_EQ(back->request_id, 7u);
    EXPECT_STREQ(net::status_name(back->st), "shed");
}

TEST(NetProtocol, RawImagePayloadRoundTrips)
{
    for (const int depth : {8, 12}) {
        const j2k::image img = j2k::make_test_image(17, 9, 3, depth);
        const auto bytes = net::encode_image_raw(img);
        EXPECT_EQ(bytes.size(), net::raw_image_size(img));
        EXPECT_EQ(net::decode_image_raw(bytes), img);
        // The in-place encoder writes the same bytes into a buffer of exactly
        // that size, and refuses any other.
        std::vector<std::uint8_t> frame(5 + bytes.size(), 0xEE);
        net::encode_image_raw_into(img, std::span{frame}.subspan(5));
        EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), frame.begin() + 5));
        EXPECT_THROW(net::encode_image_raw_into(img, std::span{frame}.subspan(4)),
                     std::invalid_argument);
    }
    EXPECT_THROW((void)net::decode_image_raw(std::vector<std::uint8_t>(4, 0)),
                 std::runtime_error);
}

TEST(NetProtocol, RawImagePayloadCarriesMultispectralCubes)
{
    // The 4-component ceiling is gone: any band count the image currency
    // admits frames and parses.
    for (const int bands : {5, 17, 255}) {
        const codec::image cube = codec::make_test_image(7, 5, bands, 16, 3);
        EXPECT_EQ(net::decode_image_raw(net::encode_image_raw(cube)), cube)
            << bands;
    }
}

TEST(NetProtocol, RawImagePayloadBytesArePinned)
{
    // Exact bytes, not a round trip: the serving benchmark derives its
    // expected payloads from encode_image_raw itself, so a wrong byte here
    // would be invisible everywhere else.
    const auto fill = [](codec::image& img, std::vector<std::vector<std::int32_t>> v) {
        for (int c = 0; c < img.components(); ++c)
            img.comp(c).samples() = std::move(v[static_cast<std::size_t>(c)]);
    };

    // 8-bit, 3 components, 3x2: one byte per sample, planar, row-major,
    // negatives clamped to 0 and values above maxv to 255.
    codec::image narrow{3, 2, 3, 8};
    fill(narrow, {{0, 255, -5, 300, 17, 128}, {1, 2, 3, 4, 5, 6}, {-1, 256, 127, 0, 200, 9}});
    const std::vector<std::uint8_t> want8 = {
        0, 0, 0, 3, 0, 0, 0, 2, 3, 8, 0, 0,         // w, h, components, depth, pad
        0x00, 0xFF, 0x00, 0xFF, 0x11, 0x80,         // component 0
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06,         // component 1
        0x00, 0xFF, 0x7F, 0x00, 0xC8, 0x09,         // component 2
    };
    EXPECT_EQ(net::encode_image_raw(narrow), want8);

    // 12-bit: two bytes per sample, big-endian, clamped to [0, 4095].
    codec::image deep{2, 1, 3, 12};
    fill(deep, {{0x0ABC, 5000}, {-1, 1}, {4095, 0x0100}});
    const std::vector<std::uint8_t> want12 = {
        0, 0, 0, 2, 0, 0, 0, 1, 3, 12, 0, 0,
        0x0A, 0xBC, 0x0F, 0xFF,
        0x00, 0x00, 0x00, 0x01,
        0x0F, 0xFF, 0x01, 0x00,
    };
    EXPECT_EQ(net::encode_image_raw(deep), want12);

    // 16-bit: the full range, clamped to [0, 65535]; 9-bit is already wide.
    codec::image full{1, 1, 3, 16};
    fill(full, {{70000}, {0xBEEF}, {-70000}});
    const std::vector<std::uint8_t> want16 = {
        0, 0, 0, 1, 0, 0, 0, 1, 3, 16, 0, 0, 0xFF, 0xFF, 0xBE, 0xEF, 0x00, 0x00,
    };
    EXPECT_EQ(net::encode_image_raw(full), want16);
    codec::image nine{2, 1, 1, 9};
    fill(nine, {{511, 512}});
    const std::vector<std::uint8_t> want9 = {
        0, 0, 0, 2, 0, 0, 0, 1, 1, 9, 0, 0, 0x01, 0xFF, 0x01, 0xFF,
    };
    EXPECT_EQ(net::encode_image_raw(nine), want9);
}

// ---- loopback end-to-end ---------------------------------------------------

TEST(NetServer, LoopbackDecodeRoundTripRawAndPnm)
{
    const auto cs = make_stream(128, 128, 3, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    auto raw = cli.decode({cs, 1, net::result_format::raw, 1});
    ASSERT_TRUE(raw.ok()) << raw.message();
    EXPECT_EQ(raw.request_id, 1u);
    EXPECT_EQ(net::decode_image_raw(raw.payload), serial);

    auto pnm = cli.decode({cs, 0, net::result_format::pnm, 2});
    ASSERT_TRUE(pnm.ok()) << pnm.message();
    EXPECT_EQ(pnm.payload, j2k::pnm_bytes(serial));

    srv.stop();
    const auto st = srv.stats();
    EXPECT_EQ(st.frames_in, 2u);
    EXPECT_EQ(st.responses_out, 2u);
    EXPECT_GT(st.bytes_in, cs.size());
    EXPECT_GT(st.bytes_out, 0u);
}

TEST(NetServer, CachedRawAndPnmResponsesEqualTheEncodersOfADirectDecode)
{
    // The cache keeps results packed in the raw layout: a hit's raw payload
    // is a copy of those bytes and its PNM payload is built from them.  Both
    // must be byte-equal to what the wire encoders make of a direct decode,
    // at 1 byte per sample (8-bit RGB) and at 2 (a 12-bit j2k plane, a
    // 16-bit CCSDS cube), for the miss and for the hits behind it.
    j2k::codec_params deep;
    deep.tile_width = 32;
    deep.tile_height = 32;
    const codec::image cube = codec::make_test_image(24, 16, 3, 16, 7);
    struct item {
        std::vector<std::uint8_t> cs;
        std::uint8_t codec;
        j2k::image direct;
    };
    std::vector<item> items;
    items.push_back({make_stream(96, 64, 3, 32), 0, {}});
    items.push_back({j2k::encode(j2k::make_test_image(48, 40, 1, 12), deep), 0, {}});
    items.push_back({ccsds::encode(cube), ccsds::k_codec_wire_id, cube});
    for (int i = 0; i < 2; ++i) items[i].direct = j2k::decoder{items[i].cs}.decode_all();
    EXPECT_EQ(ccsds::decode(items[2].cs), cube);

    net::server_config cfg = quiet_config();
    cfg.service.cache_bytes = 16u << 20;
    net::server srv{cfg};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};
    std::uint32_t id = 0;
    for (const item& it : items) {
        const auto raw = net::encode_image_raw(it.direct);
        const auto pnm = j2k::pnm_bytes(it.direct);
        for (int round = 0; round < 2; ++round) {  // the miss, then hits
            net::request r;
            r.codestream = it.cs;
            r.codec = it.codec;
            r.request_id = ++id;
            const auto got_raw = cli.decode(r);
            ASSERT_TRUE(got_raw.ok()) << got_raw.message();
            EXPECT_EQ(got_raw.payload, raw) << "request " << id;
            r.format = net::result_format::pnm;
            r.request_id = ++id;
            const auto got_pnm = cli.decode(r);
            ASSERT_TRUE(got_pnm.ok()) << got_pnm.message();
            EXPECT_EQ(got_pnm.payload, pnm) << "request " << id;
        }
    }
    const auto m = srv.service().metrics();
    EXPECT_EQ(m.cache_misses, items.size());
    EXPECT_EQ(m.cache_hits, 3 * items.size());
    srv.stop();
}

TEST(NetServer, CcsdsCubesDecodeOverTheSameWireAndCache)
{
    // The second registered codec through the identical serving stack: same
    // framing, same pool, same result cache — only the codec byte differs.
    const codec::image cube = codec::make_test_image(48, 32, 8, 16, 42);
    const auto cs = ccsds::encode(cube);

    net::server_config cfg = quiet_config();
    cfg.service.cache_bytes = 16u << 20;
    net::server srv{cfg};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    net::request r;
    r.codestream = cs;
    r.request_id = 1;
    r.codec = ccsds::k_codec_wire_id;
    const auto first = cli.decode(r);
    ASSERT_TRUE(first.ok()) << first.message();
    EXPECT_EQ(first.codec, ccsds::k_codec_wire_id);
    EXPECT_EQ(net::decode_image_raw(first.payload), cube);  // lossless e2e

    r.request_id = 2;
    const auto repeat = cli.decode(r);
    ASSERT_TRUE(repeat.ok()) << repeat.message();
    EXPECT_EQ(repeat.payload, first.payload);

    const auto m = srv.service().metrics();
    EXPECT_EQ(m.cache_misses, 1u);
    EXPECT_EQ(m.cache_hits, 1u);
    bool found = false;
    for (const auto& c : m.by_codec)
        if (c.name == "ccsds123") {
            found = true;
            EXPECT_EQ(c.completed, 2u);
            EXPECT_EQ(c.cache_hits, 1u);
            EXPECT_EQ(c.cache_misses, 1u);
        }
    EXPECT_TRUE(found);

    // Both codecs interleave on one connection without crosstalk.
    const auto jcs = make_stream(64, 64, 1, 64);
    net::request jr;
    jr.codestream = jcs;
    jr.request_id = 3;
    const auto jres = cli.decode(jr);
    ASSERT_TRUE(jres.ok()) << jres.message();
    EXPECT_EQ(net::decode_image_raw(jres.payload), j2k::decoder{jcs}.decode_all());
    srv.stop();
}

TEST(NetServer, UnknownCodecIdIsATypedRejectionNotAClosedConnection)
{
    const auto cs = make_stream(64, 64, 1, 64);
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    net::request r;
    r.codestream = cs;
    r.request_id = 31;
    r.codec = 200;
    const auto rej = cli.decode(r);
    EXPECT_EQ(rej.st, net::status::unsupported_codec);
    EXPECT_EQ(rej.codec, 200);
    EXPECT_NE(rej.message().find("codec 200"), std::string::npos)
        << rej.message();

    // The frame was structurally valid, so the connection still serves.
    r.codec = 0;
    r.request_id = 32;
    const auto ok = cli.decode(r);
    ASSERT_TRUE(ok.ok()) << ok.message();
    EXPECT_EQ(ok.request_id, 32u);
    srv.stop();
}

TEST(NetServer, TornFramesReassembleAcrossManySends)
{
    // Drip the frame a few bytes at a time: header split mid-field, payload
    // split at awkward points — the parser must reassemble it all.
    const auto cs = make_stream(64, 64, 1, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    net::request_header h;
    h.priority_raw = 0;
    h.format_raw = 0;
    h.request_id = 42;
    h.payload_len = static_cast<std::uint32_t>(cs.size());
    std::vector<std::uint8_t> wire(net::k_header_size);
    net::encode_request_header(h, wire.data());
    wire.insert(wire.end(), cs.begin(), cs.end());

    std::size_t off = 0;
    const std::size_t chunks[] = {3, 7, 1, 5, 64, 129};
    std::size_t ci = 0;
    while (off < wire.size()) {
        const std::size_t n = std::min(chunks[ci++ % std::size(chunks)],
                                       wire.size() - off);
        ASSERT_EQ(::send(cli.fd(), wire.data() + off, n, 0),
                  static_cast<ssize_t>(n));
        off += n;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto r = cli.recv();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.request_id, 42u);
    EXPECT_EQ(net::decode_image_raw(r.payload), serial);
}

TEST(NetServer, OversizedPayloadLenIsRefusedAndConnectionCloses)
{
    auto cfg = quiet_config();
    cfg.max_payload = 1024;
    net::server srv{cfg};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    net::request_header h;
    h.request_id = 9;
    h.payload_len = 4096;  // above the limit — refused from the header alone
    std::uint8_t buf[net::k_header_size];
    net::encode_request_header(h, buf);
    ASSERT_EQ(::send(cli.fd(), buf, sizeof buf, 0),
              static_cast<ssize_t>(sizeof buf));
    const auto r = cli.recv();
    EXPECT_EQ(r.st, net::status::too_large);
    EXPECT_EQ(r.request_id, 9u);
    // The server refuses to resynchronise: the connection is closed.
    EXPECT_THROW((void)cli.recv(), std::runtime_error);
    EXPECT_EQ(srv.stats().bad_frames, 1u);
}

TEST(NetServer, DeclaredPayloadIsCommittedOnlyAsItsBytesArrive)
{
    // A header may declare up to max_payload; memory must follow the bytes
    // that actually arrive, or one 20-byte header pins 64 MiB.
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};
    const std::int64_t before = rss_bytes();
    if (before == 0) GTEST_SKIP() << "no /proc/self/status";

    net::request_header h;
    h.request_id = 5;
    h.payload_len = 60u << 20;
    std::vector<std::uint8_t> wire(net::k_header_size + 1024, 0x5A);
    net::encode_request_header(h, wire.data());
    ASSERT_EQ(::send(cli.fd(), wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    ASSERT_TRUE(wait_for([&] { return srv.stats().bytes_in >= wire.size(); }));
    EXPECT_LT(rss_bytes() - before, std::int64_t{8} << 20);
}

TEST(NetServer, GarbageHeaderIsRefusedAsBadFrame)
{
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};
    std::uint8_t junk[net::k_header_size];
    std::memset(junk, 0xAB, sizeof junk);
    ASSERT_EQ(::send(cli.fd(), junk, sizeof junk, 0),
              static_cast<ssize_t>(sizeof junk));
    const auto r = cli.recv();
    EXPECT_EQ(r.st, net::status::bad_frame);
    EXPECT_FALSE(r.message().empty());
    EXPECT_THROW((void)cli.recv(), std::runtime_error);
}

TEST(NetServer, MalformedCodestreamGetsTypedErrorAndConnectionSurvives)
{
    // A well-framed request with a garbage payload is an *application* error:
    // typed response, connection stays usable for the next request.
    const auto cs = make_stream(64, 64, 1, 64);
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    const std::vector<std::uint8_t> junk(256, 0x5A);
    const auto bad = cli.decode({junk, 1, net::result_format::raw, 1});
    EXPECT_EQ(bad.st, net::status::malformed_codestream);
    EXPECT_FALSE(bad.message().empty());

    const auto good = cli.decode({cs, 1, net::result_format::raw, 2});
    ASSERT_TRUE(good.ok()) << good.message();
    EXPECT_EQ(net::decode_image_raw(good.payload), j2k::decoder{cs}.decode_all());
}

TEST(NetServer, EmptyPayloadDecodesToMalformedNotACrash)
{
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};
    const auto r = cli.decode({{}, 1, net::result_format::raw, 5});
    EXPECT_EQ(r.st, net::status::malformed_codestream);
    EXPECT_EQ(r.request_id, 5u);
}

TEST(NetServer, MidFrameDisconnectLeavesServerServing)
{
    const auto cs = make_stream(64, 64, 1, 64);
    net::server srv{quiet_config()};
    srv.start();
    {
        net::client cli{"127.0.0.1", srv.port()};
        net::request_header h;
        h.payload_len = static_cast<std::uint32_t>(cs.size());
        std::uint8_t buf[net::k_header_size];
        net::encode_request_header(h, buf);
        // Header plus half the payload, then vanish.
        ASSERT_EQ(::send(cli.fd(), buf, sizeof buf, 0),
                  static_cast<ssize_t>(sizeof buf));
        ASSERT_GT(::send(cli.fd(), cs.data(), cs.size() / 2, 0), 0);
    }  // client destructor closes the socket mid-frame
    // A fresh connection still gets full service.
    net::client cli2{"127.0.0.1", srv.port()};
    const auto r = cli2.decode({cs, 1, net::result_format::raw, 1});
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(net::decode_image_raw(r.payload), j2k::decoder{cs}.decode_all());
}

TEST(NetServer, PipelinedBurstOfSmallJobsIsBatched)
{
    // 8 small requests written as one send: they land together, the loop
    // parses them in one iteration and admits them through submit_batch —
    // pool submissions stay well below the job count.
    const auto cs = make_stream(64, 64, 1, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    auto cfg = quiet_config();
    cfg.small_job_threshold = 1u << 20;  // everything here counts as small
    cfg.service.queue_capacity = 64;
    net::server srv{cfg};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    constexpr std::uint32_t n = 8;
    std::vector<net::request> reqs;
    for (std::uint32_t i = 0; i < n; ++i)
        reqs.push_back({cs, 1, net::result_format::raw, i});
    cli.send_burst(reqs);

    // Responses arrive in completion order; collect and correlate by id.
    std::map<std::uint32_t, j2k::image> results;
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto r = cli.recv();
        ASSERT_TRUE(r.ok()) << r.message();
        results[r.request_id] = net::decode_image_raw(r.payload);
    }
    ASSERT_EQ(results.size(), n);
    for (const auto& [id, img] : results) EXPECT_EQ(img, serial) << id;

    const auto m = srv.service().metrics();
    EXPECT_EQ(m.jobs_submitted, n);
    // The whole point: fewer pump tasks than jobs.  The burst usually lands
    // as one readable event (one submission), but TCP may split it — allow
    // slack while still proving coalescing happened.
    EXPECT_LT(m.pool_submissions, n);
    EXPECT_GE(m.jobs_batched, 2u);
    const auto st = srv.stats();
    EXPECT_GE(st.batches, 1u);
    EXPECT_GE(st.batched_jobs, 2u);
}

TEST(NetServer, BatchFloodShedsAgainstItsOwnBoundOnly)
{
    // One worker, batch level bounded at 1: a burst of batch requests sheds
    // (typed responses, per-priority accounting) while a subsequent
    // interactive request is admitted and completes.
    const auto cs = make_stream(256, 256, 3, 32);  // 64 tiles: keeps the worker busy
    auto cfg = quiet_config();
    cfg.service.workers = 1;
    cfg.service.queue_capacity = 32;
    cfg.service.batch_capacity = 1;
    cfg.small_job_threshold = 0;  // no coalescing: each job admitted on parse
    net::server srv{cfg};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    constexpr std::uint32_t n = 8;
    std::vector<net::request> reqs;
    for (std::uint32_t i = 0; i < n; ++i)
        reqs.push_back({cs, 1, net::result_format::raw, i});
    cli.send_burst(reqs);
    int ok = 0, shed = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto r = cli.recv();
        if (r.ok())
            ++ok;
        else if (r.st == net::status::shed)
            ++shed;
        else
            FAIL() << status_name(r.st) << ": " << r.message();
    }
    EXPECT_EQ(ok + shed, static_cast<int>(n));
    EXPECT_GE(shed, 1);  // 8 rapid submits into a bound of 1 must shed
    EXPECT_GE(ok, 1);    // and the survivors decode fine

    // Interactive admission was never under pressure.
    const auto r = cli.decode({cs, 0, net::result_format::raw, 99});
    ASSERT_TRUE(r.ok()) << r.message();

    const auto m = srv.service().metrics();
    EXPECT_EQ(m.shed_by_priority[1].rejected, static_cast<std::uint64_t>(shed));
    EXPECT_EQ(m.shed_by_priority[0].rejected, 0u);
}

TEST(NetServer, ConcurrentConnectionsAllGetCorrectResults)
{
    const auto cs = make_stream(128, 128, 3, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    auto cfg = quiet_config();
    cfg.service.queue_capacity = 64;
    net::server srv{cfg};
    srv.start();

    constexpr int clients = 4, per_client = 3;
    std::vector<std::thread> threads;
    std::atomic<int> correct{0};
    for (int t = 0; t < clients; ++t)
        threads.emplace_back([&, t] {
            net::client cli{"127.0.0.1", srv.port()};
            for (int i = 0; i < per_client; ++i) {
                const auto id = static_cast<std::uint32_t>(t * 100 + i);
                const auto r = cli.decode(
                    {cs, static_cast<std::uint8_t>(i % 2), net::result_format::raw, id});
                if (r.ok() && r.request_id == id &&
                    net::decode_image_raw(r.payload) == serial)
                    correct.fetch_add(1);
            }
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(correct.load(), clients * per_client);
    EXPECT_EQ(srv.stats().connections_accepted, static_cast<std::uint64_t>(clients));
}

TEST(NetServer, StopIsIdempotentAndRestartNotRequired)
{
    net::server srv{quiet_config()};
    srv.start();
    const std::uint16_t port = srv.port();
    EXPECT_NE(port, 0);
    srv.stop();
    srv.stop();  // second stop is a no-op
}

// ---- progressive streaming -------------------------------------------------

TEST(NetStreaming, OneFrameArrivesPerLayerInOrderAndFinalMatchesDecodeAll)
{
    const int layers = 4;
    const auto cs = make_stream(96, 96, 1, 48, j2k::wavelet::w5_3, layers);
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    std::vector<net::layer_frame> seen;
    std::vector<j2k::image> images;
    const auto fin = cli.decode_progressive(
        {cs, 0, net::result_format::raw, 42}, [&](const net::layer_frame& lf) {
            seen.push_back(lf);
            seen.back().image = {};  // aliases the dead response; keep a copy
            images.push_back(net::decode_image_raw(lf.image));
        });
    ASSERT_EQ(fin.st, net::status::streaming);
    EXPECT_EQ(fin.request_id, 42u);
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(layers));
    for (int l = 0; l < layers; ++l) {
        EXPECT_EQ(seen[l].layer, l + 1);
        EXPECT_EQ(seen[l].total, layers);
        EXPECT_EQ(seen[l].last, l + 1 == layers);
        // Refinement l must match a one-shot decode capped at l+1 layers.
        j2k::decoder ref{cs};
        ref.set_max_quality_layers(l + 1);
        EXPECT_EQ(images[l], ref.decode_all()) << "layer " << l + 1;
    }
    EXPECT_EQ(images.back(), j2k::decoder{cs}.decode_all());

    srv.stop();
    const auto st = srv.stats();
    EXPECT_EQ(st.progressive_streams, 1u);
    EXPECT_EQ(st.layer_frames_out, static_cast<std::uint64_t>(layers));
    EXPECT_EQ(st.streams_cancelled, 0u);
    const auto sm = srv.service().metrics();
    EXPECT_EQ(sm.jobs_progressive, 1u);
    EXPECT_EQ(sm.layers_emitted, static_cast<std::uint64_t>(layers));
    EXPECT_GT(sm.t1_segment_bytes, 0u);
}

TEST(NetStreaming, PnmFormatStreamsToo)
{
    const auto cs = make_stream(64, 64, 3, 64, j2k::wavelet::w9_7, 2);
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};
    int frames = 0;
    const auto fin = cli.decode_progressive(
        {cs, 0, net::result_format::pnm, 7}, [&](const net::layer_frame& lf) {
            ++frames;
            if (lf.last) {
                const std::vector<std::uint8_t> pnm{lf.image.begin(),
                                                    lf.image.end()};
                EXPECT_EQ(pnm, j2k::pnm_bytes(j2k::decoder{cs}.decode_all()));
            }
        });
    EXPECT_EQ(fin.st, net::status::streaming);
    EXPECT_EQ(frames, 2);
}

TEST(NetStreaming, SingleLayerStreamEmitsOneFinalFrame)
{
    // A plain (1-layer) stream is a degenerate but valid progressive request.
    const auto cs = make_stream(64, 64, 1, 64);
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};
    int frames = 0;
    const auto fin = cli.decode_progressive(
        {cs, 0, net::result_format::raw, 1},
        [&](const net::layer_frame& lf) {
            ++frames;
            EXPECT_EQ(lf.layer, 1);
            EXPECT_EQ(lf.total, 1);
            EXPECT_TRUE(lf.last);
        });
    EXPECT_EQ(fin.st, net::status::streaming);
    EXPECT_EQ(frames, 1);
}

TEST(NetStreaming, MalformedCodestreamEndsStreamWithTypedError)
{
    std::vector<std::uint8_t> junk(512, 0x5A);
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};
    int frames = 0;
    const auto fin = cli.decode_progressive(
        {junk, 0, net::result_format::raw, 9},
        [&](const net::layer_frame&) { ++frames; });
    EXPECT_EQ(fin.st, net::status::malformed_codestream);
    EXPECT_EQ(fin.request_id, 9u);
    EXPECT_EQ(frames, 0);

    // The connection survives for normal traffic.
    const auto cs = make_stream(64, 64, 1, 64);
    const auto r = cli.decode({cs, 0, net::result_format::raw, 10});
    ASSERT_TRUE(r.ok()) << r.message();
}

TEST(NetStreaming, MidStreamDisconnectCancelsAndServerKeepsServing)
{
    // Enough layers, each costly enough, that the client can vanish with
    // refinements still queued even on a fast, busy host.
    const int layers = 8;
    const auto cs = make_stream(256, 256, 1, 64, j2k::wavelet::w5_3, layers);
    net::server srv{quiet_config()};
    srv.start();
    {
        net::client cli{"127.0.0.1", srv.port()};
        cli.send({cs, 0, net::result_format::raw, 1, /*progressive=*/true});
        // Take exactly one refinement, then vanish mid-stream.
        const auto first = cli.recv();
        ASSERT_EQ(first.st, net::status::streaming);
    }  // destructor closes the socket with layers still in flight

    // The cancel is detected when the worker next completes a layer; wait for
    // the stream to wind down, then confirm the server still serves.
    net::client cli2{"127.0.0.1", srv.port()};
    const auto r = cli2.decode({cs, 0, net::result_format::raw, 2});
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(net::decode_image_raw(r.payload), j2k::decoder{cs}.decode_all());

    for (int spin = 0; spin < 200; ++spin) {
        if (srv.stats().streams_cancelled > 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const auto st = srv.stats();
    EXPECT_EQ(st.progressive_streams, 1u);
    EXPECT_EQ(st.streams_cancelled, 1u);
    EXPECT_LT(st.layer_frames_out, static_cast<std::uint64_t>(layers));
    srv.stop();
}

TEST(NetStreaming, ProgressiveAndPlainRequestsInterleaveOnOneConnection)
{
    const auto cs = make_stream(64, 64, 1, 64, j2k::wavelet::w5_3, 3);
    net::server srv{quiet_config()};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};
    int frames = 0;
    const auto fin = cli.decode_progressive(
        {cs, 0, net::result_format::raw, 1},
        [&](const net::layer_frame&) { ++frames; });
    EXPECT_EQ(fin.st, net::status::streaming);
    EXPECT_EQ(frames, 3);
    const auto r = cli.decode({cs, 0, net::result_format::raw, 2});
    ASSERT_TRUE(r.ok()) << r.message();
}

// ---- fd exhaustion ---------------------------------------------------------

/// Highest fd number currently open in this process (via /proc/self/fd).
int max_open_fd()
{
    int maxfd = 2;
    DIR* d = ::opendir("/proc/self/fd");
    if (!d) return 1024;
    while (const dirent* e = ::readdir(d)) {
        const int fd = std::atoi(e->d_name);
        if (fd > maxfd) maxfd = fd;
    }
    ::closedir(d);
    return maxfd;
}

/// RAII RLIMIT_NOFILE clamp.
struct scoped_nofile_limit {
    rlimit saved{};
    explicit scoped_nofile_limit(rlim_t cur)
    {
        EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
        rlimit lim = saved;
        lim.rlim_cur = cur;
        EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lim), 0);
    }
    ~scoped_nofile_limit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
};

TEST(NetServer, FdExhaustionShedsPendingConnectionsInsteadOfSpinning)
{
    const auto cs = make_stream(64, 64, 1, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    net::server srv{quiet_config()};
    srv.start();

    // Prove the server works, then clamp the fd table just above current
    // usage and fill every remaining slot (and any numbering holes) with
    // /dev/null.  Freeing exactly one slot lets this thread create one client
    // socket — after which the table is full again, so the server's accept()
    // hits EMFILE and must shed through its emergency reserve fd rather than
    // hot-spin on the level-triggered listener.  No other thread allocates
    // fds meanwhile, so the transiently-freed reserve slot cannot be stolen.
    {
        net::client warm{"127.0.0.1", srv.port()};
        const auto r = warm.decode({cs, 0, net::result_format::raw, 1});
        ASSERT_TRUE(r.ok()) << r.message();
    }
    // The server frees the warm connection's fd asynchronously; fill only
    // once it has, or that slot reopens mid-test and the accept succeeds.
    // Wait too until the warm-up job is torn down: a worker still releasing
    // it may need an fd (a sanitizer's first check of a type opens a pipe),
    // and with the table full that fails inside the worker, not the server.
    {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while ((srv.stats().connections_open != 0 || srv.service().in_flight() != 0) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_EQ(srv.stats().connections_open, 0u);
        ASSERT_EQ(srv.service().in_flight(), 0u);
    }
    {
        scoped_nofile_limit clamp{static_cast<rlim_t>(max_open_fd() + 8)};
        std::vector<int> fillers;
        for (;;) {
            const int f = ::open("/dev/null", O_RDONLY);
            if (f < 0) {
                ASSERT_EQ(errno, EMFILE);
                break;
            }
            fillers.push_back(f);
        }
        ASSERT_FALSE(fillers.empty());
        ::close(fillers.back());  // one slot for the client socket below
        fillers.pop_back();

        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(srv.port());
        ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
        // The shed path accepts the pending connection on the reserve slot
        // and closes it immediately: a clean EOF, not a hang in the backlog.
        const timeval tv{5, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        char b;
        EXPECT_EQ(::recv(fd, &b, 1, 0), 0);
        ::close(fd);
        EXPECT_GE(srv.stats().accepts_failed, 1u);
        for (const int f : fillers) ::close(f);
    }

    // With the limit restored the server must serve normally again — the
    // reserve was re-armed and the loop never wedged.
    net::client after{"127.0.0.1", srv.port()};
    const auto r = after.decode({cs, 0, net::result_format::raw, 2});
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(net::decode_image_raw(r.payload), serial);
}

// ---- socket failure paths --------------------------------------------------

TEST(NetServer, FailedStartThrowsSystemErrorAndLeavesNoFdOpen)
{
    const auto cs = make_stream(64, 64, 1, 64);
    const socket_probe::held_port busy{true};  // listening, no SO_REUSEPORT
    for (const std::size_t shards : {1u, 2u}) {
        for (const bool bad_address : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << shards << " shard(s), "
                         << (bad_address ? "bad address" : "port in use"));
            auto cfg = quiet_config();
            cfg.shards = shards;
            if (bad_address)
                cfg.bind_address = "localhost";  // numeric IPv4 only
            else
                cfg.port = busy.port;
            {
                net::server srv{cfg};
                const int before = socket_probe::open_fd_count();
                EXPECT_EQ(socket_probe::system_error_code([&] { srv.start(); }),
                          bad_address ? EINVAL : EADDRINUSE);
                EXPECT_EQ(socket_probe::open_fd_count(), before);
            }
            cfg.bind_address = "127.0.0.1";
            cfg.port = 0;
            net::server srv{cfg};
            srv.start();
            EXPECT_EQ(srv.shards(), shards);
            net::client cli{"127.0.0.1", srv.port()};
            const auto r = cli.decode({cs, 0, net::result_format::raw, 1});
            ASSERT_TRUE(r.ok()) << r.message();
        }
    }
}

TEST(NetClient, ConnectFailuresAreTyped)
{
    const socket_probe::held_port closed{false};  // bound, not listening
    const int before = socket_probe::open_fd_count();
    EXPECT_TRUE(socket_probe::throws_plain_runtime_error(
        [] { net::client cli{"localhost", 9}; }));
    EXPECT_EQ(socket_probe::system_error_code(
                  [&] { net::client cli{"127.0.0.1", closed.port}; }),
              ECONNREFUSED);
    EXPECT_EQ(socket_probe::open_fd_count(), before);
}

// ---- slow-reader outbound cap ----------------------------------------------

TEST(NetServer, SlowReaderIsDisconnectedAtTheOutboundCap)
{
    // A multi-layer stream against a client that never reads: kernel-side
    // buffering fills, the per-connection outbound queue grows past the cap,
    // and the server must disconnect rather than queue without bound.  The
    // raw ~64 KiB layer frames dwarf the 32 KiB cap, so the first delivery
    // that cannot be fully flushed into the kernel trips it.
    const auto cs = make_stream(256, 256, 1, 64, j2k::wavelet::w5_3, 4);
    auto cfg = quiet_config();
    cfg.max_outbound_bytes = 32 * 1024;
    // Pin the server-side send buffer: with autotuning the kernel happily
    // absorbs the whole stream on loopback and the user-space queue never
    // grows.  A fixed SO_SNDBUF makes the cap the true backlog ceiling.
    cfg.sndbuf_bytes = 8 * 1024;
    net::server srv{cfg};
    srv.start();

    // Raw client socket: SO_RCVBUF must be locked down *before* connect so
    // receive-buffer autotuning (tcp_rmem grows to tens of MB on modern
    // kernels) cannot absorb the whole stream on the kernel's side.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int rcvbuf = 4 * 1024;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(srv.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

    net::request_header h;
    h.priority_raw = 0;
    h.format_raw = 0;
    h.flags = net::k_flag_progressive;
    h.request_id = 9;
    h.payload_len = static_cast<std::uint32_t>(cs.size());
    std::vector<std::uint8_t> wire(net::k_header_size);
    net::encode_request_header(h, wire.data());
    wire.insert(wire.end(), cs.begin(), cs.end());
    std::size_t off = 0;
    while (off < wire.size()) {
        const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off, 0);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }

    // Do not read.  The cap must fire within the deadline.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (srv.stats().slow_reader_closed == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(srv.stats().slow_reader_closed, 1u);

    // The connection was closed server-side: draining what the kernel
    // already buffered ends in EOF (or RST), never a complete stream.
    const timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::vector<char> sink(64 * 1024);
    std::size_t drained = 0;
    for (;;) {
        const ssize_t n = ::recv(fd, sink.data(), sink.size(), 0);
        if (n <= 0) break;
        drained += static_cast<std::size_t>(n);
    }
    ::close(fd);
    EXPECT_LT(drained, 4u * 64 * 1024);  // nowhere near the full stream

    // The server stays healthy for other clients.
    const auto quick = make_stream(64, 64, 1, 64);
    net::client cli2{"127.0.0.1", srv.port()};
    const auto ok = cli2.decode({quick, 0, net::result_format::raw, 10});
    ASSERT_TRUE(ok.ok()) << ok.message();
}

// ---- multi-shard front-end -------------------------------------------------

TEST(NetSharded, ConnectionsSpreadAcrossShardsAndAllDecodeCorrectly)
{
    const auto cs = make_stream(128, 128, 3, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    auto cfg = quiet_config();
    cfg.shards = 4;
    net::server srv{cfg};
    srv.start();
    EXPECT_EQ(srv.shards(), 4u);

    // Enough distinct connections that the kernel's 4-tuple hash spreading
    // them all onto one shard is vanishingly unlikely (4^-15).
    constexpr int conns = 16;
    for (int i = 0; i < conns; ++i) {
        net::client cli{"127.0.0.1", srv.port()};
        const auto id = static_cast<std::uint32_t>(i + 1);
        const auto r = cli.decode({cs, static_cast<std::uint8_t>(i % 2),
                                   net::result_format::raw, id});
        ASSERT_TRUE(r.ok()) << r.message();
        EXPECT_EQ(r.request_id, id);
        EXPECT_EQ(net::decode_image_raw(r.payload), serial);
    }

    // The loop counts a response once send() has returned, which can be
    // after the client has read it: give the count a bounded wait to land.
    EXPECT_TRUE(wait_for([&] {
        return srv.stats().responses_out >= static_cast<std::uint64_t>(conns);
    }));
    const auto total = srv.stats();
    EXPECT_EQ(total.connections_accepted, static_cast<std::uint64_t>(conns));
    EXPECT_EQ(total.frames_in, static_cast<std::uint64_t>(conns));
    EXPECT_EQ(total.responses_out, static_cast<std::uint64_t>(conns));
    int shards_hit = 0;
    for (std::size_t i = 0; i < srv.shards(); ++i)
        if (srv.stats(i).connections_accepted > 0) ++shards_hit;
    EXPECT_GT(shards_hit, 1);
}

TEST(NetSharded, ProgressiveStreamingWorksOnEveryShard)
{
    const int layers = 3;
    const auto cs = make_stream(96, 96, 1, 48, j2k::wavelet::w5_3, layers);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    auto cfg = quiet_config();
    cfg.shards = 2;
    net::server srv{cfg};
    srv.start();

    for (int i = 0; i < 6; ++i) {  // several conns → both shards see streams
        net::client cli{"127.0.0.1", srv.port()};
        int frames = 0;
        net::request r;
        r.codestream = cs;
        r.format = net::result_format::raw;
        r.request_id = static_cast<std::uint32_t>(i + 1);
        const auto fin = cli.decode_progressive(
            r, [&](const net::layer_frame& lf) {
                ++frames;
                EXPECT_EQ(lf.layer, frames);
                EXPECT_EQ(lf.total, layers);
            });
        ASSERT_EQ(fin.st, net::status::streaming) << fin.message();
        EXPECT_EQ(frames, layers);
        const auto last = net::split_layer_frame(fin);
        ASSERT_TRUE(last);
        EXPECT_EQ(net::decode_image_raw(last->image), serial);
    }
    EXPECT_EQ(srv.stats().progressive_streams, 6u);
}

TEST(NetSharded, AutoShardCountServesTraffic)
{
    const auto cs = make_stream(64, 64, 1, 64);
    auto cfg = quiet_config();
    cfg.shards = 0;  // resolve from hardware concurrency
    net::server srv{cfg};
    srv.start();
    EXPECT_GE(srv.shards(), 1u);
    net::client cli{"127.0.0.1", srv.port()};
    const auto r = cli.decode({cs, 0, net::result_format::raw, 1});
    ASSERT_TRUE(r.ok()) << r.message();
}

TEST(NetSharded, TornFramesServeOnShardedServer)
{
    const auto cs = make_stream(64, 64, 1, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    auto cfg = quiet_config();
    cfg.shards = 2;
    net::server srv{cfg};
    srv.start();
    net::client cli{"127.0.0.1", srv.port()};

    net::request_header h;
    h.priority_raw = 0;
    h.format_raw = 0;
    h.request_id = 77;
    h.payload_len = static_cast<std::uint32_t>(cs.size());
    std::vector<std::uint8_t> wire(net::k_header_size);
    net::encode_request_header(h, wire.data());
    wire.insert(wire.end(), cs.begin(), cs.end());
    std::size_t off = 0;
    while (off < wire.size()) {
        const std::size_t n = std::min<std::size_t>(199, wire.size() - off);
        ASSERT_EQ(::send(cli.fd(), wire.data() + off, n, 0),
                  static_cast<ssize_t>(n));
        off += n;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto r = cli.recv();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.request_id, 77u);
    EXPECT_EQ(net::decode_image_raw(r.payload), serial);
}

TEST(NetSharded, DrainUnderLoadLosesNoInFlightResponse)
{
    const auto cs = make_stream(128, 128, 3, 64);
    const j2k::image serial = j2k::decoder{cs}.decode_all();
    auto cfg = quiet_config();
    cfg.shards = 2;
    cfg.service.queue_capacity = 64;
    net::server srv{cfg};
    srv.start();

    // Several clients each put one request on the wire; once every frame has
    // been parsed (and therefore admitted or shed), stop() runs concurrently
    // with the clients waiting.  Every client must get a complete, typed
    // response frame — an admitted job's result, or a clean shed/stopped
    // status — never a torn frame or silent EOF.
    constexpr int clients = 6;
    std::vector<std::thread> threads;
    std::atomic<int> ok{0}, typed{0}, torn{0};
    std::vector<net::client> clis;
    clis.reserve(clients);
    for (int t = 0; t < clients; ++t)
        clis.emplace_back("127.0.0.1", srv.port());
    for (int t = 0; t < clients; ++t)
        clis[t].send({cs, 1, net::result_format::raw,
                      static_cast<std::uint32_t>(t + 1)});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (srv.stats().frames_in < clients &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(srv.stats().frames_in, static_cast<std::uint64_t>(clients));

    for (int t = 0; t < clients; ++t)
        threads.emplace_back([&, t] {
            try {
                const auto r = clis[t].recv();
                if (r.ok() && net::decode_image_raw(r.payload) == serial)
                    ok.fetch_add(1);
                else if (r.st == net::status::shed ||
                         r.st == net::status::stopped)
                    typed.fetch_add(1);
                else
                    torn.fetch_add(1);
            } catch (const std::exception&) {
                torn.fetch_add(1);
            }
        });
    srv.stop();
    for (auto& th : threads) th.join();
    EXPECT_EQ(ok.load() + typed.load(), clients);
    EXPECT_EQ(torn.load(), 0);
    // The drain flushed every queued response before closing.
    EXPECT_EQ(srv.stats().responses_out, static_cast<std::uint64_t>(clients));
}

TEST(NetSharded, PerShardStatsSumToAggregate)
{
    const auto cs = make_stream(64, 64, 1, 64);
    auto cfg = quiet_config();
    cfg.shards = 3;
    net::server srv{cfg};
    srv.start();
    for (int i = 0; i < 9; ++i) {
        net::client cli{"127.0.0.1", srv.port()};
        const auto r = cli.decode({cs, 0, net::result_format::raw,
                                   static_cast<std::uint32_t>(i + 1)});
        ASSERT_TRUE(r.ok()) << r.message();
    }
    srv.stop();
    const auto total = srv.stats();
    std::uint64_t conns = 0, frames = 0, bytes_in = 0, bytes_out = 0;
    for (std::size_t i = 0; i < srv.shards(); ++i) {
        const auto s = srv.stats(i);
        conns += s.connections_accepted;
        frames += s.frames_in;
        bytes_in += s.bytes_in;
        bytes_out += s.bytes_out;
    }
    EXPECT_EQ(conns, total.connections_accepted);
    EXPECT_EQ(frames, total.frames_in);
    EXPECT_EQ(bytes_in, total.bytes_in);
    EXPECT_EQ(bytes_out, total.bytes_out);
    EXPECT_EQ(frames, 9u);
    // Out-of-range shard index answers zeros, not UB.
    EXPECT_EQ(srv.stats(99).frames_in, 0u);
}

}  // namespace
