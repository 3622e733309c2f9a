// decode_server — the decode service behind a real socket, exercised by a
// real client over loopback.
//
// Modes:
//   decode_server                       demo: in-process server + client, 5 phases
//   decode_server serve [port] [--cache-bytes N] [--ops-port P] [--shards S]
//                                       run a server until stdin closes; N > 0
//                                       enables the decoded-result cache, P
//                                       adds the HTTP ops plane (/metrics,
//                                       /healthz, /readyz, /trace) on P
//   decode_server client <port> <file>  decode one .ojk file, save out.pnm
//   decode_server client <port> <file> --stream
//                                       progressive: one frame per quality
//                                       layer, saved as out_L<k>.pnm
//   decode_server client <port> <file> --codec ccsds123
//                                       decode under another registered codec
//                                       (multispectral cubes save as out.raw,
//                                       the J2NE raw image framing)
//
// The demo drives the whole admission path end to end:
//   1. pipelined burst — 16 small requests in one write: the event loop
//      parses them together and admits them through submit_batch (watch
//      pool_submissions stay far below jobs_submitted);
//   2. overload — a batch flood against a per-priority bound of 1: typed
//      `shed` responses come back while an interactive request sails through;
//   3. drain — stop() completes every admitted job and flushes responses;
//   4. progressive stream — one request, one `streaming` frame per quality
//      layer, each refinement decodable the moment it lands.
// The run is recorded by the obs tracer: decode_server.trace.json shows
// connection/frame spans next to the decode span tree (open in
// https://ui.perfetto.dev).
#include <obs/trace.hpp>
#include <runtime/net/client.hpp>
#include <runtime/net/server.hpp>
#include <runtime/ops/ops_server.hpp>

#include <ccsds/ccsds123.hpp>
#include <codec/backend.hpp>
#include <j2k/backend.hpp>
#include <j2k/j2k.hpp>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace net = runtime::net;

std::vector<std::uint8_t> demo_stream(int w, int h, int comps, int tile)
{
    j2k::codec_params p;
    p.tile_width = tile;
    p.tile_height = tile;
    return j2k::encode(j2k::make_test_image(w, h, comps), p);
}

int run_serve(std::uint16_t port, std::size_t cache_bytes, int ops_port,
              std::size_t shards)
{
    net::server_config cfg;
    cfg.port = port;
    cfg.service.workers = 0;  // hardware concurrency
    cfg.service.queue_capacity = 64;
    cfg.service.cache_bytes = cache_bytes;
    cfg.shards = shards;  // 0 = auto (one per hardware thread)
    net::server srv{cfg};
    srv.start();
    std::printf("decode_server listening on 127.0.0.1:%u (%zu shard%s, ^D to stop)%s\n",
                srv.port(), srv.shards(), srv.shards() == 1 ? "" : "s",
                cache_bytes ? " [result cache on]" : "");

    std::unique_ptr<runtime::ops::ops_server> ops;
    if (ops_port >= 0) {
        // The rolling per-stage windows are fed from trace spans, so the ops
        // plane arms the tracer for the life of the serve.
        obs::tracer::instance().set_enabled(true);
        runtime::ops::ops_config ocfg;
        ocfg.port = static_cast<std::uint16_t>(ops_port);
        ops = std::make_unique<runtime::ops::ops_server>(srv.service(), ocfg);
        ops->set_extra_counters([&srv] {
            using sample = runtime::ops::ops_server::extra_sample;
            const auto st = srv.stats();
            std::vector<sample> out{
                {"net_connections_accepted_total", st.connections_accepted},
                {"net_connections_open", st.connections_open, obs::metric_type::gauge},
                {"net_accepts_failed_total", st.accepts_failed},
                {"net_frames_in_total", st.frames_in},
                {"net_responses_out_total", st.responses_out},
                {"net_bytes_in_total", st.bytes_in},
                {"net_bytes_out_total", st.bytes_out},
                {"net_batches_total", st.batches},
                {"net_batched_jobs_total", st.batched_jobs},
                {"net_bad_frames_total", st.bad_frames},
                {"net_slow_reader_closed_total", st.slow_reader_closed},
                {"net_progressive_streams_total", st.progressive_streams},
                {"net_layer_frames_out_total", st.layer_frames_out},
                {"net_streams_cancelled_total", st.streams_cancelled},
            };
            // Per-shard breakdown (the aggregates above stay label-free for
            // dashboard compatibility); only worth the exposition bytes when
            // there is more than one shard.
            if (srv.shards() > 1) {
                for (std::size_t i = 0; i < srv.shards(); ++i) {
                    const auto ss = srv.stats(i);
                    const auto shard = [i](std::string family, std::uint64_t v) {
                        return sample{std::move(family), v, obs::metric_type::counter,
                                      {{"shard", std::to_string(i)}}};
                    };
                    out.push_back(shard("net_connections_accepted_total",
                                        ss.connections_accepted));
                    out.push_back(shard("net_frames_in_total", ss.frames_in));
                    out.push_back(shard("net_responses_out_total", ss.responses_out));
                    out.push_back(shard("net_bytes_in_total", ss.bytes_in));
                    out.push_back(shard("net_bytes_out_total", ss.bytes_out));
                    out.push_back(shard("net_accepts_failed_total", ss.accepts_failed));
                    out.push_back(
                        shard("net_slow_reader_closed_total", ss.slow_reader_closed));
                }
            }
            return out;
        });
        ops->start();
        std::printf("ops plane on http://127.0.0.1:%u  "
                    "(/metrics /healthz /readyz /trace)\n",
                    ops->port());
    }

    // Serve until stdin closes.
    for (int c = std::getchar(); c != EOF; c = std::getchar()) {
    }
    // Stop the decode front-end first: /readyz flips to 503 the moment the
    // service starts draining, while the ops plane keeps answering.
    srv.stop();
    if (ops) ops->stop();
    const auto st = srv.stats();
    std::printf("served %llu frames on %llu connections (%llu bytes in, %llu out)\n",
                static_cast<unsigned long long>(st.frames_in),
                static_cast<unsigned long long>(st.connections_accepted),
                static_cast<unsigned long long>(st.bytes_in),
                static_cast<unsigned long long>(st.bytes_out));
    if (cache_bytes) {
        const auto m = srv.service().metrics();
        std::printf("cache: hits=%llu misses=%llu collapses=%llu evictions=%llu "
                    "bytes=%llu\n",
                    static_cast<unsigned long long>(m.cache_hits),
                    static_cast<unsigned long long>(m.cache_misses),
                    static_cast<unsigned long long>(m.cache_collapses),
                    static_cast<unsigned long long>(m.cache_evictions),
                    static_cast<unsigned long long>(m.cache_bytes));
    }
    return 0;
}

int run_client(std::uint16_t port, const char* path, bool stream,
               const char* codec_name)
{
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }
    const std::vector<std::uint8_t> cs{std::istreambuf_iterator<char>{in},
                                       std::istreambuf_iterator<char>{}};

    // Resolve --codec through the same registry the server consults; the
    // wire byte is what actually crosses the socket.
    std::uint8_t codec_id = j2k::k_codec_wire_id;
    if (codec_name != nullptr) {
        (void)j2k::ensure_backend_registered();
        (void)ccsds::ensure_backend_registered();
        const codec::backend* be = codec::find_backend(codec_name);
        if (be == nullptr) {
            std::fprintf(stderr, "unknown codec '%s' (registered:", codec_name);
            for (const codec::backend* b : codec::backends())
                std::fprintf(stderr, " %.*s", int(b->name().size()),
                             b->name().data());
            std::fprintf(stderr, ")\n");
            return 1;
        }
        codec_id = be->wire_id();
    }

    net::client cli{"127.0.0.1", port};
    if (codec_id != j2k::k_codec_wire_id) {
        // Other codecs decode whole cubes over the raw framing (PNM cannot
        // carry a 200-band image); streaming is a per-codec capability the
        // server enforces, so the flag combination is simply not offered.
        net::request r;
        r.codestream = cs;
        r.format = net::result_format::raw;
        r.request_id = 1;
        r.codec = codec_id;
        const auto resp = cli.decode(r);
        if (!resp.ok()) {
            std::fprintf(stderr, "decode failed: %s (%s)\n",
                         net::status_name(resp.st), resp.message().c_str());
            return 1;
        }
        const auto img = net::decode_image_raw(resp.payload);
        std::ofstream out{"out.raw", std::ios::binary};
        out.write(reinterpret_cast<const char*>(resp.payload.data()),
                  static_cast<std::streamsize>(resp.payload.size()));
        std::printf("decoded %s (%s) -> out.raw: %dx%d, %d band%s, %d-bit "
                    "(%zu bytes)\n",
                    path, codec_name, img.width(), img.height(),
                    img.components(), img.components() == 1 ? "" : "s",
                    img.bit_depth(), resp.payload.size());
        return 0;
    }
    if (stream) {
        const auto fin = cli.decode_progressive(
            {cs, 0, net::result_format::pnm, 1}, [&](const net::layer_frame& lf) {
                char name[64];
                std::snprintf(name, sizeof name, "out_L%d.pnm", lf.layer);
                std::ofstream out{name, std::ios::binary};
                out.write(reinterpret_cast<const char*>(lf.image.data()),
                          static_cast<std::streamsize>(lf.image.size()));
                std::printf("layer %d/%d -> %s (%zu bytes)%s\n", lf.layer, lf.total,
                            name, lf.image.size(), lf.last ? "  [final]" : "");
            });
        if (fin.st != net::status::streaming) {
            std::fprintf(stderr, "stream failed: %s (%s)\n", net::status_name(fin.st),
                         fin.message().c_str());
            return 1;
        }
        return 0;
    }
    const auto r = cli.decode({cs, 0, net::result_format::pnm, 1});
    if (!r.ok()) {
        std::fprintf(stderr, "decode failed: %s (%s)\n", net::status_name(r.st),
                     r.message().c_str());
        return 1;
    }
    std::ofstream out{"out.pnm", std::ios::binary};
    out.write(reinterpret_cast<const char*>(r.payload.data()),
              static_cast<std::streamsize>(r.payload.size()));
    std::printf("decoded %s -> out.pnm (%zu bytes)\n", path, r.payload.size());
    return 0;
}

int run_demo()
{
    obs::tracer::instance().set_enabled(true);
    obs::tracer::instance().set_thread_name("client");

    const auto small = demo_stream(64, 64, 1, 64);      // one tile, quick
    const auto heavy = demo_stream(256, 256, 3, 32);    // 64 tiles, slow

    std::printf("=== phase 1: pipelined burst is batched ===\n");
    {
        net::server_config cfg;
        cfg.service.workers = 2;
        cfg.service.queue_capacity = 64;
        cfg.small_job_threshold = 1u << 20;  // everything below 1 MiB coalesces
        net::server srv{cfg};
        srv.start();
        net::client cli{"127.0.0.1", srv.port()};
        constexpr std::uint32_t n = 16;
        std::vector<net::request> reqs;
        for (std::uint32_t i = 0; i < n; ++i)
            reqs.push_back({small, 1, net::result_format::raw, i});
        cli.send_burst(reqs);
        int ok = 0;
        for (std::uint32_t i = 0; i < n; ++i)
            if (cli.recv().ok()) ++ok;
        const auto m = srv.service().metrics();
        const auto st = srv.stats();
        std::printf("  %d/%u decoded; %llu jobs through %llu pool submissions "
                    "(%llu batched in %llu batches)\n",
                    ok, n, static_cast<unsigned long long>(m.jobs_submitted),
                    static_cast<unsigned long long>(m.pool_submissions),
                    static_cast<unsigned long long>(st.batched_jobs),
                    static_cast<unsigned long long>(st.batches));
        srv.stop();
    }

    std::printf("=== phase 2: overload sheds batch, spares interactive ===\n");
    {
        net::server_config cfg;
        cfg.service.workers = 1;
        cfg.service.queue_capacity = 32;
        cfg.service.batch_capacity = 1;  // batch admission bound
        cfg.small_job_threshold = 0;     // admit each frame on parse
        net::server srv{cfg};
        srv.start();
        net::client cli{"127.0.0.1", srv.port()};
        constexpr std::uint32_t n = 8;
        std::vector<net::request> reqs;
        for (std::uint32_t i = 0; i < n; ++i)
            reqs.push_back({heavy, 1, net::result_format::raw, i});
        cli.send_burst(reqs);
        int ok = 0, shed = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            const auto r = cli.recv();
            r.ok() ? ++ok : ++shed;
        }
        const auto inter = cli.decode({heavy, 0, net::result_format::raw, 99});
        const auto m = srv.service().metrics();
        std::printf("  batch flood: %d decoded, %d shed "
                    "(batch rejected=%llu, interactive rejected=%llu); "
                    "interactive request -> %s\n",
                    ok, shed,
                    static_cast<unsigned long long>(m.shed_by_priority[1].rejected),
                    static_cast<unsigned long long>(m.shed_by_priority[0].rejected),
                    net::status_name(inter.st));
        srv.stop();
    }

    std::printf("=== phase 3: stop() drains admitted work ===\n");
    {
        net::server_config cfg;
        cfg.service.workers = 2;
        cfg.service.queue_capacity = 64;
        net::server srv{cfg};
        srv.start();
        net::client cli{"127.0.0.1", srv.port()};
        constexpr std::uint32_t n = 12;
        std::vector<net::request> reqs;
        for (std::uint32_t i = 0; i < n; ++i)
            reqs.push_back({small, 1, net::result_format::raw, i});
        cli.send_burst(reqs);
        int ok = 0;
        for (std::uint32_t i = 0; i < n; ++i)
            if (cli.recv().ok()) ++ok;
        srv.stop();  // idempotent; every admitted job already settled
        std::printf("  %d/%u responses received before stop\n", ok, n);
    }

    std::printf("=== phase 4: progressive request streams layer by layer ===\n");
    {
        j2k::codec_params lp;
        lp.tile_width = 64;
        lp.tile_height = 64;
        lp.quality_layers = 5;
        const j2k::image src = j2k::make_test_image(256, 256, 3);
        const auto layered = j2k::encode(src, lp);

        net::server_config cfg;
        cfg.service.workers = 2;
        cfg.service.queue_capacity = 64;
        net::server srv{cfg};
        srv.start();
        net::client cli{"127.0.0.1", srv.port()};
        const auto fin = cli.decode_progressive(
            {layered, 0, net::result_format::raw, 1},
            [&](const net::layer_frame& lf) {
                const j2k::image out = net::decode_image_raw(lf.image);
                const double q = j2k::psnr(src, out);
                if (std::isinf(q))
                    std::printf("  layer %d/%d: exact%s\n", lf.layer, lf.total,
                                lf.last ? "  [final]" : "");
                else
                    std::printf("  layer %d/%d: %.2f dB%s\n", lf.layer, lf.total, q,
                                lf.last ? "  [final]" : "");
            });
        srv.stop();
        const auto st = srv.stats();
        const auto m = srv.service().metrics();
        std::printf("  %s; %llu streaming frames for %llu progressive job "
                    "(%llu tier-1 segment bytes total)\n",
                    net::status_name(fin.st),
                    static_cast<unsigned long long>(st.layer_frames_out),
                    static_cast<unsigned long long>(m.jobs_progressive),
                    static_cast<unsigned long long>(m.t1_segment_bytes));
        std::printf("\n%s\n", srv.service().metrics().dump().c_str());
    }

    std::printf("=== phase 5: result cache serves repeats without decoding ===\n");
    {
        net::server_config cfg;
        cfg.service.workers = 2;
        cfg.service.queue_capacity = 64;
        cfg.service.cache_bytes = 64u << 20;
        net::server srv{cfg};
        srv.start();
        net::client cli{"127.0.0.1", srv.port()};
        constexpr std::uint32_t n = 8;
        int ok = 0;
        for (std::uint32_t i = 0; i < n; ++i)
            if (cli.decode({heavy, 1, net::result_format::raw, i}).ok()) ++ok;
        net::request bypass{heavy, 1, net::result_format::raw, n};
        bypass.cache_bypass = true;
        const auto br = cli.decode(bypass);
        const auto m = srv.service().metrics();
        std::printf("  %d/%u repeats decoded; cache hits=%llu misses=%llu "
                    "(bypass request -> %s, not counted)\n",
                    ok, n, static_cast<unsigned long long>(m.cache_hits),
                    static_cast<unsigned long long>(m.cache_misses),
                    net::status_name(br.st));
        srv.stop();
    }

    std::printf("=== phase 6: a second codec over the same wire ===\n");
    {
        // A 16-bit 8-band cube through the CCSDS-123 backend: same framing,
        // same pool, same cache — the request's codec byte picks the decoder.
        const codec::image cube = codec::make_test_image(128, 96, 8, 16, 42);
        const auto ccs = ccsds::encode(cube);

        net::server_config cfg;
        cfg.service.workers = 2;
        cfg.service.queue_capacity = 64;
        cfg.service.cache_bytes = 64u << 20;
        net::server srv{cfg};
        srv.start();
        net::client cli{"127.0.0.1", srv.port()};

        net::request r;
        r.codestream = ccs;
        r.format = net::result_format::raw;
        r.request_id = 1;
        r.codec = ccsds::k_codec_wire_id;
        const auto first = cli.decode(r);
        r.request_id = 2;
        const auto repeat = cli.decode(r);
        const bool exact = first.ok() &&
                           net::decode_image_raw(first.payload) == cube;
        std::printf("  %zu-byte stream (%.2fx compression) -> %dx%d, 8 bands, "
                    "16-bit: %s; repeat -> %s\n",
                    ccs.size(),
                    double(128 * 96 * 8 * 2) / double(ccs.size()),
                    cube.width(), cube.height(),
                    exact ? "bit-exact" : "MISMATCH",
                    net::status_name(repeat.st));

        net::request unknown;
        unknown.codestream = ccs;
        unknown.request_id = 3;
        unknown.codec = 42;  // nothing registered there
        const auto rej = cli.decode(unknown);
        std::printf("  unknown codec byte 42 -> %s (\"%s\")\n",
                    net::status_name(rej.st), rej.message().c_str());

        const auto m = srv.service().metrics();
        for (const auto& c : m.by_codec)
            std::printf("  codec %-9s completed=%llu unsupported=%llu "
                        "cache hits=%llu misses=%llu\n",
                        c.name.c_str(),
                        static_cast<unsigned long long>(c.completed),
                        static_cast<unsigned long long>(c.unsupported),
                        static_cast<unsigned long long>(c.cache_hits),
                        static_cast<unsigned long long>(c.cache_misses));
        srv.stop();
    }

    const std::size_t evs =
        obs::tracer::instance().write_json_file("decode_server.trace.json");
    std::printf("trace: %zu events written to decode_server.trace.json "
                "(open in https://ui.perfetto.dev)\n",
                evs);
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
        std::uint16_t port = 0;
        std::size_t cache_bytes = 0;
        int ops_port = -1;       // < 0 → no ops plane
        std::size_t shards = 1;  // 0 = auto (one per hardware thread)
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--cache-bytes") == 0 && i + 1 < argc)
                cache_bytes = static_cast<std::size_t>(std::atoll(argv[++i]));
            else if (std::strcmp(argv[i], "--ops-port") == 0 && i + 1 < argc)
                ops_port = std::atoi(argv[++i]);
            else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc)
                shards = static_cast<std::size_t>(std::atoll(argv[++i]));
            else
                port = static_cast<std::uint16_t>(std::atoi(argv[i]));
        }
        return run_serve(port, cache_bytes, ops_port, shards);
    }
    if (argc >= 4 && std::strcmp(argv[1], "client") == 0) {
        bool stream = false;
        const char* codec_name = nullptr;
        for (int i = 4; i < argc; ++i) {
            if (std::strcmp(argv[i], "--stream") == 0)
                stream = true;
            else if (std::strcmp(argv[i], "--codec") == 0 && i + 1 < argc)
                codec_name = argv[++i];
        }
        return run_client(static_cast<std::uint16_t>(std::atoi(argv[2])), argv[3],
                          stream, codec_name);
    }
    return run_demo();
}
