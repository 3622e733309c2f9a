#include "replay.hpp"

#include <ccsds/ccsds123.hpp>
#include <j2k/j2k.hpp>
#include <runtime/arena.hpp>
#include <runtime/cache/decoded_cache.hpp>
#include <runtime/hash.hpp>
#include <runtime/net/protocol.hpp>
#include <runtime/service.hpp>

#include <map>
#include <optional>
#include <string>

namespace bench {

namespace {

namespace net = runtime::net;

constexpr std::size_t k_cache_bytes = 64u << 20;  ///< j2ne_serve's cache budget

std::uint64_t samples(int w, int h, int comps)
{
    return static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) *
           static_cast<std::uint64_t>(comps);
}

/// Accumulated spans of one replay: per-call durations and per-sample sums.
struct replayer {
    explicit replayer(spans::track& t) : tr{t} {}

    spans::track& tr;
    std::uint32_t id = 0;
    std::map<std::string, std::vector<double>> call_ns;  ///< span name -> durations
    struct stage {
        double ns = 0.0;
        double samples = 0.0;
    };
    std::map<std::string, stage> stages;
    /// [lossy] -> {tier-1 ns, whole-decode ns}
    double t1_ns[2] = {0.0, 0.0};
    double decode_ns[2] = {0.0, 0.0};

    /// Time `fn` as span `name`; returns its duration in ns.
    template <typename Fn>
    double timed(const char* name, std::uint64_t samples, Fn&& fn, bool blocking = true)
    {
        tr.begin(name, id, blocking);
        fn();
        const auto d = static_cast<double>(tr.end(samples));
        call_ns[name].push_back(d);
        if (samples) {
            stages[name].ns += d;
            stages[name].samples += static_cast<double>(samples);
        }
        return d;
    }

    /// decode_service::decode_tiled, stage by stage.  Each tile's time goes
    /// to `tile_ns`, the serial ICT/DC step to `serial_ns`.
    codec::image staged_decode(const j2k::decoder& dec, bool lossy,
                               std::pmr::memory_resource* mr,
                               std::vector<double>& tile_ns, double& serial_ns)
    {
        const auto& info = dec.info();
        const auto grid = dec.tiles();
        codec::image img{info.width, info.height, info.components, info.bit_depth};
        double t1 = 0.0;
        double all = 0.0;
        for (int t = 0; t < static_cast<int>(grid.size()); ++t) {
            const j2k::tile_rect& r = grid[static_cast<std::size_t>(t)];
            const std::uint64_t n = samples(r.width, r.height, info.components);
            j2k::tile_coeffs tc;
            j2k::tile_wavelet tw;
            j2k::tile_pixels tp;
            const double a =
                timed("j2k.tier1", n, [&] { tc = dec.entropy_decode(t, nullptr, mr); });
            const double q = timed("j2k.iq", n, [&] { tw = dec.dequantize(tc); });
            const double w = timed("j2k.idwt", n, [&] { tp = dec.idwt(tw, mr); });
            const double s = timed("j2k.assemble", n, [&] {
                for (int c = 0; c < info.components; ++c)
                    j2k::insert_tile(img.comp(c), tp.comps[static_cast<std::size_t>(c)],
                                     r);
            });
            t1 += a;
            all += a + q + w + s;
            tile_ns.push_back(a + q + w + s);
        }
        const std::uint64_t px = samples(info.width, info.height, info.components);
        const double f = timed("j2k.ict_dc", px, [&] { dec.finish(img); });
        all += f;
        serial_ns += f;
        t1_ns[lossy ? 1 : 0] += t1;
        decode_ns[lossy ? 1 : 0] += all;
        return img;
    }
};

/// Greedy list schedule of `tiles` (in order) over `workers`: the blocking
/// time of a parallel_for on the server's pool.
double makespan(const std::vector<double>& tiles, int workers)
{
    std::vector<double> free_at(static_cast<std::size_t>(std::max(1, workers)), 0.0);
    for (const double t : tiles) *std::min_element(free_at.begin(), free_at.end()) += t;
    return tiles.empty() ? 0.0 : *std::max_element(free_at.begin(), free_at.end());
}

runtime::cache_key key_of(const input& in, std::uint8_t codec_id)
{
    runtime::cache_key k;
    k.content_hash = runtime::fnv1a_bytes(in.bytes);
    k.codec = codec_id;
    // The service normalises "all layers" j2k requests to the stream depth;
    // backend (non-j2k) keys carry the request's cap, 0.
    if (codec_id == 0) k.layers = j2k::read_header(in.bytes).quality_layers;
    return k;
}

double per_call(const replayer& r, const char* name, double scale)
{
    const auto it = r.call_ns.find(name);
    return it == r.call_ns.end() ? 0.0 : median(it->second) / scale;
}

double per_sample(const replayer& r, const char* name)
{
    const auto it = r.stages.find(name);
    return it == r.stages.end() || it->second.samples == 0.0
               ? 0.0
               : it->second.ns / it->second.samples;
}

}  // namespace

replay_result run_replay(const corpus& c, const std::vector<std::uint32_t>& seq,
                         spans::track& tr, int workers)
{
    const workload_spec& spec = *c.spec;
    const bool is_j2k = spec.codec == 0;
    const bool progressive = (spec.flags & net::k_flag_progressive) != 0;
    const bool cached = uses_cache(spec);

    // Mirrors the server's cache, warmed in the warm pass's order; it decides
    // each request's path (hit or miss).
    runtime::decoded_cache sim{k_cache_bytes};
    if (cached)
        for (const std::uint32_t x : c.warm_order) {
            const input& in = c.inputs[x];
            const runtime::cache_key k = key_of(in, spec.codec);
            if (!sim.begin_flight(k)) sim.complete_flight(k, in.image);
        }

    // The job's scratch arena, as a worker leases one per job (service
    // default size); decode transients bump-allocate from it.
    runtime::arena scratch{runtime::service_config{}.arena_bytes};

    replayer r{tr};
    std::vector<double> blocking_ns;
    double t1_bytes = 0.0;

    for (std::size_t i = 0; i < seq.size(); ++i) {
        const input& in = c.inputs[seq[i]];
        r.id = static_cast<std::uint32_t>(i);
        double serial = 0.0;
        std::vector<double> tiles;
        auto on = [&](double d) { serial += d; };
        scratch.reset();
        tr.begin("request", r.id);

        if (progressive) {
            // decode_service::run_progressive_job: the session runs inline on
            // one worker; each layer is encoded and framed before the next
            // starts.  The content hash for the session deposit comes after
            // the last frame is handed off, off the blocking path.
            std::optional<j2k::decode_session> s;
            on(r.timed("j2k.parse", 0, [&] { s.emplace(in.bytes); }));
            s->set_scratch_arena(&scratch);
            codec::image img;
            for (int l = 1; l <= s->total_layers(); ++l) {
                on(r.timed("j2k.layer", 0, [&] { img = s->advance_to(l); }));
                on(r.timed("net.encode_raw", 0,
                           [&] { (void)net::encode_image_raw(img); }));
            }
            t1_bytes += static_cast<double>(s->tier1_segment_bytes());
            volatile std::uint64_t chash = 0;  // kept, so the hash is computed
            r.timed(
                "cache.hash", 0, [&] { chash = runtime::fnv1a_bytes(in.bytes); }, false);
        } else {
            // decode_service::run_cached_job / run_backend_job, or the
            // bypass path: parse, then hash + lookup when cached, decode on a
            // miss or bypass, insert on a miss, copy the resident image out.
            std::optional<j2k::decoder> dec;
            if (is_j2k) on(r.timed("j2k.parse", 0, [&] { dec.emplace(in.bytes); }));

            runtime::cache_key k;
            std::optional<runtime::decoded_cache::flight_result> hit;
            if (cached) {
                on(r.timed("cache.hash", 0,
                           [&] { k.content_hash = runtime::fnv1a_bytes(in.bytes); }));
                k.codec = spec.codec;
                if (is_j2k) k.layers = dec->info().quality_layers;
                const std::int32_t idx = tr.begin("cache.hit", r.id);
                hit = sim.begin_flight(k);
                const auto d = static_cast<double>(tr.end());
                if (!hit) tr.spans[static_cast<std::size_t>(idx)].name = "cache.lookup";
                r.call_ns[hit ? "cache.hit" : "cache.lookup"].push_back(d);
                on(d);
            }

            std::shared_ptr<const codec::image> shared;
            if (hit) {
                shared = hit->image;
            } else {
                codec::image img;
                if (is_j2k) {
                    img = r.staged_decode(*dec, in.lossy, &scratch, tiles, serial);
                    for (const std::size_t len : dec->info().tile_lengths)
                        t1_bytes += static_cast<double>(len);
                } else {
                    const std::uint64_t n = samples(
                        in.image->width(), in.image->height(), in.image->components());
                    on(r.timed("ccsds.decode", n, [&] { img = ccsds::decode(in.bytes); }));
                }
                shared = std::make_shared<const codec::image>(std::move(img));
                if (cached)
                    on(r.timed("cache.insert", 0, [&] { sim.complete_flight(k, shared); }));
            }

            // Cached paths hand each caller a copy of the resident image; the
            // bypass path moves its image straight out.
            codec::image out;
            if (cached) on(r.timed("cache.copy", 0, [&] { out = codec::image{*shared}; }));
            const codec::image& result = cached ? out : *shared;
            on(r.timed("net.encode_raw", 0, [&] { (void)net::encode_image_raw(result); }));
        }
        tr.end();
        blocking_ns.push_back(serial + makespan(tiles, workers));
    }

    replay_result res;
    auto add = [&](const char* name, double v, const char* unit) {
        res.metrics.push_back({name, v, unit});
    };
    const double n = static_cast<double>(std::max<std::size_t>(1, seq.size()));
    add("net.encode_raw_us", per_call(r, "net.encode_raw", 1e3), "us");
    add("cache.hash_us", per_call(r, "cache.hash", 1e3), "us");
    add("cache.hit_us", per_call(r, "cache.hit", 1e3), "us");
    add("cache.copy_us", per_call(r, "cache.copy", 1e3), "us");
    add("cache.insert_us", per_call(r, "cache.insert", 1e3), "us");
    add("j2k.parse_us", per_call(r, "j2k.parse", 1e3), "us");
    add("j2k.tier1_ns_per_sample", per_sample(r, "j2k.tier1"), "ns");
    add("j2k.iq_ns_per_sample", per_sample(r, "j2k.iq"), "ns");
    add("j2k.idwt_ns_per_sample", per_sample(r, "j2k.idwt"), "ns");
    add("j2k.assemble_ns_per_sample", per_sample(r, "j2k.assemble"), "ns");
    add("j2k.ict_dc_ns_per_sample", per_sample(r, "j2k.ict_dc"), "ns");
    add("j2k.layer_ms", per_call(r, "j2k.layer", 1e6), "ms");
    add("j2k.t1_bytes_per_req", t1_bytes / n, "B");
    add("ccsds.decode_ns_per_sample", per_sample(r, "ccsds.decode"), "ns");
    res.blocking_ms_p50 = median(blocking_ns) / 1e6;
    res.tier1_frac_lossless = r.decode_ns[0] > 0.0 ? r.t1_ns[0] / r.decode_ns[0] : 0.0;
    res.tier1_frac_lossy = r.decode_ns[1] > 0.0 ? r.t1_ns[1] / r.decode_ns[1] : 0.0;
    return res;
}

}  // namespace bench
