#include "session.hpp"

#include <obs/trace.hpp>
#include <runtime/thread_pool.hpp>

#include <stdexcept>
#include <utility>

namespace j2k {

namespace {

void add_stats(decode_stats& into, const decode_stats& s)
{
    into.t1.mq_decisions += s.t1.mq_decisions;
    into.t1.passes += s.t1.passes;
    into.t1.samples += s.t1.samples;
    for (std::size_t k = 0; k < into.t1.by_pass.size(); ++k) {
        into.t1.by_pass[k].decisions += s.t1.by_pass[k].decisions;
        into.t1.by_pass[k].ns += s.t1.by_pass[k].ns;
    }
    into.iq_samples += s.iq_samples;
    into.idwt_samples += s.idwt_samples;
    into.ict_samples += s.ict_samples;
    into.dc_samples += s.dc_samples;
}

void add_profile(codec::stage_profile& into, const codec::stage_profile& p)
{
    into.entropy_ns += p.entropy_ns;
    into.iq_ns += p.iq_ns;
    into.idwt_ns += p.idwt_ns;
    into.finish_ns += p.finish_ns;
    into.tiles += p.tiles;
}

}  // namespace

struct decode_session::impl {
    decoder dec;
    std::vector<tile_rect> grid;
    int threads = 1;
    int current = 0;     ///< layers consumed so far
    bool poisoned = false;
    /// Backs per-advance transients only (see session.hpp) — never the
    /// persistent block slots, which may outlive the resource.
    std::pmr::memory_resource* scratch = nullptr;
    /// Segment payload bytes handed to the MQ decoders so far.  Plain streams
    /// decode through decoder::entropy_decode and are not tracked here (a
    /// plain stream has no layer segments — the counter stays 0).
    std::uint64_t seg_bytes = 0;

    /// Persistent tier-1 state of one code block (layered streams only).
    struct block_slot {
        int comp;
        int x0, y0;  ///< the block's place in its tile plane
        tier1_block_decoder t1;
    };
    std::vector<std::vector<block_slot>> slots;  ///< [tile] in canonical order

    explicit impl(const decoder& d) : dec{d}, grid{d.tiles()}
    {
        if (dec.info().quality_layers > 1) slots.resize(grid.size());
    }

    [[nodiscard]] bool layered() const noexcept { return dec.info().quality_layers > 1; }

    /// Arithmetic-decode the segments of layers [from, to) for one tile into
    /// the tile's persistent block decoders.  Layer 0 also builds the slots
    /// (block geometry and plane counts live in the layer-0 chunk).
    void feed_tile(int t, int from, int to, tier1_stats* ts, std::uint64_t* bytes)
    {
        OBS_TRACE_SCOPE("j2k", "tier1");
        const stream_info& info = dec.info();
        const tile_rect tr = grid[static_cast<std::size_t>(t)];
        auto& tb = slots[static_cast<std::size_t>(t)];
        for (int l = from; l < to; ++l) {
            byte_reader r{dec.codestream()};
            r.seek(info.chunk_offsets[static_cast<std::size_t>(l) * grid.size() +
                                      static_cast<std::size_t>(t)]);
            std::size_t bi = 0;
            for (int c = 0; c < info.components; ++c) {
                for (const auto& br : subband_layout(tr.width, tr.height, info.levels)) {
                    if (br.width == 0 || br.height == 0) continue;
                    detail::for_each_codeblock(br, [&](int x0, int y0, int bw, int bh) {
                        if (l == 0) {
                            const int planes = r.u8();
                            tb.push_back(block_slot{c, x0, y0,
                                                    tier1_block_decoder{bw, bh, planes, br.b}});
                        }
                        block_slot& s = tb.at(bi);
                        const int passes = r.u8();
                        const std::uint32_t len = r.u32();
                        const auto data = r.bytes(len);
                        s.t1.advance(passes, data, ts);
                        *bytes += len;
                        ++bi;
                    });
                }
            }
        }
    }

    /// Downstream stages for one tile: materialise coefficients (from the
    /// persistent slots, or transiently via entropy_decode for plain
    /// streams), then IQ → IDWT → place into the shared image.  `lap`
    /// charges everything since it last ran (a feed_tile included) to
    /// entropy decoding.
    void synth_tile(int t, image& img, decode_stats* stats, detail::stage_laps& lap)
    {
        const stream_info& info = dec.info();
        const tile_rect tr = grid[static_cast<std::size_t>(t)];
        tile_coeffs tc;
        if (layered()) {
            tc.rect = tr;
            for (int c = 0; c < info.components; ++c)
                tc.comps.emplace_back(tr.width, tr.height);
            for (const auto& s : slots[static_cast<std::size_t>(t)]) {
                plane& p = tc.comps[static_cast<std::size_t>(s.comp)];
                s.t1.read(p.row(s.y0) + s.x0, p.width());
            }
        } else {
            tc = dec.entropy_decode(t, stats ? &stats->t1 : nullptr, scratch);
        }
        lap.add(&codec::stage_profile::entropy_ns);
        tile_wavelet tw = dec.dequantize(std::move(tc));
        lap.add(&codec::stage_profile::iq_ns);
        const tile_pixels tp = dec.idwt(std::move(tw), scratch);
        lap.add(&codec::stage_profile::idwt_ns);
        for (int c = 0; c < info.components; ++c)
            insert_tile(img.comp(c), tp.comps[static_cast<std::size_t>(c)], tr);
        if (stats) {
            const auto n = static_cast<std::uint64_t>(tr.width) *
                           static_cast<std::uint64_t>(tr.height) *
                           static_cast<std::uint64_t>(info.components);
            stats->iq_samples += n;
            stats->idwt_samples += n;
        }
    }
};

decode_session::decode_session(std::span<const std::uint8_t> cs)
    : impl_{std::make_unique<impl>(decoder{cs})}
{
}

decode_session::decode_session(const decoder& dec) : impl_{std::make_unique<impl>(dec)} {}

decode_session::~decode_session() = default;
decode_session::decode_session(decode_session&&) noexcept = default;
decode_session& decode_session::operator=(decode_session&&) noexcept = default;

const stream_info& decode_session::info() const noexcept
{
    return impl_->dec.info();
}

int decode_session::total_layers() const noexcept
{
    return impl_->dec.info().quality_layers;
}

int decode_session::layers_decoded() const noexcept
{
    return impl_->current;
}

bool decode_session::complete() const noexcept
{
    return impl_->current >= total_layers();
}

void decode_session::set_threads(int threads) noexcept
{
    impl_->threads = threads < 1 ? 1 : threads;
}

void decode_session::set_scratch_arena(std::pmr::memory_resource* mr) noexcept
{
    impl_->scratch = mr;
}

std::uint64_t decode_session::tier1_segment_bytes() const noexcept
{
    return impl_->seg_bytes;
}

std::size_t decode_session::resident_bytes() const noexcept
{
    std::size_t total = 0;
    for (const auto& tb : impl_->slots) {
        total += tb.capacity() * sizeof(impl::block_slot);
        for (const auto& s : tb) total += s.t1.resident_bytes();
    }
    return total;
}

image decode_session::advance_to(int layers, decode_stats* stats,
                                 codec::stage_profile* profile)
{
    impl& im = *impl_;
    if (im.poisoned)
        throw std::logic_error{"decode_session: unusable after an earlier decode error"};
    OBS_TRACE_SCOPE("j2k", "session_advance");

    const stream_info& info = im.dec.info();
    const int total = total_layers();
    const int target = (layers <= 0 || layers > total) ? total : layers;
    const bool feed = im.layered() && target > im.current;

    image img{info.width, info.height, info.components, info.bit_depth};
    const int ntiles = static_cast<int>(im.grid.size());
    const int workers = std::min(im.threads, ntiles);

    // Per-tile accumulators, merged once the loop has quiesced: tiles may run
    // in parallel, and each writes only its own slot (and its own region of
    // `img`), so the loop shares no mutable state.
    struct tile_work {
        decode_stats stats;
        codec::stage_profile profile;
        std::uint64_t seg_bytes = 0;
    };
    std::vector<tile_work> work(static_cast<std::size_t>(ntiles));
    auto do_tile = [&](int t) {
        OBS_TRACE_SCOPE("j2k", "tile");
        tile_work& w = work[static_cast<std::size_t>(t)];
        decode_stats* st = stats ? &w.stats : nullptr;
        detail::stage_laps lap{profile ? &w.profile : nullptr};
        if (feed) im.feed_tile(t, im.current, target, st ? &st->t1 : nullptr, &w.seg_bytes);
        im.synth_tile(t, img, st, lap);
    };

    try {
        if (workers > 1) {
            // The first tile's exception is rethrown here by parallel_for
            // once the loop has quiesced.
            runtime::thread_pool* pool = runtime::thread_pool::current();
            (pool ? *pool : runtime::thread_pool::shared())
                .parallel_for(ntiles, do_tile, workers);
        } else {
            for (int t = 0; t < ntiles; ++t) do_tile(t);
        }
    } catch (...) {
        // Partially-fed block state is unrecoverable; refuse further use
        // rather than silently decoding garbage.
        im.poisoned = true;
        throw;
    }
    for (const tile_work& w : work) {
        if (stats) add_stats(*stats, w.stats);
        if (profile) add_profile(*profile, w.profile);
        im.seg_bytes += w.seg_bytes;
    }

    im.current = im.layered() ? std::max(im.current, target) : 1;
    detail::stage_laps lap{profile};
    im.dec.finish(img);
    lap.add(&codec::stage_profile::finish_ns);
    if (profile) profile->tiles += static_cast<std::uint64_t>(ntiles);
    if (stats) {
        const auto n = static_cast<std::uint64_t>(info.width) *
                       static_cast<std::uint64_t>(info.height) *
                       static_cast<std::uint64_t>(info.components);
        stats->ict_samples += n;
        stats->dc_samples += n;
    }
    return img;
}

image decode_session::advance(decode_stats* stats)
{
    const int next = std::min(layers_decoded() + 1, total_layers());
    return advance_to(next, stats);
}

}  // namespace j2k
