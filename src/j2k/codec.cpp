#include "codec.hpp"

#include "kernels.hpp"
#include "session.hpp"

#include <obs/trace.hpp>

#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

namespace j2k {

namespace {

using detail::for_each_codeblock;

void gather_block(const plane& p, int x0, int y0, int w, int h, std::vector<std::int32_t>& out)
{
    out.resize(static_cast<std::size_t>(w) * h);
    for (int y = 0; y < h; ++y) {
        const std::int32_t* s = p.row(y0 + y) + x0;
        std::copy(s, s + w, out.begin() + static_cast<std::ptrdiff_t>(y) * w);
    }
}

/// Quantise a 9/7 coefficient buffer (doubles) into an integer plane, band by
/// band, using per-band step sizes.
plane quantize_tile(const std::vector<double>& buf, int w, int h,
                    const quant_params& q, int levels, int bit_depth)
{
    plane out{w, h};
    for (const auto& br : subband_layout(w, h, levels)) {
        const double step = quant_step(q, br.b, br.level == 0 ? levels : br.level,
                                       wavelet::w9_7, bit_depth);
        for (int y = 0; y < br.height; ++y) {
            for (int x = 0; x < br.width; ++x) {
                const auto i = static_cast<std::size_t>(br.y0 + y) * w + (br.x0 + x);
                out.at(br.x0 + x, br.y0 + y) = quantize_value(buf[i], step);
            }
        }
    }
    return out;
}

}  // namespace

std::vector<std::uint8_t> encode(const image& img, const codec_params& p)
{
    if (p.levels < 0 || p.levels > 12)
        throw std::invalid_argument{"encode: levels out of range"};
    if (p.tile_width <= 0 || p.tile_height <= 0)
        throw std::invalid_argument{"encode: bad tile size"};

    image work = img;
    dc_shift_forward(work);
    if (work.components() == 3) {
        if (p.mode == wavelet::w5_3)
            rct_forward(work);
        else
            ict_forward(work);
    }

    stream_info info;
    info.width = img.width();
    info.height = img.height();
    info.components = img.components();
    info.bit_depth = img.bit_depth();
    info.tile_width = p.tile_width;
    info.tile_height = p.tile_height;
    info.mode = p.mode;
    info.levels = p.levels;
    info.quality_layers = std::max(1, p.quality_layers);
    info.quant = p.quant;

    byte_writer w;
    write_header(w, info);

    if (info.quality_layers > 1) {
        // Quality-progressive stream: per tile, encode every code block into
        // layered segments; serialise layer-major with a chunk directory.
        const int layers = info.quality_layers;
        const auto grid = tile_grid(info.width, info.height, p.tile_width, p.tile_height);
        std::vector<std::vector<std::vector<std::uint8_t>>> chunks(
            static_cast<std::size_t>(layers));  // [layer][tile]
        for (auto& lc : chunks) lc.resize(grid.size());

        std::vector<std::int32_t> blk;
        for (const auto& tr : grid) {
            std::vector<byte_writer> layer_w(static_cast<std::size_t>(layers));
            for (int c = 0; c < work.components(); ++c) {
                plane tp = extract_tile(work.comp(c), tr);
                plane coeffs{tr.width, tr.height};
                if (p.mode == wavelet::w5_3) {
                    dwt53_forward(tp, p.levels);
                    coeffs = std::move(tp);
                } else {
                    std::vector<double> buf(tp.samples().begin(), tp.samples().end());
                    dwt97_forward(buf, tr.width, tr.height, p.levels);
                    coeffs = quantize_tile(buf, tr.width, tr.height, p.quant, p.levels,
                                           info.bit_depth);
                }
                for (const auto& br : subband_layout(tr.width, tr.height, p.levels)) {
                    if (br.width == 0 || br.height == 0) continue;
                    for_each_codeblock(br, [&](int x0, int y0, int bw, int bh) {
                        gather_block(coeffs, x0, y0, bw, bh, blk);
                        // Proportional pass allocation over the layers.
                        const codeblock probe = tier1_encode(blk.data(), bw, bh, br.b);
                        const int total = probe.pass_count();
                        std::vector<int> per_layer(static_cast<std::size_t>(layers), 0);
                        int prev = 0;
                        for (int l = 0; l < layers; ++l) {
                            const int cum = total * (l + 1) / layers;
                            per_layer[static_cast<std::size_t>(l)] = cum - prev;
                            prev = cum;
                        }
                        const layered_codeblock lcb =
                            tier1_encode_layered(blk.data(), bw, bh, br.b, per_layer);
                        for (int l = 0; l < layers; ++l) {
                            auto& lw = layer_w[static_cast<std::size_t>(l)];
                            if (l == 0)
                                lw.u8(static_cast<std::uint8_t>(lcb.num_planes));
                            const auto& seg = lcb.num_planes == 0
                                                  ? layered_codeblock::segment{}
                                                  : lcb.segments[static_cast<std::size_t>(l)];
                            lw.u8(static_cast<std::uint8_t>(seg.passes));
                            lw.u32(static_cast<std::uint32_t>(seg.data.size()));
                            lw.bytes(seg.data);
                        }
                    });
                }
            }
            for (int l = 0; l < layers; ++l)
                chunks[static_cast<std::size_t>(l)][static_cast<std::size_t>(tr.index)] =
                    layer_w[static_cast<std::size_t>(l)].take();
        }
        // Directory, then the chunks in layer-major order.
        for (int l = 0; l < layers; ++l)
            for (const auto& ch : chunks[static_cast<std::size_t>(l)])
                w.u32(static_cast<std::uint32_t>(ch.size()));
        for (int l = 0; l < layers; ++l)
            for (const auto& ch : chunks[static_cast<std::size_t>(l)])
                w.bytes(ch);
        return w.take();
    }

    std::vector<std::int32_t> block;
    for (const auto& tr : tile_grid(info.width, info.height, p.tile_width, p.tile_height)) {
        const std::size_t len_pos = w.size();
        w.u32(0);  // patched below
        const std::size_t payload_start = w.size();

        for (int c = 0; c < work.components(); ++c) {
            plane tp = extract_tile(work.comp(c), tr);
            plane coeffs{tr.width, tr.height};
            if (p.mode == wavelet::w5_3) {
                dwt53_forward(tp, p.levels);
                coeffs = std::move(tp);
            } else {
                std::vector<double> buf(tp.samples().begin(), tp.samples().end());
                dwt97_forward(buf, tr.width, tr.height, p.levels);
                coeffs = quantize_tile(buf, tr.width, tr.height, p.quant, p.levels,
                                       info.bit_depth);
            }
            for (const auto& br : subband_layout(tr.width, tr.height, p.levels)) {
                if (br.width == 0 || br.height == 0) continue;
                for_each_codeblock(br, [&](int x0, int y0, int bw, int bh) {
                    gather_block(coeffs, x0, y0, bw, bh, block);
                    const codeblock cb = tier1_encode(block.data(), bw, bh, br.b);
                    w.u8(static_cast<std::uint8_t>(cb.num_planes));
                    w.u32(static_cast<std::uint32_t>(cb.data.size()));
                    w.bytes(cb.data);
                });
            }
        }
        w.patch_u32(len_pos, static_cast<std::uint32_t>(w.size() - payload_start));
    }
    return w.take();
}

decoder::decoder(std::span<const std::uint8_t> cs) : cs_{cs}, info_{read_header(cs)} {}

std::vector<tile_rect> decoder::tiles() const
{
    return tile_grid(info_.width, info_.height, info_.tile_width, info_.tile_height);
}

tile_coeffs decoder::entropy_decode(int tile_index, tier1_stats* stats,
                                    std::pmr::memory_resource* mr) const
{
    OBS_TRACE_SCOPE("j2k", "tier1");
    const auto grid = tiles();
    if (tile_index < 0 || tile_index >= static_cast<int>(grid.size()))
        throw std::out_of_range{"entropy_decode: tile index"};
    const tile_rect tr = grid[static_cast<std::size_t>(tile_index)];

    if (info_.quality_layers > 1)
        return entropy_decode_layered(tile_index, stats, mr);

    byte_reader r{cs_};
    r.seek(info_.tile_offsets[static_cast<std::size_t>(tile_index)]);

    tile_coeffs tc;
    tc.rect = tr;
    for (int c = 0; c < info_.components; ++c) {
        plane coeffs{tr.width, tr.height};
        for (const auto& br : subband_layout(tr.width, tr.height, info_.levels)) {
            if (br.width == 0 || br.height == 0) continue;
            for_each_codeblock(br, [&](int x0, int y0, int bw, int bh) {
                const int planes = r.u8();
                const std::uint32_t len = r.u32();
                const auto seg = r.bytes(len);
                tier1_decode(bw, bh, planes, seg, coeffs.row(y0) + x0, coeffs.width(),
                             br.b, stats, max_passes_, mr);
            });
        }
        tc.comps.push_back(std::move(coeffs));
    }
    return tc;
}

tile_coeffs decoder::entropy_decode_layered(int tile_index, tier1_stats* stats,
                                            std::pmr::memory_resource* mr) const
{
    const auto grid = tiles();
    const tile_rect tr = grid[static_cast<std::size_t>(tile_index)];
    const int layers = info_.quality_layers;
    const int use = max_layers_ <= 0 ? layers : std::min(max_layers_, layers);

    // Gather each block's segments from the layer-major chunks, in the same
    // canonical block order the encoder used.  Segments stay spans into the
    // codestream.
    struct block_segments {
        int planes;
        std::vector<std::pair<int, std::span<const std::uint8_t>>> segs;  ///< passes, bytes
    };
    std::vector<block_segments> blocks;
    for (int l = 0; l < use; ++l) {
        const std::size_t idx =
            static_cast<std::size_t>(l) * static_cast<std::size_t>(grid.size()) +
            static_cast<std::size_t>(tile_index);
        byte_reader r{cs_};
        r.seek(info_.chunk_offsets[idx]);
        std::size_t bi = 0;
        for (int c = 0; c < info_.components; ++c) {
            for (const auto& br : subband_layout(tr.width, tr.height, info_.levels)) {
                if (br.width == 0 || br.height == 0) continue;
                for_each_codeblock(br, [&](int, int, int, int) {
                    if (l == 0) blocks.push_back({r.u8(), {}});
                    const int passes = r.u8();
                    const std::uint32_t len = r.u32();
                    blocks.at(bi).segs.emplace_back(passes, r.bytes(len));
                    ++bi;
                });
            }
        }
    }

    tile_coeffs tc;
    tc.rect = tr;
    std::size_t bi = 0;
    for (int c = 0; c < info_.components; ++c) {
        plane coeffs{tr.width, tr.height};
        for (const auto& br : subband_layout(tr.width, tr.height, info_.levels)) {
            if (br.width == 0 || br.height == 0) continue;
            for_each_codeblock(br, [&](int x0, int y0, int bw, int bh) {
                const block_segments& b = blocks.at(bi++);
                // tier1_decode_layered over the codestream's own bytes.
                tier1_block_decoder dec{bw, bh, b.planes, br.b, mr};
                for (const auto& [passes, data] : b.segs) dec.advance(passes, data, stats);
                dec.read(coeffs.row(y0) + x0, coeffs.width());
            });
        }
        tc.comps.push_back(std::move(coeffs));
    }
    return tc;
}

tile_wavelet decoder::dequantize(tile_coeffs tc) const
{
    OBS_TRACE_SCOPE("j2k", "iq");
    tile_wavelet tw;
    tw.rect = tc.rect;
    tw.lossy = info_.mode == wavelet::w9_7;
    if (!tw.lossy) {
        tw.iplanes = std::move(tc.comps);  // reversible path: IQ is the identity
        return tw;
    }
    for (const auto& cp : tc.comps) {
        std::vector<double> buf(static_cast<std::size_t>(cp.width()) * cp.height(), 0.0);
        for (const auto& br : subband_layout(cp.width(), cp.height(), info_.levels)) {
            const double step = quant_step(info_.quant, br.b, br.level == 0 ? info_.levels : br.level,
                                           wavelet::w9_7, info_.bit_depth);
            // Band rows are contiguous within the plane — dequantise a whole
            // row per kernel call.
            for (int y = 0; y < br.height; ++y) {
                const std::int32_t* src = cp.row(br.y0 + y) + br.x0;
                double* dst =
                    buf.data() + static_cast<std::size_t>(br.y0 + y) * cp.width() + br.x0;
                kernel::dequant(src, dst, step, static_cast<std::size_t>(br.width));
            }
        }
        tw.dplanes.push_back(std::move(buf));
    }
    return tw;
}

tile_pixels decoder::idwt(tile_wavelet tw, std::pmr::memory_resource* mr) const
{
    OBS_TRACE_SCOPE("j2k", "idwt");
    tile_pixels tp;
    tp.rect = tw.rect;
    if (!tw.lossy) {
        // The 5/3 synthesis runs in place in the coefficient planes.
        for (plane& p : tw.iplanes) dwt53_inverse(p, info_.levels, mr);
        tp.comps = std::move(tw.iplanes);
        return tp;
    }
    for (auto& buf : tw.dplanes) {
        dwt97_inverse(buf, tw.rect.width, tw.rect.height, info_.levels, mr);
        plane p{tw.rect.width, tw.rect.height};
        for (std::size_t i = 0; i < buf.size(); ++i)
            p.samples()[i] = static_cast<std::int32_t>(std::lround(buf[i]));
        tp.comps.push_back(std::move(p));
    }
    return tp;
}

void decoder::finish(image& img) const
{
    if (img.components() == 3) {
        OBS_TRACE_SCOPE("j2k", "ict");
        if (info_.mode == wavelet::w5_3)
            rct_inverse(img);
        else
            ict_inverse(img);
    }
    OBS_TRACE_SCOPE("j2k", "dc_shift");
    dc_shift_inverse(img);
}

image decoder::decode_all(decode_stats* stats) const
{
    // Thin wrapper over a full-depth decode session: one advance_to at the
    // configured layer cap is exactly the classic one-shot decode.
    decode_session s{*this};
    return s.advance_to(max_layers_, stats);
}

image decoder::decode_all_parallel(int threads) const
{
    if (threads <= 0)
        threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    decode_session s{*this};
    s.set_threads(threads);
    return s.advance_to(max_layers_);
}

image decoder::decode_reduced(int discard, decode_stats* stats,
                              codec::stage_profile* profile) const
{
    using codec::stage_profile;
    if (discard < 0 || discard > info_.levels)
        throw std::invalid_argument{"decode_reduced: discard out of range"};
    if (discard == 0) {
        decode_session s{*this};
        return s.advance_to(max_layers_, stats, profile);
    }

    const int rw = reduced_extent(info_.width, discard);
    const int rh = reduced_extent(info_.height, discard);
    image img{rw, rh, info_.components, info_.bit_depth};
    const auto grid = tiles();
    for (int t = 0; t < static_cast<int>(grid.size()); ++t) {
        const tile_rect& tr = grid[static_cast<std::size_t>(t)];
        detail::stage_laps lap{profile};
        tile_coeffs tc = entropy_decode(t, stats ? &stats->t1 : nullptr);
        lap.add(&stage_profile::entropy_ns);
        const tile_wavelet tw = dequantize(std::move(tc));
        lap.add(&stage_profile::iq_ns);
        // Partial synthesis, then crop the reduced-resolution LL region.
        const int tw_r = reduced_extent(tr.width, discard);
        const int th_r = reduced_extent(tr.height, discard);
        // Tile origins are multiples of the tile size; their reduced
        // positions follow the same ceil-division.
        tile_rect rr{tr.index, reduced_extent(tr.x0, discard),
                     reduced_extent(tr.y0, discard), tw_r, th_r};
        for (int comp = 0; comp < info_.components; ++comp) {
            plane full{tr.width, tr.height};
            if (!tw.lossy) {
                full = tw.iplanes[static_cast<std::size_t>(comp)];
                dwt53_inverse_partial(full, info_.levels, discard);
            } else {
                std::vector<double> buf = tw.dplanes[static_cast<std::size_t>(comp)];
                dwt97_inverse_partial(buf, tr.width, tr.height, info_.levels, discard);
                for (std::size_t i = 0; i < buf.size(); ++i)
                    full.samples()[i] = static_cast<std::int32_t>(std::lround(buf[i]));
            }
            const tile_rect crop{0, 0, 0, tw_r, th_r};
            insert_tile(img.comp(comp), extract_tile(full, crop), rr);
        }
        lap.add(&stage_profile::idwt_ns);
        if (stats) {
            const auto n = static_cast<std::uint64_t>(tw_r) * th_r *
                           static_cast<std::uint64_t>(info_.components);
            stats->iq_samples += static_cast<std::uint64_t>(tr.width) * tr.height *
                                 static_cast<std::uint64_t>(info_.components);
            stats->idwt_samples += n;
        }
    }
    detail::stage_laps lap{profile};
    finish(img);
    lap.add(&stage_profile::finish_ns);
    if (profile) profile->tiles += grid.size();
    return img;
}

image decode(std::span<const std::uint8_t> cs, decode_stats* stats)
{
    return decoder{cs}.decode_all(stats);
}

}  // namespace j2k
