#include "image.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace j2k {

namespace {

/// Tiles across and down a w×h image in tw×th tiles.
std::pair<std::int64_t, std::int64_t> grid_extent(int w, int h, int tw, int th)
{
    if (w <= 0 || h <= 0 || tw <= 0 || th <= 0)
        throw std::invalid_argument{"tile_grid: sizes must be positive"};
    return {(w - 1) / tw + 1, (h - 1) / th + 1};
}

}  // namespace

std::vector<tile_rect> tile_grid(int w, int h, int tw, int th)
{
    const auto [across, down] = grid_extent(w, h, tw, th);
    std::vector<tile_rect> tiles;
    tiles.reserve(static_cast<std::size_t>(across * down));
    for (int i = 0; i < across * down; ++i) tiles.push_back(tile_at(w, h, tw, th, i));
    return tiles;
}

tile_rect tile_at(int w, int h, int tw, int th, int index)
{
    const auto [across, down] = grid_extent(w, h, tw, th);
    if (index < 0 || index >= across * down) throw std::out_of_range{"tile_at: tile index"};
    const auto x = static_cast<int>(index % across * tw);
    const auto y = static_cast<int>(index / across * th);
    return {index, x, y, std::min(tw, w - x), std::min(th, h - y)};
}

plane extract_tile(const plane& src, const tile_rect& r)
{
    plane t{r.width, r.height};
    for (int y = 0; y < r.height; ++y) {
        const std::int32_t* s = src.row(r.y0 + y) + r.x0;
        std::int32_t* d = t.row(y);
        std::copy(s, s + r.width, d);
    }
    return t;
}

void insert_tile(plane& dst, const plane& tile, const tile_rect& r)
{
    if (tile.width() != r.width || tile.height() != r.height)
        throw std::invalid_argument{"insert_tile: size mismatch"};
    for (int y = 0; y < r.height; ++y) {
        const std::int32_t* s = tile.row(y);
        std::int32_t* d = dst.row(r.y0 + y) + r.x0;
        std::copy(s, s + r.width, d);
    }
}

}  // namespace j2k
