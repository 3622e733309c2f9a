// j2k/image.hpp — tile containers for the JPEG 2000 codec, over the shared
// codec::image currency.
//
// The image/plane types themselves live in codec/image.hpp since the
// codec_backend refactor: they are the currency of the runtime service, the
// cache, and the wire protocol, shared by every codec.  The aliases below
// keep the whole j2k pipeline (and its callers) source-identical.  What stays
// here is the genuinely JPEG-2000-shaped part: the tile grid and the tile
// copy-in/copy-out the paper's tile-based processing pipeline uses.
//
// Note the component cap moved with the type: codec::image accepts up to
// codec::k_max_components planes (multispectral backends need dozens of
// bands), while the J2K codestream parser keeps enforcing its own 1..4
// component limit on stream data (codestream.cpp), so hostile J2K headers
// are rejected exactly as before.
#pragma once

#include <codec/image.hpp>

#include <cstdint>
#include <vector>

namespace j2k {

using codec::plane;
using codec::image;
using codec::make_test_image;
using codec::psnr;

/// Position + size of a tile within the image grid.
struct tile_rect {
    int index = 0;
    int x0 = 0;
    int y0 = 0;
    int width = 0;
    int height = 0;
};

/// Compute the tile grid for an image of w×h with nominal tile size tw×th.
/// Border tiles are clipped; every pixel belongs to exactly one tile.
[[nodiscard]] std::vector<tile_rect> tile_grid(int w, int h, int tw, int th);

/// Tile `index` of that grid (raster order), without building the grid.
[[nodiscard]] tile_rect tile_at(int w, int h, int tw, int th, int index);

/// Copy tile `r` of component plane `src` into a dense plane.
[[nodiscard]] plane extract_tile(const plane& src, const tile_rect& r);

/// Paste dense `tile` back into `dst` at the position described by `r`.
void insert_tile(plane& dst, const plane& tile, const tile_rect& r);

}  // namespace j2k
