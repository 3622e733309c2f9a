// j2k/backend.hpp — JPEG 2000 as a registered codec::backend.
//
// The adapter over codec.hpp/session.hpp that plugs the paper's decoder into
// the codec registry: wire id 0, the founding codec of the J2NE protocol.
// Its decode() is the j2k one-shot pipeline every caller shares — a
// full-depth decode_session (tiles fanned out over the calling worker's
// pool), or decoder::decode_reduced for reduced-resolution requests.
// Layer-by-layer streaming stays on j2k::decode_session itself.
#pragma once

#include <codec/backend.hpp>

namespace j2k {

/// The J2NE codec byte for JPEG 2000 (and the decode_options default).
inline constexpr std::uint8_t k_codec_wire_id = 0;

/// Register the JPEG 2000 backend with the codec registry.  Idempotent and
/// thread-safe; called by the serving layer at construction.  Returns the
/// backend for convenience.
const codec::backend& ensure_backend_registered();

}  // namespace j2k
