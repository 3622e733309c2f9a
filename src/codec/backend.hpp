// codec/backend.hpp — the codec_backend interface and the process-wide
// registry.
//
// The paper's discipline is seamless refinement: one behaviour carried across
// abstraction layers behind stable interfaces.  The runtime, cache, and net
// layers are codec-shaped, not JPEG-2000-shaped — they admit bytes, decode
// them into a codec::image, cache the result, and frame it onto a socket.
// This interface is that boundary made explicit:
//
//     wire codec byte ──► registry ──► backend ──► decode()
//                                        │
//                                        └─ capabilities: what request knobs
//                                           (reduction, layers, pass caps,
//                                           progressive streaming) the codec
//                                           honours — the server rejects a
//                                           codec/flag mismatch *typed*, at
//                                           admission, instead of deep in a
//                                           decode worker.
//
// Contract for every backend:
//   - decode() returns the image or throws codec::codestream_error for any
//     malformed/hostile input (see codec/error.hpp); no other failure mode.
//   - decode() is const and thread-safe: one backend instance serves every
//     pool worker concurrently.
//   - wire_id() is the J2NE codec byte and is stable forever (cache keys and
//     clients depend on it); name() is the human/config spelling.
//
// Registration is explicit and append-only: each codec library exposes an
// idempotent ensure_*_registered() the serving layer calls at construction.
// Nothing is ever unregistered, so `const backend*` results stay valid for
// the process lifetime.
#pragma once

#include "error.hpp"
#include "image.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace codec {

/// What a backend can do with the per-request decode knobs.  The serving
/// layer rejects requests that set a knob the codec does not honour.
struct capabilities {
    bool resolution_reduction = false;  ///< honours decode_request::discard_levels
    bool quality_layers = false;        ///< honours max_quality_layers
    bool pass_cap = false;              ///< honours max_passes (SNR scalability)
    bool progressive = false;           ///< layer-by-layer refinement (j2k sessions)
    int max_components = 1;             ///< band limit this codec can emit
};

/// Per-request decode knobs, codec-neutral (a codec ignores — after the
/// serving layer's capability check — what it does not implement).
struct decode_request {
    int discard_levels = 0;      ///< resolution: decode at 1/2^n size
    int max_quality_layers = 0;  ///< layered streams: first n layers (0 = all)
    int max_passes = 0;          ///< SNR: cap entropy passes (0 = all)
};

/// Where one decode spent its time: wall time per pipeline stage, summed over
/// tiles (parallel tiles add up to more than the elapsed time), and the tiles
/// decoded.  Codecs with a staged pipeline (j2k) add into it; the serving
/// layer turns it into its stage and tile counters.
struct stage_profile {
    std::uint64_t entropy_ns = 0;  ///< entropy (tier-1) decoding
    std::uint64_t iq_ns = 0;       ///< inverse quantisation
    std::uint64_t idwt_ns = 0;     ///< inverse wavelet transform
    std::uint64_t finish_ns = 0;   ///< inverse colour transform + DC shift
    std::uint64_t tiles = 0;
};

class backend {
public:
    virtual ~backend() = default;

    /// Stable human/config name ("j2k", "ccsds123").
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;
    /// The J2NE request-frame codec byte; stable forever.
    [[nodiscard]] virtual std::uint8_t wire_id() const noexcept = 0;
    [[nodiscard]] virtual capabilities caps() const noexcept = 0;

    /// Decode a whole codestream.  Scratch comes from the heap and is freed as
    /// each stage ends.  `profile`, when non-null, accumulates where the
    /// decode spent its time.  Throws codec::codestream_error on malformed
    /// input — nothing else.
    [[nodiscard]] virtual image decode(std::span<const std::uint8_t> bytes,
                                       const decode_request& req,
                                       stage_profile* profile = nullptr) const = 0;
};

// ---- process-wide registry -------------------------------------------------

/// Register a backend.  Idempotent for the same object; throws
/// std::invalid_argument when a *different* backend already claims the same
/// wire id or name (ids are forever — colliding ones are a build error, not
/// a runtime preference).
void register_backend(std::shared_ptr<const backend> b);

/// Look up by wire id / name.  Null when unknown.  Returned pointers live for
/// the process lifetime.
[[nodiscard]] const backend* find_backend(std::uint8_t wire_id) noexcept;
[[nodiscard]] const backend* find_backend(std::string_view name) noexcept;

/// Snapshot of every registered backend, in registration order (metrics
/// exposition, --help text).
[[nodiscard]] std::vector<const backend*> backends();

}  // namespace codec
