#include "backend.hpp"

#include "codec.hpp"
#include "session.hpp"

#include <runtime/thread_pool.hpp>

#include <memory>

namespace j2k {

namespace {

class j2k_backend final : public codec::backend {
public:
    [[nodiscard]] std::string_view name() const noexcept override { return "j2k"; }
    [[nodiscard]] std::uint8_t wire_id() const noexcept override
    {
        return k_codec_wire_id;
    }

    [[nodiscard]] codec::capabilities caps() const noexcept override
    {
        codec::capabilities c;
        c.resolution_reduction = true;
        c.quality_layers = true;
        c.pass_cap = true;
        c.progressive = true;
        c.max_components = 4;  // the SIZ-equivalent header check in codestream.cpp
        return c;
    }

    [[nodiscard]] codec::image decode(std::span<const std::uint8_t> bytes,
                                      const codec::decode_request& req,
                                      codec::stage_profile* profile) const override
    {
        decoder dec{bytes};
        dec.set_max_passes(req.max_passes);
        dec.set_max_quality_layers(req.max_quality_layers);
        if (req.discard_levels > 0)
            return dec.decode_reduced(req.discard_levels, nullptr, profile);
        // One full-depth advance of a fresh session is the one-shot decode.
        // On a pool worker the tiles fan out over that worker's own pool.
        decode_session s{dec};
        if (const runtime::thread_pool* pool = runtime::thread_pool::current())
            s.set_threads(pool->size());
        return s.advance_to(req.max_quality_layers, nullptr, profile);
    }
};

}  // namespace

const codec::backend& ensure_backend_registered()
{
    static const std::shared_ptr<const j2k_backend> instance = [] {
        auto b = std::make_shared<const j2k_backend>();
        codec::register_backend(b);
        return b;
    }();
    return *instance;
}

}  // namespace j2k
