#include "backend.hpp"

#include <mutex>
#include <stdexcept>
#include <string>

namespace codec {

namespace {

struct registry_state {
    std::mutex m;
    std::vector<std::shared_ptr<const backend>> entries;
};

registry_state& reg()
{
    static registry_state r;  // never destroyed order problems: trivially leaked refs
    return r;
}

}  // namespace

void register_backend(std::shared_ptr<const backend> b)
{
    if (!b) throw std::invalid_argument{"register_backend: null backend"};
    registry_state& r = reg();
    std::lock_guard lk{r.m};
    for (const auto& e : r.entries) {
        if (e.get() == b.get()) return;  // idempotent re-registration
        if (e->wire_id() == b->wire_id())
            throw std::invalid_argument{"register_backend: wire id " +
                                        std::to_string(b->wire_id()) +
                                        " already registered to " +
                                        std::string{e->name()}};
        if (e->name() == b->name())
            throw std::invalid_argument{"register_backend: name '" +
                                        std::string{b->name()} +
                                        "' already registered"};
    }
    r.entries.push_back(std::move(b));
}

const backend* find_backend(std::uint8_t wire_id) noexcept
{
    registry_state& r = reg();
    std::lock_guard lk{r.m};
    for (const auto& e : r.entries)
        if (e->wire_id() == wire_id) return e.get();
    return nullptr;
}

const backend* find_backend(std::string_view name) noexcept
{
    registry_state& r = reg();
    std::lock_guard lk{r.m};
    for (const auto& e : r.entries)
        if (e->name() == name) return e.get();
    return nullptr;
}

std::vector<const backend*> backends()
{
    registry_state& r = reg();
    std::lock_guard lk{r.m};
    std::vector<const backend*> out;
    out.reserve(r.entries.size());
    for (const auto& e : r.entries) out.push_back(e.get());
    return out;
}

}  // namespace codec
