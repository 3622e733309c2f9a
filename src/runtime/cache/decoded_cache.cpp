#include "decoded_cache.hpp"

#include <runtime/hash.hpp>

#include <obs/obs.hpp>

#include <algorithm>
#include <utility>

namespace runtime {

std::size_t cache_key_hash::operator()(const cache_key& k) const noexcept
{
    const auto u = [](std::int32_t v) {
        return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    };
    const std::uint64_t words[3] = {k.content_hash, k.codec | (u(k.layers) << 32),
                                    u(k.discard_levels) | (u(k.max_passes) << 32)};
    return static_cast<std::size_t>(
        seeded_hash({reinterpret_cast<const std::uint8_t*>(words), sizeof words}));
}

std::size_t image_bytes(const j2k::image& img) noexcept
{
    return static_cast<std::size_t>(img.width()) * static_cast<std::size_t>(img.height()) *
           static_cast<std::size_t>(img.components()) * sizeof(std::int32_t);
}

std::size_t image_bytes(const raw_image& img) noexcept
{
    return img.size();
}

namespace {

using input_ptr = std::shared_ptr<const std::vector<std::uint8_t>>;

std::span<const std::uint8_t> view(const input_ptr& in) noexcept
{
    return in ? std::span<const std::uint8_t>{*in} : std::span<const std::uint8_t>{};
}

std::size_t capacity(const input_ptr& in) noexcept
{
    return in ? in->capacity() : 0;
}

}  // namespace

/// One resident decoded result and the bytes it was decoded from.
template <typename Value>
struct basic_decoded_cache<Value>::image_entry {
    image_ptr img;
    input_ptr input;
    std::size_t bytes = 0;  ///< charged: image_bytes + input capacity
    bool pinned = false;
    lru_list::iterator lru_it;  ///< position in lru_ (pinned entries included,
                                ///< skipped at eviction time)
};

/// One resident resumable prefix.  `session` is empty while checked out.
template <typename Value>
struct basic_decoded_cache<Value>::session_entry {
    input_ptr bytes;
    std::optional<j2k::decode_session> session;
    std::size_t resident = 0;  ///< accounted bytes (codestream + decoder state)
    bool leased = false;
};

/// Single-flight rendezvous: the leader publishes exactly once, waiters block
/// on the flight's own cv (not the cache mutex) so a long decode never holds
/// the cache lock.
template <typename Value>
struct basic_decoded_cache<Value>::flight {
    explicit flight(std::span<const std::uint8_t> in) : input{in} {}

    /// The leader's bytes.  Joiners compare against them under the cache
    /// mutex while the flight is registered, i.e. before the leader's
    /// complete_flight or abort_flight, so they are still alive.
    std::span<const std::uint8_t> input;
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    image_ptr img;
    std::exception_ptr err;
};

template <typename Value>
basic_decoded_cache<Value>::basic_decoded_cache(std::size_t byte_budget)
    : budget_{byte_budget}
{
}

template <typename Value>
basic_decoded_cache<Value>::~basic_decoded_cache() = default;

template <typename Value>
void basic_decoded_cache<Value>::account_insert_locked(std::size_t bytes, bool pinned)
{
    bytes_ += bytes;
    if (pinned) pinned_bytes_ += bytes;
}

template <typename Value>
void basic_decoded_cache<Value>::account_erase_locked(std::size_t bytes, bool pinned)
{
    bytes_ -= bytes;
    if (pinned) pinned_bytes_ -= bytes;
}

template <typename Value>
void basic_decoded_cache<Value>::evict_to_budget_locked()
{
    // Unpinned images go first, coldest first; session prefixes only after
    // every unpinned image is gone (a prefix took O(layers) tier-1 work to
    // build, an image only synthesis).  Leased sessions and pinned images are
    // untouchable, so a fully pinned cache may sit above budget — bounded,
    // because inserts refuse the pin bit once pins alone would exceed the
    // budget (see complete_flight/insert).
    auto it = lru_.end();
    while (bytes_ > budget_ && it != lru_.begin()) {
        --it;
        auto found = images_.find(*it);
        if (found == images_.end() || found->second.pinned) continue;
        account_erase_locked(found->second.bytes, false);
        it = lru_.erase(it);
        images_.erase(found);
        ++evictions_;
        OBS_TRACE_INSTANT("cache", "evict");
    }
    for (auto sit = sessions_.begin(); bytes_ > budget_ && sit != sessions_.end();) {
        if (sit->second.leased) {
            ++sit;
            continue;
        }
        account_erase_locked(sit->second.resident, false);
        sit = sessions_.erase(sit);
        ++evictions_;
        OBS_TRACE_INSTANT("cache", "evict");
    }
}

template <typename Value>
auto basic_decoded_cache<Value>::mismatch_locked() -> flight_result
{
    ++mismatches_;
    OBS_TRACE_INSTANT("cache", "mismatch");
    return flight_result{nullptr, nullptr, false, true};
}

template <typename Value>
void basic_decoded_cache<Value>::insert_locked(const cache_key& k, image_ptr img,
                                               input_ptr input, bool pin)
{
    if (!img || images_.count(k)) return;
    const std::size_t sz = image_bytes(*img) + capacity(input);
    // Refuse the pin (not the entry) once pinned bytes alone would blow the
    // budget: a pin-flood degrades to an ordinary full cache instead of
    // unbounded growth.
    const bool pinned = pin && pinned_bytes_ + sz <= budget_;
    lru_.push_front(k);
    images_.emplace(k,
                    image_entry{std::move(img), std::move(input), sz, pinned, lru_.begin()});
    account_insert_locked(sz, pinned);
    ++inserts_;
    evict_to_budget_locked();
    OBS_TRACE_COUNTER("cache", "cache_bytes", bytes_);
}

template <typename Value>
auto basic_decoded_cache<Value>::hit_or_mismatch(const cache_key& k, image_ptr img,
                                                 const input_ptr& stored,
                                                 std::span<const std::uint8_t> input)
    -> flight_result
{
    // `stored` keeps the buffer alive even if the entry is evicted meanwhile,
    // so the compare (a whole input on a hit) runs without the mutex.
    const bool same = std::ranges::equal(view(stored), input);
    std::lock_guard lk{m_};
    if (!same) return mismatch_locked();
    if (auto it = images_.find(k); it != images_.end() && it->second.img == img)
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    ++hits_;
    ++by_codec_[k.codec].hits;
    OBS_TRACE_INSTANT("cache", "hit");
    return flight_result{std::move(img), nullptr, false};
}

template <typename Value>
auto basic_decoded_cache<Value>::begin_flight(const cache_key& k,
                                              std::span<const std::uint8_t> input)
    -> std::optional<flight_result>
{
    std::shared_ptr<flight> f;
    image_ptr img;
    input_ptr stored;
    {
        std::lock_guard lk{m_};
        if (auto it = images_.find(k); it != images_.end()) {
            img = it->second.img;
            stored = it->second.input;
        } else if (auto fit = flights_.find(k); fit == flights_.end()) {
            ++misses_;
            ++by_codec_[k.codec].misses;
            OBS_TRACE_INSTANT("cache", "miss");
            flights_.emplace(k, std::make_shared<flight>(input));
            return std::nullopt;  // caller leads
        } else {
            if (!std::ranges::equal(fit->second->input, input)) return mismatch_locked();
            ++collapses_;
            OBS_TRACE_INSTANT("cache", "collapse");
            f = fit->second;
        }
    }
    if (img) return hit_or_mismatch(k, std::move(img), stored, input);
    std::unique_lock fl{f->m};
    f->cv.wait(fl, [&] { return f->done; });
    return flight_result{f->img, f->err, true};
}

template <typename Value>
void basic_decoded_cache<Value>::complete_flight(const cache_key& k, image_ptr img,
                                                 input_ptr input, bool pin)
{
    std::shared_ptr<flight> f;
    {
        std::lock_guard lk{m_};
        auto fit = flights_.find(k);
        if (fit != flights_.end()) {
            f = std::move(fit->second);
            flights_.erase(fit);
        }
        insert_locked(k, img, std::move(input), pin);
    }
    if (f) {
        std::lock_guard fl{f->m};
        f->img = std::move(img);
        f->done = true;
        f->cv.notify_all();
    }
}

template <typename Value>
void basic_decoded_cache<Value>::abort_flight(const cache_key& k,
                                              std::exception_ptr err) noexcept
{
    std::shared_ptr<flight> f;
    {
        std::lock_guard lk{m_};
        auto fit = flights_.find(k);
        if (fit == flights_.end()) return;
        f = std::move(fit->second);
        flights_.erase(fit);
    }
    std::lock_guard fl{f->m};
    f->err = std::move(err);
    f->done = true;
    f->cv.notify_all();
}

template <typename Value>
auto basic_decoded_cache<Value>::peek(const cache_key& k,
                                      std::span<const std::uint8_t> input) -> image_ptr
{
    image_ptr img;
    input_ptr stored;
    {
        std::lock_guard lk{m_};
        auto it = images_.find(k);
        if (it == images_.end()) return nullptr;
        img = it->second.img;
        stored = it->second.input;
    }
    return hit_or_mismatch(k, std::move(img), stored, input).image;
}

template <typename Value>
void basic_decoded_cache<Value>::insert(const cache_key& k, image_ptr img, input_ptr input,
                                        bool pin)
{
    std::lock_guard lk{m_};
    insert_locked(k, std::move(img), std::move(input), pin);
}

template <typename Value>
bool basic_decoded_cache<Value>::set_pinned(const cache_key& k, bool pinned)
{
    std::lock_guard lk{m_};
    auto it = images_.find(k);
    if (it == images_.end()) return false;
    image_entry& e = it->second;
    if (e.pinned == pinned) return true;
    if (pinned && pinned_bytes_ + e.bytes > budget_) return false;
    e.pinned = pinned;
    pinned ? pinned_bytes_ += e.bytes : pinned_bytes_ -= e.bytes;
    if (!pinned) evict_to_budget_locked();
    return true;
}

template <typename Value>
auto basic_decoded_cache<Value>::checkout_session(std::uint64_t content_hash,
                                                  std::span<const std::uint8_t> expect,
                                                  int max_layers)
    -> std::optional<session_lease>
{
    std::lock_guard lk{m_};
    auto it = sessions_.find(content_hash);
    if (it == sessions_.end() || it->second.leased || !it->second.session) return std::nullopt;
    session_entry& e = it->second;
    if (e.session->layers_decoded() > max_layers)
        return std::nullopt;  // deeper than the request: not bit-exact to resume
    if (!std::ranges::equal(view(e.bytes), expect))
        return std::nullopt;  // hash collision or stale entry: never resume
    e.leased = true;
    ++session_resumes_;
    OBS_TRACE_INSTANT("cache", "session_resume");
    // The entry keeps its byte accounting until return.
    session_lease lease{std::move(e.bytes), std::move(*e.session)};
    e.session.reset();
    return lease;
}

template <typename Value>
void basic_decoded_cache<Value>::deposit_session(std::uint64_t content_hash,
                                                 input_ptr bytes,
                                                 j2k::decode_session session)
{
    const std::size_t resident = capacity(bytes) + session.resident_bytes();
    std::lock_guard lk{m_};
    ++session_deposits_;
    auto it = sessions_.find(content_hash);
    if (it != sessions_.end()) {
        session_entry& e = it->second;
        if (e.leased) {
            // Lease return (or a cold deposit racing one — same handling:
            // the returning/incoming state replaces the checked-out slot).
            account_erase_locked(e.resident, false);
            e.bytes = std::move(bytes);
            e.session.emplace(std::move(session));
            e.resident = resident;
            e.leased = false;
            account_insert_locked(resident, false);
        } else if (e.session &&
                   session.layers_decoded() > e.session->layers_decoded()) {
            account_erase_locked(e.resident, false);
            e.bytes = std::move(bytes);
            e.session.emplace(std::move(session));
            e.resident = resident;
            account_insert_locked(resident, false);
        }
        // else: resident prefix is at least as deep — drop the deposit.
    } else {
        session_entry e;
        e.bytes = std::move(bytes);
        e.session.emplace(std::move(session));
        e.resident = resident;
        account_insert_locked(resident, false);
        sessions_.emplace(content_hash, std::move(e));
    }
    evict_to_budget_locked();
    OBS_TRACE_COUNTER("cache", "cache_bytes", bytes_);
}

template <typename Value>
void basic_decoded_cache<Value>::discard_session(std::uint64_t content_hash) noexcept
{
    std::lock_guard lk{m_};
    auto it = sessions_.find(content_hash);
    if (it == sessions_.end() || !it->second.leased) return;
    account_erase_locked(it->second.resident, false);
    sessions_.erase(it);
}

template <typename Value>
cache_stats basic_decoded_cache<Value>::stats() const
{
    std::lock_guard lk{m_};
    cache_stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.collapses = collapses_;
    s.mismatches = mismatches_;
    s.inserts = inserts_;
    s.evictions = evictions_;
    s.session_resumes = session_resumes_;
    s.session_deposits = session_deposits_;
    s.bytes = bytes_;
    s.pinned_bytes = pinned_bytes_;
    s.entries = images_.size();
    s.session_entries = sessions_.size();
    s.by_codec.reserve(by_codec_.size());
    for (const auto& [id, c] : by_codec_)
        s.by_codec.push_back({id, c.hits, c.misses});
    std::sort(s.by_codec.begin(), s.by_codec.end(),
              [](const auto& a, const auto& b) { return a.codec < b.codec; });
    return s;
}

template <typename Value>
void basic_decoded_cache<Value>::clear()
{
    std::lock_guard lk{m_};
    for (auto& [k, e] : images_) account_erase_locked(e.bytes, e.pinned);
    images_.clear();
    lru_.clear();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (it->second.leased) {
            ++it;  // dropped on return via deposit_session + eviction
            continue;
        }
        account_erase_locked(it->second.resident, false);
        it = sessions_.erase(it);
    }
}

template class basic_decoded_cache<j2k::image>;
template class basic_decoded_cache<raw_image>;

}  // namespace runtime
