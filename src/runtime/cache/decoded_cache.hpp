// runtime/cache/decoded_cache.hpp — process-wide content-addressed cache of
// decoded results, with single-flight collapsing of concurrent identical
// misses.
//
// Serving traffic is zipf-distributed: the same hot codestreams are decoded
// over and over.  This cache sits between admission and the decode kernels as
// its own byte-budgeted subsystem (the TLM discipline: a storage service
// behind a clean transaction interface, not state smeared through the codec)
// and holds two value kinds:
//
//   1. decoded results, keyed by (codestream hash, codec, quality layers,
//      discard levels, max passes) and stored with the input bytes they were
//      decoded from — a hit answers a decode_all-shaped request with zero
//      tier-1 work and hands out the shared result, not a copy;
//   2. resumable decode_session prefixes, keyed by content hash alone — a
//      cached layer-k prefix serves a layer-(k+n) request at O(new layers)
//      tier-1 cost, and an equal-depth prefix at synthesis-only cost.  A
//      prefix *deeper* than the request is never resumed: tier-1 block state
//      is cumulative and cannot be rolled back, so only an equal-or-shallower
//      prefix reproduces the request bit-exactly.
//
// Concurrent identical misses collapse single-flight: the first requester
// becomes the leader and decodes; the others block on the flight and share
// the leader's published image (or its exception).  The leader never waits on
// anyone, so a pool worker leading a flight always makes progress — waiters
// can only queue behind a leader that is actively decoding, which is strictly
// cheaper than the N redundant decodes they replace.
//
//   begin_flight(k, in) ──hit, same bytes──► shared image       (fast path)
//        │ flight open, same bytes ──block──► leader's outcome  (collapsed)
//        │ key taken, other bytes ─────────► mismatch: decode uncached
//        │ miss, no flight ────────────────► nullopt: caller is leader, must
//        ▼                                    complete_flight / abort_flight
//   [decode] ── complete_flight(k, img, in) ► waiters wake, entry inserted
//
// The class is a template over the result type.  The service caches
// raw_image (runtime/raw_image.hpp): each result packed once into the wire
// layout, 1 byte per sample up to 8 bits and 2 above, so an entry costs what
// its response payload does and a hit is answered by copying its bytes.
// `decoded_cache`, the j2k::image instantiation, stores int32 planes at 4 B
// per sample; the serving benchmark's replay simulates the server's cache with
// it, and the cache-mechanics tests use it.  Both are explicitly instantiated
// in decoded_cache.cpp.
//
// Eviction is LRU over a byte budget; a result entry is charged its
// image_bytes plus its stored input.  Input buffers are shared, not copied:
// a layered j2k leader's result entry and the session prefix it deposits
// hold one buffer, and each is charged for it, so the budget can overstate
// what is resident but never understate it.  Entries pinned by policy
// (cache_policy::pin, the J2NE pin flag) and session entries currently
// checked out are never evicted; pinned bytes still count against the
// budget so a pin-flood degrades to "cache full", not OOM.
//
// Trust model: the hash picks a bucket, the bytes decide.  `content_hash` is
// runtime::seeded_hash of the codestream (8 bytes per step, seeded per
// process), and nothing is served on its say-so: a hit, a request joining an
// in-flight decode, and a session checkout each compare the request's bytes
// with the stored (or in-flight leader's) bytes first.  Equal keys over
// different bytes are a *mismatch* — counted, answered with no image and no
// flight, so the caller decodes on its own and leaves the cache as it was.
// One client's input can therefore never be answered with an image decoded
// from another's, however the hash collides.  A hit compares after the cache
// mutex is released (it holds the entry's buffer by reference count, so an
// eviction meanwhile cannot free it), so lookups never queue behind a
// whole-input memcmp.  A join compares under the mutex, because the leader's
// bytes are only known alive while its flight is registered, and a session
// checkout does too: each holds the mutex for one memcmp of the request, but
// only while a leader decodes or on a layered j2k miss.
#pragma once

#include <j2k/image.hpp>
#include <j2k/session.hpp>
#include <runtime/raw_image.hpp>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace runtime {

/// Cache key of one fully decoded image.
///
/// Keys are namespaced by codec wire id: two codecs handed byte-identical
/// input produce different decoded results, so the codec id participates in
/// both equality and the hash — a j2k entry can never serve a ccsds123
/// request (or vice versa) no matter what the content hash says.
struct cache_key {
    std::uint64_t content_hash = 0;  ///< bucket hash of the codestream bytes
    std::uint8_t codec = 0;          ///< codec wire id (0 = j2k)
    std::int32_t layers = 0;         ///< normalised quality-layer depth (>= 1)
    std::int32_t discard_levels = 0;
    std::int32_t max_passes = 0;

    [[nodiscard]] bool operator==(const cache_key&) const = default;
};

struct cache_key_hash {
    [[nodiscard]] std::size_t operator()(const cache_key& k) const noexcept;
};

/// Point-in-time cache counters (all monotonic except the byte/entry gauges).
struct cache_stats {
    std::uint64_t hits = 0;       ///< served from a completed entry
    std::uint64_t misses = 0;     ///< flights led (== decodes run for the cache)
    std::uint64_t collapses = 0;  ///< requests that waited on a leader instead
    std::uint64_t mismatches = 0; ///< key matched, input bytes did not (uncached)
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t session_resumes = 0;   ///< prefix checkouts that saved tier-1 work
    std::uint64_t session_deposits = 0;
    std::uint64_t bytes = 0;          ///< charged bytes (images + inputs + sessions)
    std::uint64_t pinned_bytes = 0;   ///< subset of `bytes` exempt from eviction
    std::uint64_t entries = 0;        ///< image entries resident
    std::uint64_t session_entries = 0;

    /// Hit/miss split per codec wire id (sorted by id; only ids that have
    /// seen traffic appear).  Sums to `hits`/`misses`.
    struct codec_split {
        std::uint8_t codec = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };
    std::vector<codec_split> by_codec;
};

/// The cache over results of type `Value` (j2k::image or raw_image; each
/// charged image_bytes(value) per entry).
template <typename Value>
class basic_decoded_cache {
public:
    using image_ptr = std::shared_ptr<const Value>;
    /// The input bytes an entry was decoded from.  Shared, so an image entry
    /// and a session prefix over one codestream keep a single buffer.
    using input_ptr = std::shared_ptr<const std::vector<std::uint8_t>>;

    /// `byte_budget` bounds resident bytes (results by image_bytes — their
    /// exact sample storage — plus their input's capacity, sessions by
    /// codestream plus decode_session::resident_bytes(); a shared input is
    /// charged to each entry holding it).  A single
    /// entry larger than the whole budget is still admitted and evicted the
    /// moment anything else arrives — refusing it would make the hottest
    /// large image permanently uncacheable.
    explicit basic_decoded_cache(std::size_t byte_budget);
    ~basic_decoded_cache();

    basic_decoded_cache(const basic_decoded_cache&) = delete;
    basic_decoded_cache& operator=(const basic_decoded_cache&) = delete;

    // ---- image entries + single-flight -----------------------------------

    /// Outcome of begin_flight when the caller is *not* the leader.
    struct flight_result {
        image_ptr image;            ///< null when the leader failed or on a mismatch
        std::exception_ptr error;   ///< the leader's exception, when it failed
        bool collapsed = false;     ///< true: waited behind an in-flight leader
        bool mismatch = false;      ///< key taken by other bytes: decode uncached
    };

    /// The single-flight entry point for a request whose codestream is
    /// `input`.  Returns a value when the request is served from the cache
    /// (hit), by an in-flight leader (collapsed wait, possibly with the
    /// leader's error), or not at all (mismatch: the resident entry or the
    /// flight holds other bytes under this key).  Returns nullopt when the
    /// caller has become the leader and MUST follow up with exactly one
    /// complete_flight or abort_flight for this key; `input` must stay valid
    /// until then, because requests that join the flight compare against it.
    [[nodiscard]] std::optional<flight_result> begin_flight(
        const cache_key& k, std::span<const std::uint8_t> input = {});

    /// Leader success: publish to every waiter and insert the entry with its
    /// `input` — the bytes begin_flight saw — subject to the byte budget;
    /// `pin` exempts it from eviction.
    void complete_flight(const cache_key& k, image_ptr img, input_ptr input = nullptr,
                         bool pin = false);

    /// Leader failure: every waiter receives `err`; nothing is cached, so the
    /// next request for the key retries the decode.
    void abort_flight(const cache_key& k, std::exception_ptr err) noexcept;

    /// Plain lookup without flight membership (stats endpoints, tests).
    /// Touches LRU recency and counts a hit; returns null on a mismatch
    /// (counted) or a miss (NOT counted — only flights count misses, keeping
    /// `misses` == flights led).
    [[nodiscard]] image_ptr peek(const cache_key& k,
                                 std::span<const std::uint8_t> input = {});

    /// Insert without a flight (warm-up paths, tests).  A resident entry
    /// under `k` is kept, whatever its bytes.
    void insert(const cache_key& k, image_ptr img, input_ptr input = nullptr,
                bool pin = false);

    /// Flip an entry's pin.  Returns false when the key is not resident.
    bool set_pinned(const cache_key& k, bool pinned);

    // ---- resumable session prefixes --------------------------------------

    /// An exclusive lease on a cached session prefix: the codestream bytes
    /// the session references plus the session itself.  While leased, the
    /// entry stays resident (and unevictable) but cannot be leased again —
    /// a concurrent request for the same content decodes cold instead.
    struct session_lease {
        input_ptr bytes;  ///< the storage `session` points into
        j2k::decode_session session;
    };

    /// Check out the session prefix for `content_hash`, verifying the stored
    /// bytes equal `expect` (collision paranoia: never resume a session over
    /// different content).  Returns nullopt when absent, already leased,
    /// mismatched, or deeper than `max_layers` (resuming a deeper prefix
    /// cannot reproduce a shallower reconstruction bit-exactly).
    [[nodiscard]] std::optional<session_lease> checkout_session(
        std::uint64_t content_hash, std::span<const std::uint8_t> expect,
        int max_layers = std::numeric_limits<int>::max());

    /// Deposit (or return) a session prefix.  Keeps the deeper of the
    /// deposited and any resident prefix for the hash.  The session must
    /// reference the storage of `bytes` (non-null).
    void deposit_session(std::uint64_t content_hash, input_ptr bytes,
                         j2k::decode_session session);

    /// Drop a leased prefix without returning it — the lease holder's
    /// advance threw and the session is poisoned.  No-op for unleased hashes.
    void discard_session(std::uint64_t content_hash) noexcept;

    // ---- introspection ---------------------------------------------------

    [[nodiscard]] cache_stats stats() const;
    [[nodiscard]] std::size_t byte_budget() const noexcept { return budget_; }
    /// Drop every unleased entry (leased sessions are dropped on return).
    void clear();

private:
    struct image_entry;
    struct session_entry;
    struct flight;
    using lru_list = std::list<cache_key>;

    /// Evict unpinned image entries LRU-first until bytes_ <= budget_.
    /// Session prefixes are evicted only after every unpinned image is gone:
    /// a prefix regenerates O(L) tier-1 work, an image only O(synthesis).
    void evict_to_budget_locked();
    /// Insert a leader's or warm-up image unless `k` is already resident.
    void insert_locked(const cache_key& k, image_ptr img, input_ptr input, bool pin);
    /// Serve a resident entry's `img` if its `stored` bytes equal `input`:
    /// compares without the mutex, then counts a hit or a mismatch under it.
    flight_result hit_or_mismatch(const cache_key& k, image_ptr img,
                                  const input_ptr& stored,
                                  std::span<const std::uint8_t> input);
    /// Count a mismatch and build its flight_result.
    flight_result mismatch_locked();
    void account_insert_locked(std::size_t bytes, bool pinned);
    void account_erase_locked(std::size_t bytes, bool pinned);

    const std::size_t budget_;

    mutable std::mutex m_;
    std::unordered_map<cache_key, image_entry, cache_key_hash> images_;
    std::unordered_map<cache_key, std::shared_ptr<flight>, cache_key_hash> flights_;
    std::unordered_map<std::uint64_t, session_entry> sessions_;
    lru_list lru_;  ///< front = most recent; back = eviction candidate

    std::uint64_t bytes_ = 0;
    std::uint64_t pinned_bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t collapses_ = 0;
    std::uint64_t mismatches_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t session_resumes_ = 0;
    std::uint64_t session_deposits_ = 0;
    /// Per-codec hit/miss split, keyed by cache_key::codec.
    struct codec_counters {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };
    std::unordered_map<std::uint8_t, codec_counters> by_codec_;
};

/// Exact resident payload bytes of one cached result: an int32 image's
/// sample storage (4 B per sample), a raw_image's packed layout (its header
/// plus 1 or 2 B per sample).
[[nodiscard]] std::size_t image_bytes(const j2k::image& img) noexcept;
[[nodiscard]] std::size_t image_bytes(const raw_image& img) noexcept;

extern template class basic_decoded_cache<j2k::image>;
extern template class basic_decoded_cache<raw_image>;

/// Results as int32 images.  Kept for the serving benchmark's replay, which
/// simulates the server's cache with it, and for the cache-mechanics tests.
using decoded_cache = basic_decoded_cache<j2k::image>;
/// Results packed in the wire layout: the decode service's cache.
using raw_image_cache = basic_decoded_cache<raw_image>;

}  // namespace runtime
