// replay.hpp — in-process layer replay of a workload's request sequence.
//
// With the server stopped, one thread walks the first N requests of the same
// seeded open-phase sequence and makes, for each, the public calls the
// server makes on that request's path, and only those: j2k::decoder /
// decode_session (parse), the staged decoder (tier-1, IQ, IDWT, tile
// assembly, ICT + DC shift) or decode_session::advance_to per layer,
// ccsds::decode, FNV-1a of the codestream and decoded_cache begin_flight /
// complete_flight (cache), the copy of a resident image, and
// net::encode_image_raw.  Each call is one span tagged with the request's
// index.  A layer metric whose call no request of the workload makes reads 0.
//
// A replay cache with the server's 64 MiB budget, warmed in the same order,
// decides each request's path (hit or miss; bypass and progressive requests
// never reach it).  Tiles fanned out over the pool count by their makespan on
// the server's two workers, not their sum.
#pragma once

#include "common.hpp"
#include "corpus.hpp"
#include "spans.hpp"

#include <vector>

namespace bench {

struct replay_result {
    std::vector<metric> metrics;  ///< per-layer metrics measured by the replay
    /// Median over requests of the summed self time of on-path spans.
    double blocking_ms_p50 = 0.0;
    /// Tier-1 share of replayed decode time (tier-1 + IQ + IDWT + assembly +
    /// ICT/DC) by wavelet; 0 where no such decode ran.
    double tier1_frac_lossless = 0.0;
    double tier1_frac_lossy = 0.0;
};

/// Replay `seq` (request inputs in order) into `tr`.  `workers` is the
/// server's pool size.
[[nodiscard]] replay_result run_replay(const corpus& c,
                                       const std::vector<std::uint32_t>& seq,
                                       spans::track& tr, int workers);

}  // namespace bench
