// spans.hpp — the benchmark's own in-memory span recorder.
//
// The benchmark never arms obs::tracer: arming it would also switch on the
// program's internal OBS_TRACE_* spans inside the very stages being timed.
// Spans recorded here come from the benchmark's own files, around calls into
// each layer, and are written once at exit as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
//
// Two kinds of track:
//   * client  — async spans of the load generator (`request` -> `send`,
//               `server`, `recv`), keyed by J2NE request_id;
//   * replay  — nested complete spans of the single-threaded layer replay,
//               each tagged with the request's index and whether it sits on
//               that request's blocking path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bench::spans {

struct span {
    const char* name = "";
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;       ///< request index (replay) or request_id (client)
    std::uint64_t samples = 0;  ///< samples processed (stage spans)
    bool on_path = true;        ///< on the request's blocking path

    [[nodiscard]] double dur_us() const noexcept
    {
        return static_cast<double>(end_ns - begin_ns) / 1e3;
    }
};

/// One track of spans: a workload's replay thread or its load generator.
struct track {
    std::string thread;   ///< workload name
    bool async = false;   ///< client tracks overlap and are written as async
    std::vector<span> spans;
    std::vector<std::int32_t> stack;  ///< open spans (replay tracks only)

    /// Open a nested span now; returns its index.
    std::int32_t begin(const char* name, std::uint32_t id, bool on_path = true);
    /// Close the innermost open span now; returns its duration in ns.
    std::int64_t end(std::uint64_t samples = 0);
    /// Record an already-timed span (client tracks).
    void add(const char* name, std::uint32_t id, std::int64_t b, std::int64_t e);
};

/// Write every track as one Chrome trace-event JSON document.  Returns false
/// when the file cannot be written.
bool write_chrome_json(const std::string& path, const std::vector<track>& tracks);

}  // namespace bench::spans
