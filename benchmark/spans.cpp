#include "spans.hpp"

#include "common.hpp"

#include <cstdio>
#include <memory>

namespace bench::spans {

std::int32_t track::begin(const char* name, std::uint32_t id, bool on_path)
{
    span s;
    s.name = name;
    s.id = id;
    s.on_path = on_path;
    s.begin_ns = now_ns();
    spans.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans.size() - 1);
    stack.push_back(idx);
    return idx;
}

std::int64_t track::end(std::uint64_t samples)
{
    span& s = spans[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    s.end_ns = now_ns();
    s.samples = samples;
    return s.end_ns - s.begin_ns;
}

void track::add(const char* name, std::uint32_t id, std::int64_t b, std::int64_t e)
{
    span s;
    s.name = name;
    s.id = id;
    s.begin_ns = b;
    s.end_ns = e;
    spans.push_back(s);
}

bool write_chrome_json(const std::string& path, const std::vector<track>& tracks)
{
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> f{std::fopen(path.c_str(), "w"),
                                                       &std::fclose};
    if (!f) return false;
    std::FILE* out = f.get();
    std::int64_t t0 = INT64_MAX;
    for (const track& t : tracks)
        for (const span& s : t.spans) t0 = std::min(t0, s.begin_ns);
    auto us = [&](std::int64_t ns) { return static_cast<double>(ns - t0) / 1e3; };

    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    bool first = true;
    auto sep = [&] {
        if (!first) std::fputc(',', out);
        first = false;
    };
    // pid 1 = client, pid 2 = replay; one tid per workload.
    for (int pid = 1; pid <= 2; ++pid) {
        sep();
        std::fprintf(out,
                     "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,"
                     "\"args\":{\"name\":\"%s\"}}",
                     pid,
                     pid == 1 ? "client (load generator)" : "replay (in-process layers)");
    }
    for (std::size_t ti = 0; ti < tracks.size(); ++ti) {
        const track& t = tracks[ti];
        const int pid = t.async ? 1 : 2;
        const auto tid = static_cast<int>(ti + 1);
        sep();
        std::fprintf(out,
                     "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,"
                     "\"args\":{\"name\":\"%s\"}}",
                     pid, tid, t.thread.c_str());
        for (const span& s : t.spans) {
            sep();
            if (t.async) {
                // Async begin/end pairs: client requests overlap on one thread.
                for (const char ph : {'b', 'e'})
                    std::fprintf(out,
                                 "%s{\"ph\":\"%c\",\"cat\":\"%s\",\"name\":\"%s\","
                                 "\"id\":\"%s:%u\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
                                 ph == 'e' ? "," : "", ph, t.thread.c_str(), s.name,
                                 t.thread.c_str(), s.id, pid, tid,
                                 us(ph == 'b' ? s.begin_ns : s.end_ns));
            } else {
                std::fprintf(out,
                             "{\"ph\":\"X\",\"cat\":\"replay\",\"name\":\"%s\","
                             "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                             "\"args\":{\"req\":%u,\"on_path\":%d,\"samples\":%llu}}",
                             s.name, pid, tid, us(s.begin_ns), s.dur_us(), s.id,
                             s.on_path ? 1 : 0,
                             static_cast<unsigned long long>(s.samples));
            }
        }
    }
    std::fprintf(out, "]}\n");
    return std::ferror(out) == 0;
}

}  // namespace bench::spans
