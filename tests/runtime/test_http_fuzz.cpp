// HTTP request-parser fuzzing for the ops plane: mutations of valid ops-plane
// requests (truncations, byte flips, oversize request lines, CR/LF splices)
// fed to runtime::ops::http_parser in random chunkings.  The contract: every
// outcome is a parsed request, a partial request or a typed error (`bad`,
// `too_large`) — never a crash, overrun or sanitizer report — and whatever
// fits under the parser's cap parses the same however it is chunked.
// Deterministic: a fixed xorshift64 seed drives every mutation, so failures
// replay exactly.
//
// The case count scales with the FUZZ_ITERS environment variable (ten cases
// per unit, default 300 units); CI's nightly schedule raises it.
#include <runtime/ops/http.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace {

using runtime::ops::http_parser;
using state = http_parser::state;

/// xorshift64: tiny, deterministic, good enough to drive mutations.
class xorshift64 {
public:
    explicit xorshift64(std::uint64_t seed) : s_{seed ? seed : 0x9E3779B97F4A7C15ull} {}
    std::uint64_t next()
    {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_;
    }
    /// Uniform-ish value in [0, n).
    std::size_t below(std::size_t n) { return n ? next() % n : 0; }

private:
    std::uint64_t s_;
};

int fuzz_iters()
{
    if (const char* env = std::getenv("FUZZ_ITERS")) {
        const int v = std::atoi(env);
        if (v > 0) return v;
    }
    return 300;
}

/// Requests the ops plane really receives: curl, a Prometheus scrape, a
/// browser-ish GET, the trace tail with its query.
const std::vector<std::string>& seeds()
{
    static const std::vector<std::string> s{
        "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:9090\r\nUser-Agent: curl/8.0\r\n"
        "Accept: */*\r\n\r\n",
        "GET /metrics?format=json HTTP/1.1\r\nHost: x\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n",
        "GET /readyz HTTP/1.1\r\nAccept: text/plain;version=0.0.4\r\n\r\n",
        "GET /trace?since_ns=123&limit=5 HTTP/1.1\r\nConnection: close\r\n\r\n",
        "GET / HTTP/1.1\r\nHost: localhost\r\nAccept-Encoding: gzip\r\n\r\n",
    };
    return s;
}

std::string mutate(std::string in, xorshift64& rng)
{
    static const char* const splices[] = {"\r", "\n", "\r\n", "\r\n\r\n", "\n\r", " ", "?"};
    const std::size_t ops = 1 + rng.below(3);
    for (std::size_t i = 0; i < ops; ++i) {
        switch (rng.below(5)) {
        case 0:  // truncation
            in.resize(rng.below(in.size() + 1));
            break;
        case 1:  // byte flips
            for (std::size_t n = 1 + rng.below(4); n > 0 && !in.empty(); --n)
                in[rng.below(in.size())] ^= static_cast<char>(1 + rng.below(255));
            break;
        case 2: {  // oversize request line: a long run inside the target
            const std::size_t at = std::min<std::size_t>(5, in.size());
            in.insert(at, std::string(1 + rng.below(20000), static_cast<char>('a' + rng.below(26))));
            break;
        }
        case 3:  // CR/LF splice
            in.insert(rng.below(in.size() + 1), splices[rng.below(std::size(splices))]);
            break;
        default:  // drop a CR or LF
            if (const auto at = in.find_first_of("\r\n", rng.below(in.size() + 1));
                at != std::string::npos)
                in.erase(at, 1);
            break;
        }
    }
    return in;
}

struct outcome {
    state st = state::partial;
    std::string method, path, query;
    bool operator==(const outcome&) const = default;
};

/// Feed `in` in the given chunk sizes (cycled), checking the per-feed
/// contract: feed() reports current(), and a terminal state never changes.
outcome feed_chunked(std::string_view in, std::size_t max_bytes,
                     const std::vector<std::size_t>& chunks)
{
    http_parser p{max_bytes};
    std::size_t off = 0;
    std::size_t ci = 0;
    state terminal = state::partial;
    while (off < in.size()) {
        const std::size_t n = std::min(chunks[ci++ % chunks.size()], in.size() - off);
        const state st = p.feed(in.substr(off, n));
        off += n;
        EXPECT_EQ(st, p.current());
        if (terminal != state::partial) {
            EXPECT_EQ(st, terminal) << "terminal state moved";
        }
        terminal = st;
    }
    if (p.current() != state::complete) return {p.current(), {}, {}, {}};
    return {state::complete, p.request().method, p.request().path, p.request().query};
}

TEST(HttpFuzz, MutatedRequestsParseOrFailTypedUnderAnyChunking)
{
    xorshift64 rng{0x0B5E12AB1Eull};
    const int cases = 10 * fuzz_iters();
    int counts[4] = {};
    for (int i = 0; i < cases; ++i) {
        const std::string& seed = seeds()[rng.below(seeds().size())];
        const std::string in = rng.below(8) == 0 ? seed : mutate(seed, rng);
        const std::size_t caps[] = {64, 512, 8 * 1024};
        const std::size_t max_bytes = caps[rng.below(std::size(caps))];

        std::vector<std::size_t> chunks(1 + rng.below(6));
        for (std::size_t& c : chunks) c = 1 + rng.below(rng.below(2) ? 16 : 4096);
        const outcome got = feed_chunked(in, max_bytes, chunks);
        const std::size_t terminator = in.find("\r\n\r\n");

        switch (got.st) {
        case state::complete:
            // A request line that passed validation: the shape routing and
            // query_param rely on.
            EXPECT_NE(terminator, std::string::npos);
            EXPECT_FALSE(got.method.empty());
            EXPECT_EQ(got.method.find(' '), std::string::npos);
            ASSERT_FALSE(got.path.empty());
            EXPECT_EQ(got.path.front(), '/');
            EXPECT_EQ(got.path.find_first_of(" ?"), std::string::npos);
            EXPECT_EQ(got.query.find(' '), std::string::npos);
            (void)runtime::ops::query_param(got.query, "since_ns");
            break;
        case state::partial:
            EXPECT_EQ(terminator, std::string::npos) << "terminator seen, still partial";
            EXPECT_LE(in.size(), max_bytes);
            break;
        case state::bad:
            EXPECT_NE(terminator, std::string::npos);
            break;
        case state::too_large:
            EXPECT_GT(in.size(), max_bytes);
            break;
        default:
            ADD_FAILURE() << "untyped parser state " << static_cast<int>(got.st);
        }
        counts[static_cast<int>(got.st) & 3]++;

        // Under the cap the chunking cannot matter: one feed agrees.
        if (in.size() <= max_bytes) {
            EXPECT_EQ(feed_chunked(in, max_bytes, {in.size() + 1}), got) << "case " << i;
        }
    }
    // The mix must reach every outcome, or the mutations are too tame.
    for (const int c : counts) EXPECT_GT(c, 0);
}

}  // namespace
