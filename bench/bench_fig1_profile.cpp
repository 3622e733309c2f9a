// bench_fig1_profile — regenerates Figure 1 of the paper: the distribution of
// JPEG 2000 software decode time over the five stages (arithmetic decoder,
// IQ, IDWT, ICT, DC shift), lossless and lossy.
//
// Two profiles are reported:
//   * model   — stage times of the simulated SW-only model (v1), which are
//               back-annotated from the paper's published profile and should
//               therefore match Figure 1 closely;
//   * native  — wall-clock shares of this repository's real C++ codec on the
//               same workload (an independent confirmation that the
//               arithmetic decoder dominates a software implementation),
//               followed by the same times in absolute units: ns per image
//               sample for each stage, and tier-1 ns per MQ decision;
//   * passes  — tier-1 split by coding pass (significance propagation,
//               magnitude refinement, cleanup): each kind's share of tier-1
//               time and its ns per MQ decision, from the per-pass times the
//               counting decoder records.
//
// Then the cost a progressive request pays again for every layer it sends:
// synthesis only (coefficients out of the block decoders, IQ, IDWT, ICT, DC
// shift), ns per sample of a six-layer 256x256x3 lossless session, the
// `progressive` serving workload's geometry.
//
// The native cost of the second codec follows: ccsds::decode ns per sample on
// a 128x128x16-band 12-bit cube (the ccsds_zipf serving workload's geometry),
// with P=3 full local sums and with P=15 narrow ones.  Every native ns/sample
// figure is also written as one JSON object to BENCH_decode_stages.json (or
// argv[1]).  Absolute ns depend on the host; compare runs on one machine.
#include <ccsds/ccsds123.hpp>
#include <decoder/decoder.hpp>
#include <j2k/session.hpp>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace {

struct shares {
    double arith, iq, idwt, ict, dc;
};

shares model_shares(const decoder::workload& wl, bool lossy)
{
    const auto& md = wl.mode(lossy);
    const auto T = decoder::sw_timing::calibrate(md, lossy);
    double a = 0, q = 0, w = 0, c = 0, d = 0;
    for (const auto& t : md.per_tile) {
        a += T.arith(t).to_ms();
        q += T.iq(t).to_ms();
        w += T.idwt(t).to_ms();
        c += T.ict(t).to_ms();
        d += T.dc(t).to_ms();
    }
    const double tot = a + q + w + c + d;
    return {a / tot, q / tot, w / tot, c / tot, d / tot};
}

/// One kind of tier-1 pass: its share of tier-1 time and ns per decision.
struct pass_cost {
    double share, ns_per_decision;
};

constexpr const char* k_pass_names[] = {"significance", "refinement", "cleanup"};

/// Native stage times in absolute units.  ICT and DC shift are timed
/// together (`ict_dc`).
struct native_cost {
    double arith_ns, iq_ns, idwt_ns, ict_dc_ns;  ///< per image sample
    double arith_ns_per_decision;
    pass_cost passes[3];  ///< indexed by j2k::pass_kind
};

shares native_shares(const decoder::workload& wl, bool lossy, native_cost& cost)
{
    using clock = std::chrono::steady_clock;
    const auto& md = wl.mode(lossy);
    j2k::decoder dec{md.codestream};
    double a = 0, q = 0, w = 0, cd = 0;
    // The stages run as the service runs them: tier-1 without tier1_stats,
    // and each tile moved from stage to stage.  The decision counts and the
    // per-pass times come from as many separate counting decodes.
    const int reps = 3;
    j2k::tier1_stats t1_stats;
    for (int rep = 0; rep < reps; ++rep)
        for (int t = 0; t < dec.tile_count(); ++t) (void)dec.entropy_decode(t, &t1_stats);
    for (int rep = 0; rep < reps; ++rep) {
        j2k::image out{dec.info().width, dec.info().height, dec.info().components,
                       dec.info().bit_depth};
        const auto grid = dec.tiles();
        for (int t = 0; t < dec.tile_count(); ++t) {
            auto t0 = clock::now();
            auto tc = dec.entropy_decode(t);
            auto t1 = clock::now();
            auto tw = dec.dequantize(std::move(tc));
            auto t2 = clock::now();
            const auto tp = dec.idwt(std::move(tw));
            auto t3 = clock::now();
            for (int c = 0; c < dec.info().components; ++c)
                j2k::insert_tile(out.comp(c), tp.comps[static_cast<std::size_t>(c)],
                                 grid[static_cast<std::size_t>(t)]);
            a += std::chrono::duration<double>(t1 - t0).count();
            q += std::chrono::duration<double>(t2 - t1).count();
            w += std::chrono::duration<double>(t3 - t2).count();
        }
        auto t4 = clock::now();
        dec.finish(out);
        cd += std::chrono::duration<double>(clock::now() - t4).count();
    }
    const double tot = a + q + w + cd;
    const double samples = static_cast<double>(reps) * dec.info().width *
                           dec.info().height * dec.info().components;
    cost = {1e9 * a / samples, 1e9 * q / samples, 1e9 * w / samples, 1e9 * cd / samples,
            1e9 * a / static_cast<double>(t1_stats.mq_decisions), {}};
    double pass_ns = 0;
    for (const auto& p : t1_stats.by_pass) pass_ns += static_cast<double>(p.ns);
    for (std::size_t k = 0; k < 3; ++k) {
        const auto& p = t1_stats.by_pass[k];
        cost.passes[k] = {static_cast<double>(p.ns) / pass_ns,
                          static_cast<double>(p.ns) / static_cast<double>(p.decisions)};
    }
    // ICT and DC shift are measured together natively; split them with the
    // paper's internal ratio for display.
    const auto& p = lossy ? decoder::k_profile_lossy : decoder::k_profile_lossless;
    const double ict = cd / tot * (p.ict / (p.ict + p.dc));
    const double dc = cd / tot * (p.dc / (p.ict + p.dc));
    return {a / tot, q / tot, w / tot, ict, dc};
}

/// Synthesis-only ns per sample of a progressive session: a six-layer
/// 256x256x3 lossless stream in 64x64 tiles at 3 levels (the `progressive`
/// corpus geometry) is decoded in full once, then advance_to(6) is timed
/// again, which re-runs synthesis only (session.hpp).  Median of 15 calls,
/// one thread.  Returns a negative value if a reconstruction differs from
/// the source.
double progressive_resynth_ns_per_sample()
{
    using clock = std::chrono::steady_clock;
    const codec::image src = codec::make_test_image(256, 256, 3, 8, 1);
    j2k::codec_params p;
    p.tile_width = 64;
    p.tile_height = 64;
    p.levels = 3;
    p.quality_layers = 6;
    const auto cs = j2k::encode(src, p);
    j2k::decode_session s{cs};
    if (s.advance_to(6) != src) return -1;
    std::vector<double> ns;
    for (int rep = 0; rep < 15; ++rep) {
        const auto t0 = clock::now();
        const codec::image out = s.advance_to(6);
        ns.push_back(std::chrono::duration<double, std::nano>(clock::now() - t0).count());
        if (out != src) return -1;
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2] / (256.0 * 256.0 * 3.0);
}

/// ccsds::decode ns per sample: median of 7 timed decodes after one warm-up.
/// Returns a negative value if any decode differs from the source cube.
double ccsds_ns_per_sample(int pred_bands, ccsds::neighbor_mode mode)
{
    using clock = std::chrono::steady_clock;
    const codec::image src = codec::make_test_image(128, 128, 16, 12, 1);
    ccsds::params p;
    p.pred_bands = pred_bands;
    p.mode = mode;
    const auto cs = ccsds::encode(src, p);
    if (ccsds::decode(cs) != src) return -1;
    std::vector<double> ns;
    for (int rep = 0; rep < 7; ++rep) {
        const auto t0 = clock::now();
        const codec::image out = ccsds::decode(cs);
        ns.push_back(std::chrono::duration<double, std::nano>(clock::now() - t0).count());
        if (out != src) return -1;
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2] / (128.0 * 128.0 * 16.0);
}

void print_mode(const char* name, const decoder::stage_profile& paper, const shares& mdl,
                const shares& nat, const native_cost& cost)
{
    std::printf("\n%s mode\n", name);
    std::printf("  %-18s %9s %9s %9s\n", "stage", "paper[%]", "model[%]", "native[%]");
    auto row = [](const char* st, double p, double m, double n) {
        std::printf("  %-18s %9.1f %9.1f %9.1f\n", st, 100 * p, 100 * m, 100 * n);
    };
    row("arith decoder", paper.arith, mdl.arith, nat.arith);
    row("IQ", paper.iq, mdl.iq, nat.iq);
    row("IDWT", paper.idwt, mdl.idwt, nat.idwt);
    row("ICT", paper.ict, mdl.ict, nat.ict);
    row("DC shift", paper.dc, mdl.dc, nat.dc);
    std::printf("  native ns/sample:  arith %.1f (%.2f ns per MQ decision), IQ %.1f, "
                "IDWT %.1f, ICT+DC %.1f\n",
                cost.arith_ns, cost.arith_ns_per_decision, cost.iq_ns, cost.idwt_ns,
                cost.ict_dc_ns);
    std::printf("  tier-1 by pass:   ");
    for (std::size_t k = 0; k < 3; ++k)
        std::printf(" %s %.1f%% %.2f ns/decision%s", k_pass_names[k],
                    100 * cost.passes[k].share, cost.passes[k].ns_per_decision,
                    k < 2 ? "," : "\n");
}

}  // namespace

int main(int argc, char** argv)
{
    std::printf("=== Figure 1 — JPEG 2000 SW decode profile (16 tiles, 3 components) ===\n");
    const auto wl = decoder::workload::standard();
    std::string json = "{\"bench\":\"decode_stages\",\"unit\":\"ns_per_sample\",\"j2k\":{";
    char buf[256];
    for (const bool lossy : {false, true}) {
        native_cost cost{};
        const shares nat = native_shares(wl, lossy, cost);
        print_mode(lossy ? "lossy" : "lossless",
                   lossy ? decoder::k_profile_lossy : decoder::k_profile_lossless,
                   model_shares(wl, lossy), nat, cost);
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"tier1\":%.2f,\"iq\":%.2f,\"idwt\":%.2f,"
                      "\"ict_dc\":%.2f,\"tier1_ns_per_mq_decision\":%.2f,\"passes\":{",
                      lossy ? "," : "", lossy ? "lossy" : "lossless", cost.arith_ns,
                      cost.iq_ns, cost.idwt_ns, cost.ict_dc_ns, cost.arith_ns_per_decision);
        json += buf;
        for (std::size_t k = 0; k < 3; ++k) {
            std::snprintf(buf, sizeof buf, "%s\"%s\":{\"share\":%.3f,\"ns_per_mq_decision\":%.2f}",
                          k ? "," : "", k_pass_names[k], cost.passes[k].share,
                          cost.passes[k].ns_per_decision);
            json += buf;
        }
        json += "}}";
    }
    std::printf("\nThe model column is back-annotated from the paper's profile "
                "(as the paper itself\nback-annotates measured times); the native column "
                "profiles this repo's own codec.\n");

    std::printf("\n=== Progressive resynthesis (6-layer 256x256x3 lossless) ===\n");
    const double resynth = progressive_resynth_ns_per_sample();
    std::printf("  repeat advance_to(6), synthesis only  %.2f ns/sample\n", resynth);
    std::snprintf(buf, sizeof buf, ",\"progressive\":{\"resynth_ns_per_sample\":%.2f}",
                  resynth);
    json += buf;

    std::printf("\n=== CCSDS-123 native decode (128x128x16 bands, 12-bit) ===\n");
    const double full_p3 = ccsds_ns_per_sample(3, ccsds::neighbor_mode::full);
    const double narrow_p15 = ccsds_ns_per_sample(15, ccsds::neighbor_mode::narrow);
    std::printf("  P=3 full (ccsds_zipf)  %.1f ns/sample\n", full_p3);
    std::printf("  P=15 narrow            %.1f ns/sample\n", narrow_p15);
    std::snprintf(buf, sizeof buf,
                  "},\"ccsds\":{\"geometry\":\"128x128x16 12-bit\","
                  "\"p3_full\":%.2f,\"p15_narrow\":%.2f}}",
                  full_p3, narrow_p15);
    json += buf;

    std::printf("\n%s\n", json.c_str());
    const char* out = argc > 1 ? argv[1] : "BENCH_decode_stages.json";
    if (std::FILE* f = std::fopen(out, "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    // A decode that differs from its source fails the binary.
    return resynth < 0 || full_p3 < 0 || narrow_p15 < 0 ? 1 : 0;
}
