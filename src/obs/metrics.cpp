#include "metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace obs {

std::string prometheus_name(std::string_view name)
{
    auto ok = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == ':';
    };
    std::string out;
    out.reserve(name.size() + 1);
    if (name.empty() || (name.front() >= '0' && name.front() <= '9')) out += '_';
    for (const char c : name) out += ok(c) ? c : '_';
    return out;
}

std::string json_quote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

namespace {

int bucket_of(std::uint64_t v) noexcept
{
    const int b = static_cast<int>(std::bit_width(v));  // 0 for v == 0
    return b >= log2_histogram::k_buckets ? log2_histogram::k_buckets - 1 : b;
}

void fetch_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < v && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                                  std::memory_order_relaxed)) {
    }
}

/// Prometheus label-value escaping: backslash, quote, newline.
void append_label_value(std::string& out, std::string_view v)
{
    for (const char c : v) {
        if (c == '\\' || c == '"') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
}

/// snprintf onto `out`; the buffer holds any double printed with "%.*f" at
/// the handful of decimals the sinks use.
template <typename... A>
void appendf(std::string& out, const char* fmt, A... a)
{
    char buf[512];
    const int n = std::snprintf(buf, sizeof buf, fmt, a...);
    if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
}

}  // namespace

void log2_histogram::observe(std::uint64_t v) noexcept
{
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    fetch_max(max_, v);
}

log2_histogram::data log2_histogram::snapshot() const noexcept
{
    data d;
    for (int b = 0; b < k_buckets; ++b)
        d.buckets[static_cast<std::size_t>(b)] =
            buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    d.count = count_.load(std::memory_order_relaxed);
    d.sum = sum_.load(std::memory_order_relaxed);
    d.max = max_.load(std::memory_order_relaxed);
    return d;
}

double log2_histogram::data::quantile(double q) const noexcept
{
    if (count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(count);
    std::uint64_t cum = 0;
    for (int b = 0; b < k_buckets; ++b) {
        const std::uint64_t n = buckets[static_cast<std::size_t>(b)];
        if (n == 0) continue;
        if (static_cast<double>(cum + n) >= target) {
            // Bucket b holds values in [lo, hi); interpolate linearly.  The
            // interpolated point can overshoot the real extremum (a single
            // sample lands mid-bucket, q=1 lands at the open upper bound), so
            // clamp to the observed maximum.
            const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
            const double hi = static_cast<double>(1ull << b);
            const double frac = (target - static_cast<double>(cum)) / static_cast<double>(n);
            const double est = lo + (hi - lo) * frac;
            const double cap = static_cast<double>(max);
            return est < cap ? est : cap;
        }
        cum += n;
    }
    return static_cast<double>(max);
}

std::string prometheus_labels(std::span<const metric_label> labels)
{
    std::string out;
    for (const metric_label& l : labels) {
        out += out.empty() ? '{' : ',';
        // Label names share the metric-name alphabet minus ':'.
        std::string key = prometheus_name(l.key);
        std::replace(key.begin(), key.end(), ':', '_');
        out += key;
        out += "=\"";
        append_label_value(out, l.value);
        out += '"';
    }
    if (!out.empty()) out += '}';
    return out;
}

metric_value metric_value::real(double x, int decimals) noexcept
{
    metric_value v;
    v.kind_ = kind::real;
    v.x_ = x;
    v.decimals_ = decimals;
    return v;
}

metric_value metric_value::flag(bool on) noexcept
{
    metric_value v;
    v.kind_ = kind::flag;
    v.n_ = on ? 1 : 0;
    return v;
}

metric_value metric_value::text(std::string_view s) noexcept
{
    metric_value v;
    v.kind_ = kind::text;
    v.s_ = s;
    return v;
}

void metric_value::append_json(std::string& out) const
{
    switch (kind_) {
    case kind::count:
        appendf(out, "%llu", static_cast<unsigned long long>(n_));
        break;
    case kind::real:
        appendf(out, "%.*f", decimals_, x_);
        break;
    case kind::flag:
        out += n_ ? "true" : "false";
        break;
    case kind::text:
        out += json_quote(s_);
        break;
    }
}

void metric_value::append_prometheus(std::string& out, int shift) const
{
    if (kind_ == kind::flag) {
        out += n_ ? '1' : '0';
    } else if (kind_ == kind::real) {
        appendf(out, "%.*f", std::max(decimals_ - shift, 0), x_ * std::pow(10.0, shift));
    } else {
        append_json(out);
    }
}

prometheus_text::prometheus_text(std::string_view prefix)
    : prefix_{prometheus_name(prefix) + '_'}
{
}

void prometheus_text::add(const metric& m, const metric_value& v)
{
    if (m.family.empty() || v.is_text()) return;
    const std::string name = prefix_ + prometheus_name(m.family);
    auto f = std::find_if(families_.begin(), families_.end(),
                          [&](const family& x) { return x.name == name; });
    if (f == families_.end()) f = families_.insert(families_.end(), {name, m.type, {}});
    f->samples += name;
    f->samples += m.suffix;
    f->samples += prometheus_labels(m.labels);
    f->samples += ' ';
    v.append_prometheus(f->samples, m.prom_shift);
    f->samples += '\n';
}

std::string prometheus_text::str() const
{
    static constexpr const char* k_type[] = {"counter", "gauge", "summary"};
    std::string out;
    for (const family& f : families_) {
        out += "# TYPE ";
        out += f.name;
        out += ' ';
        out += k_type[static_cast<int>(f.type)];
        out += '\n';
        out += f.samples;
    }
    return out;
}

void json_text::open_slot(std::string_view key)
{
    if (!first_) out_ += ',';
    first_ = false;
    out_ += json_quote(key);
    out_ += ':';
}

void json_text::begin(std::string_view group)
{
    open_slot(group);
    out_ += '{';
    first_ = true;
}

void json_text::end()
{
    out_ += '}';
    first_ = false;
}

void json_text::add(const metric& m, const metric_value& v)
{
    if (m.key.empty()) return;
    open_slot(m.key);
    v.append_json(out_);
}

void dump_text::break_line()
{
    if (mid_line_) out_ += '\n';
    mid_line_ = false;
}

void dump_text::begin(std::string_view group)
{
    break_line();
    path_.emplace_back(group);
}

void dump_text::end()
{
    break_line();
    path_.pop_back();
}

void dump_text::add(const metric& m, const metric_value& v)
{
    if (m.key.empty()) return;
    if (mid_line_) {
        out_ += ' ';
    } else {
        for (const std::string& g : path_) {
            out_ += g;
            out_ += &g == &path_.back() ? ": " : ".";
        }
        mid_line_ = true;
    }
    out_ += m.key;
    out_ += '=';
    v.append_json(out_);
}

}  // namespace obs
