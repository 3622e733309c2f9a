// obs/metrics.hpp — generic metrics: counters, gauges, log2 histograms, and
// the sinks that render an enumeration of named values as Prometheus text,
// JSON or a human-readable dump.
//
// Everything on the update path is a relaxed atomic — recording is a handful
// of uncontended RMWs, cheap enough to leave enabled in production.  Owners
// keep instruments as plain members and name them once, in the enumeration
// they feed to a metric_sink (see runtime::metrics_snapshot::for_each).
//
// `log2_histogram` is the service's latency histogram promoted to a general
// facility: bucket b counts values with bit_width b, quantiles interpolate
// linearly inside the hit bucket, bounding the error at ~half a bucket width.
#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace obs {

/// Sanitise a metric name for Prometheus text exposition, once, at the
/// boundary: every character outside [a-zA-Z0-9_:] becomes '_', and a name
/// whose first character may not lead a Prometheus identifier (digit, or
/// empty input) gains a '_' prefix.  Family names handed to a sink are
/// free-form; anything that leaves the process over /metrics goes through here.
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// JSON string-escape (quotes added) — the sinks share this so a hostile
/// metric name can never break the emitted JSON.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Monotonically increasing event count.
class counter {
public:
    void add(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept
    {
        return v_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, in-flight jobs, ...) with a high-water
/// mark maintained across every set/add.
class gauge {
public:
    void set(std::int64_t v) noexcept
    {
        v_.store(v, std::memory_order_relaxed);
        raise_max(v);
    }
    void add(std::int64_t d) noexcept
    {
        raise_max(v_.fetch_add(d, std::memory_order_relaxed) + d);
    }
    [[nodiscard]] std::int64_t value() const noexcept
    {
        return v_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t max() const noexcept
    {
        return max_.load(std::memory_order_relaxed);
    }

private:
    void raise_max(std::int64_t v) noexcept
    {
        std::int64_t cur = max_.load(std::memory_order_relaxed);
        while (cur < v && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                                      std::memory_order_relaxed)) {
        }
    }

    std::atomic<std::int64_t> v_{0};
    std::atomic<std::int64_t> max_{0};
};

/// Log2-bucketed histogram of non-negative integer samples.
class log2_histogram {
public:
    static constexpr int k_buckets = 64;  ///< bucket b counts values with bit_width b

    void observe(std::uint64_t v) noexcept;

    struct data {
        std::array<std::uint64_t, k_buckets> buckets{};
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t max = 0;

        /// Approximate quantile, q clamped to [0, 1].  Returns 0 for an empty
        /// histogram; never exceeds the largest observed sample.
        [[nodiscard]] double quantile(double q) const noexcept;
        [[nodiscard]] double mean() const noexcept
        {
            return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
        }
    };

    [[nodiscard]] data snapshot() const noexcept;

private:
    std::array<std::atomic<std::uint64_t>, k_buckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

/// Prometheus type of a metric family.
enum class metric_type : std::uint8_t { counter, gauge, summary };

/// One Prometheus label.  Both views only need to outlive the sink call.
struct metric_label {
    std::string_view key;
    std::string_view value;
};

/// `{key="value",...}` with keys sanitised and values escaped; empty for no
/// labels.
[[nodiscard]] std::string prometheus_labels(std::span<const metric_label> labels);

/// A sample's value: a count (the implicit conversion), a real printed with a
/// fixed number of decimals, a flag, or a text (JSON and dump only).
class metric_value {
public:
    metric_value(std::uint64_t n) noexcept : n_{n} {}  // implicit: most values are counts
    /// Reals and flags say so (real(), flag()) instead of converting silently.
    template <typename T>
        requires std::floating_point<T> || std::same_as<T, bool>
    metric_value(T) = delete;
    [[nodiscard]] static metric_value real(double x, int decimals) noexcept;
    [[nodiscard]] static metric_value flag(bool on) noexcept;
    [[nodiscard]] static metric_value text(std::string_view s) noexcept;

    [[nodiscard]] bool is_text() const noexcept { return kind_ == kind::text; }
    /// The JSON (and dump) spelling.
    void append_json(std::string& out) const;
    /// The Prometheus spelling; a real is shown × 10^shift with as many more
    /// decimals as the shift takes away.
    void append_prometheus(std::string& out, int shift) const;

private:
    enum class kind : std::uint8_t { count, real, flag, text };
    metric_value() = default;

    kind kind_ = kind::count;
    int decimals_ = 0;
    std::uint64_t n_ = 0;
    double x_ = 0.0;
    std::string_view s_;
};

/// The names of one exposed value.  `family` + `suffix` with `labels` is its
/// Prometheus sample, `key` its slot in the sink's current JSON group.  An
/// empty family keeps it out of Prometheus, an empty key out of JSON and the
/// dump.
struct metric {
    std::string_view family = {};  ///< without the exposition prefix
    metric_type type = metric_type::counter;
    std::span<const metric_label> labels = {};
    std::string_view suffix = {};  ///< a summary's `_sum` / `_count`
    std::string_view key = {};
    int prom_shift = 0;  ///< Prometheus shows the value × 10^prom_shift (ms → s: -3)
};

/// Receives an enumeration of metrics, e.g. `metrics_snapshot::for_each`, and
/// renders it.  Groups nest: each begin() opens a JSON object (a dump line)
/// inside the current one until the matching end().
class metric_sink {
public:
    virtual void begin(std::string_view group) = 0;
    virtual void end() = 0;
    virtual void add(const metric& m, const metric_value& v) = 0;

    /// Shorthands for an unlabelled counter or gauge.
    void add_counter(std::string_view family, std::string_view key, const metric_value& v)
    {
        add({.family = family, .key = key}, v);
    }
    void add_gauge(std::string_view family, std::string_view key, const metric_value& v)
    {
        add({.family = family, .type = metric_type::gauge, .key = key}, v);
    }

protected:
    ~metric_sink() = default;
};

/// Prometheus text exposition 0.0.4: samples grouped by family in order of
/// first appearance, each family under exactly one `# TYPE` line.
class prometheus_text final : public metric_sink {
public:
    explicit prometheus_text(std::string_view prefix);
    void begin(std::string_view) override {}
    void end() override {}
    void add(const metric& m, const metric_value& v) override;
    [[nodiscard]] std::string str() const;

private:
    struct family {
        std::string name;
        metric_type type;
        std::string samples;
    };
    std::string prefix_;
    std::vector<family> families_;
};

/// One compact JSON object: a nested object per group, `"key":value` per
/// keyed metric.
class json_text final : public metric_sink {
public:
    void begin(std::string_view group) override;
    void end() override;
    void add(const metric& m, const metric_value& v) override;
    [[nodiscard]] std::string str() const { return out_ + '}'; }

private:
    void open_slot(std::string_view key);

    std::string out_ = "{";
    bool first_ = true;
};

/// The human-readable dump: `a.b: key=value ...` on one line per group, and
/// keys outside any group on lines of their own.
class dump_text final : public metric_sink {
public:
    void begin(std::string_view group) override;
    void end() override;
    void add(const metric& m, const metric_value& v) override;
    [[nodiscard]] std::string str() const { return mid_line_ ? out_ + '\n' : out_; }

private:
    void break_line();

    std::vector<std::string> path_;
    std::string out_;
    bool mid_line_ = false;
};

}  // namespace obs
