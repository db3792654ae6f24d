/**
 * @file
 * Timing summaries and the metric report of the pstat benchmark.
 *
 * Every timing the benchmark prints is a median plus the highest
 * percentile that still has at least ten samples beyond it, with the
 * sample count alongside: a "p99" of 40 samples is the maximum, not a
 * percentile. The report collects metrics by name and unit and prints
 * them as the one JSON line the benchmark's runner reads.
 */

#ifndef PSTATBENCH_MEASURE_HH
#define PSTATBENCH_MEASURE_HH

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace pstatbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds from a to b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Milliseconds since t. */
inline double
msSince(Clock::time_point t)
{
    return msBetween(t, Clock::now());
}

/** Samples a percentile must leave beyond it before it is reported. */
inline constexpr size_t kTailBeyond = 10;

/**
 * The highest of p99, p95, p90, p75 and p50 that leaves at least
 * kTailBeyond of n samples beyond it; 0 when even the median does not.
 */
inline int
tailPercentile(size_t n)
{
    for (int p : {99, 95, 90, 75, 50})
        if (n * static_cast<size_t>(100 - p) / 100 >= kTailBeyond)
            return p;
    return 0;
}

/**
 * The q-quantile (0..1) of the values, linearly interpolated between
 * closest ranks (the "linear" method of numpy and of Python's
 * statistics.quantiles(method="inclusive")); 0 for no values.
 */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/** Median of the values (0 for none). */
inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** A timing series reduced to what the benchmark reports. */
struct Summary
{
    size_t samples = 0; //!< series length
    double median = 0.0;
    int tail_pct = 0;   //!< tailPercentile(samples)
    double tail = 0.0;  //!< the tail_pct quantile (median when 0)
};

/** Median, highest supported tail percentile, and sample count. */
inline Summary
summarize(const std::vector<double> &values)
{
    Summary out;
    out.samples = values.size();
    out.median = median(values);
    out.tail_pct = tailPercentile(values.size());
    out.tail = out.tail_pct == 0
                   ? out.median
                   : quantile(values, out.tail_pct / 100.0);
    return out;
}

/**
 * summarize() per consecutive window of at least @p window samples (the
 * last window takes the remainder), then the median over windows of
 * each window's median and tail. One stall of a shared machine then
 * moves one window, not the figure. Fewer than two windows' worth of
 * samples: plain summarize().
 */
inline Summary
windowedSummary(const std::vector<double> &values, size_t window)
{
    const size_t windows = window == 0 ? 0 : values.size() / window;
    if (windows < 2)
        return summarize(values);
    std::vector<double> medians, tails;
    Summary out;
    out.samples = values.size();
    out.tail_pct = 99;
    for (size_t w = 0; w < windows; ++w) {
        const auto begin = values.begin() +
                           static_cast<std::ptrdiff_t>(w * window);
        const auto end = w + 1 == windows
                             ? values.end()
                             : begin + static_cast<std::ptrdiff_t>(window);
        const Summary part = summarize(std::vector<double>(begin, end));
        medians.push_back(part.median);
        tails.push_back(part.tail);
        out.tail_pct = std::min(out.tail_pct, part.tail_pct);
    }
    out.median = median(medians);
    out.tail = median(tails);
    return out;
}

/** Peak resident set of this process, in MiB. */
inline double
peakRssMib()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Shortest round-trip decimal form of a double (all its digits). */
inline std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null"; // the runner rejects it: a metric must be finite
    char buffer[64];
    const auto result =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string(buffer, result.ptr);
}

/**
 * The metrics of one run, in insertion order, plus the operation
 * tallies that become the result's "attempted" / "failed" fields.
 */
class Report
{
  public:
    /** Record one metric. */
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** Count checked operations and how many of them failed. */
    void
    tally(size_t attempted, size_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    size_t attempted() const { return attempted_; }
    size_t failed() const { return failed_; }

    /** failed / attempted (0 when nothing was attempted). */
    double
    errorRate() const
    {
        return attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) /
                                     static_cast<double>(attempted_);
    }

    /** The result line: correct, attempted, failed, metrics. */
    std::string
    json() const
    {
        std::string out = "{\"correct\": ";
        out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted_);
        out += ", \"failed\": " + std::to_string(failed_);
        out += ", \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += "\"" + metrics_[i].name + "\": {\"value\": " +
                   jsonNumber(metrics_[i].value) + ", \"unit\": \"" +
                   metrics_[i].unit + "\"}";
        }
        out += "}}";
        return out;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    size_t attempted_ = 0;
    size_t failed_ = 0;
};

/** One line of the human-readable report (stdout, before the JSON). */
__attribute__((format(printf, 1, 2))) inline void
note(const char *format, ...)
{
    va_list args;
    va_start(args, format);
    std::vprintf(format, args);
    va_end(args);
    std::printf("\n");
}

} // namespace pstatbench

#endif // PSTATBENCH_MEASURE_HH
