#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

namespace pstat::stats
{

double
percentile(const std::vector<double> &sorted_values, double q)
{
    if (sorted_values.empty())
        return 0.0;
    // An out-of-range q used to be an NDEBUG-stripped assert, so
    // release builds indexed out of bounds; clamp instead. Not
    // std::clamp: that returns NaN for a NaN q (both comparisons
    // are false), which would reintroduce the out-of-bounds index.
    if (!(q >= 0.0))
        q = 0.0; // negative or NaN
    else if (q > 1.0)
        q = 1.0;
    const double pos = q * static_cast<double>(sorted_values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = static_cast<size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

BoxStats
boxStats(std::vector<double> values)
{
    BoxStats out;
    // NaNs violate the strict weak ordering std::sort requires, so
    // one NaN sample can scramble the whole array and poison every
    // quantile; partition them out first. count reports the samples
    // actually summarized.
    values.erase(std::remove_if(
                     values.begin(), values.end(),
                     [](double v) { return std::isnan(v); }),
                 values.end());
    out.count = values.size();
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    out.p5 = percentile(values, 0.05);
    out.p25 = percentile(values, 0.25);
    out.median = percentile(values, 0.50);
    out.p75 = percentile(values, 0.75);
    out.p95 = percentile(values, 0.95);
    return out;
}

Cdf::Cdf(std::vector<double> samples)
    : samples_(std::move(samples))
{
    std::sort(samples_.begin(), samples_.end());
}

double
Cdf::fractionBelow(double x) const
{
    if (samples_.empty())
        return 0.0;
    const auto it =
        std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
}

double
Cdf::quantile(double q) const
{
    return percentile(samples_, q);
}

std::vector<ExponentBin>
figure3Bins()
{
    return {
        {-10000, -8000, "[-10000, -8000)"},
        {-8000, -6000, "[-8000, -6000)"},
        {-6000, -4000, "[-6000, -4000)"},
        {-4000, -2000, "[-4000, -2000)"},
        {-2000, -1022, "[-2000, -1022)"},
        {-1022, -500, "[-1022, -500)"},
        {-500, -100, "[-500, -100)"},
        {-100, -10, "[-100, -10)"},
        {-10, 1, "[-10, 0]"},
    };
}

std::vector<ExponentBin>
figure9Bins()
{
    return {
        {-440000, -100000, "[-440000, -100000)"},
        {-100000, -31744, "[-100000, -31744)"},
        {-31744, -16000, "[-31744, -16000)"},
        {-16000, -4096, "[-16000, -4096)"},
        {-4096, -1022, "[-4096, -1022)"},
        {-1022, -500, "[-1022, -500)"},
        {-500, -200, "[-500, -200)"},
        {-200, 1, "[-200, 0]"},
    };
}

int
binIndex(const std::vector<ExponentBin> &bins, double exponent)
{
    for (size_t i = 0; i < bins.size(); ++i) {
        if (bins[i].contains(exponent))
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace pstat::stats
