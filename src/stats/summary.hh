/**
 * @file
 * Summary statistics used by the accuracy figures.
 *
 * Figure 3 and Figure 9 of the paper are box plots (p5/p25/p50/p75/p95
 * whiskers) of relative error per exponent bin; Figures 10 and 11 are
 * empirical CDFs. This module provides both, plus the exponent-range
 * binning the paper uses on its x axes.
 */

#ifndef PSTAT_STATS_SUMMARY_HH
#define PSTAT_STATS_SUMMARY_HH

#include <cstddef>
#include <string>
#include <vector>

namespace pstat::stats
{

/** Five-number box-plot summary matching the paper's whisker choice. */
struct BoxStats
{
    double p5 = 0.0;
    double p25 = 0.0;
    double median = 0.0;
    double p75 = 0.0;
    double p95 = 0.0;
    size_t count = 0;
};

/**
 * Linear-interpolated percentile of a sample set.
 *
 * @param sorted_values samples sorted ascending
 * @param q quantile, clamped to [0, 1]; NaN clamps to 0
 *        (out-of-range values used to hit an NDEBUG-stripped assert
 *        and index out of bounds in release builds)
 */
double percentile(const std::vector<double> &sorted_values, double q);

/**
 * Compute the five-number summary (sorts a copy of the input). NaN
 * samples are dropped before sorting — they break the sort's strict
 * weak ordering and would poison every quantile — and count reports
 * only the non-NaN samples summarized.
 */
BoxStats boxStats(std::vector<double> values);

/**
 * Empirical CDF evaluated at chosen points.
 *
 * fractionBelow(x) returns the fraction of samples <= x, which is how
 * the paper reports "99% of results have relative error < 1e-10".
 */
class Cdf
{
  public:
    explicit Cdf(std::vector<double> samples);

    /** Fraction of samples <= x, in [0, 1]. */
    double fractionBelow(double x) const;

    /** Value at quantile q in [0, 1]. */
    double quantile(double q) const;

    size_t size() const { return samples_.size(); }
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_; // sorted ascending
};

/**
 * Half-open exponent bin [lo, hi) on base-2 exponents, as used for the
 * x axes of Figures 3 and 9. The final paper bin [-10, 0] is closed on
 * the right; model that by passing hi = 1.
 */
struct ExponentBin
{
    double lo;
    double hi;
    std::string label;

    bool contains(double exponent) const
    {
        return exponent >= lo && exponent < hi;
    }
};

/** The nine bins of Figure 3. */
std::vector<ExponentBin> figure3Bins();

/** The eight bins of Figure 9. */
std::vector<ExponentBin> figure9Bins();

/** Index of the bin containing exponent, or -1 if none. */
int binIndex(const std::vector<ExponentBin> &bins, double exponent);

} // namespace pstat::stats

#endif // PSTAT_STATS_SUMMARY_HH
