/**
 * @file
 * Tests for the statistics utilities: RNG determinism, samplers,
 * summary statistics, exponent bins, and table rendering.
 */

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "stats/distributions.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

namespace
{

using namespace pstat::stats;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    double min_seen = 1.0;
    double max_seen = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        min_seen = std::min(min_seen, u);
        max_seen = std::max(max_seen, u);
    }
    EXPECT_LT(min_seen, 0.01);
    EXPECT_GT(max_seen, 0.99);
}

TEST(Rng, BelowIsUnbiasedEnough)
{
    Rng rng(9);
    int counts[10] = {};
    for (int i = 0; i < 100000; ++i)
        counts[rng.below(10)]++;
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, SplitIndependence)
{
    Rng parent(5);
    Rng child = parent.split();
    // The child stream should not track the parent.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (parent() == child()) ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(Distributions, NormalMoments)
{
    Rng rng(13);
    double sum = 0.0;
    double sumsq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = sampleNormal(rng);
        sum += x;
        sumsq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(Distributions, GammaMeanMatchesShape)
{
    Rng rng(17);
    for (double shape : {0.5, 1.0, 3.5, 20.0}) {
        double sum = 0.0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            sum += sampleGamma(rng, shape);
        EXPECT_NEAR(sum / n, shape, shape * 0.05) << shape;
    }
}

TEST(Distributions, DirichletSumsToOne)
{
    Rng rng(23);
    for (size_t dim : {2u, 5u, 64u}) {
        const auto v = sampleDirichlet(rng, dim, 0.8);
        ASSERT_EQ(v.size(), dim);
        double sum = 0.0;
        for (double x : v) {
            ASSERT_GE(x, 0.0);
            sum += x;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(Distributions, DiscreteFollowsWeights)
{
    Rng rng(29);
    const std::vector<double> w = {1.0, 3.0, 6.0};
    int counts[3] = {};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        counts[sampleDiscrete(rng, w)]++;
    EXPECT_NEAR(counts[0], n * 0.1, n * 0.01);
    EXPECT_NEAR(counts[1], n * 0.3, n * 0.015);
    EXPECT_NEAR(counts[2], n * 0.6, n * 0.015);
}

TEST(Summary, PercentileInterpolation)
{
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_EQ(percentile(v, 0.0), 1.0);
    EXPECT_EQ(percentile(v, 1.0), 4.0);
    EXPECT_EQ(percentile(v, 0.5), 2.5);
    EXPECT_NEAR(percentile(v, 0.25), 1.75, 1e-12);
}

TEST(Summary, BoxStatsOrdering)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const BoxStats b = boxStats(v);
    EXPECT_EQ(b.count, 100u);
    EXPECT_LE(b.p5, b.p25);
    EXPECT_LE(b.p25, b.median);
    EXPECT_LE(b.median, b.p75);
    EXPECT_LE(b.p75, b.p95);
    EXPECT_NEAR(b.median, 50.5, 1e-9);
}

TEST(Summary, BoxStatsEmpty)
{
    const BoxStats b = boxStats({});
    EXPECT_EQ(b.count, 0u);
    EXPECT_EQ(b.median, 0.0);
}

TEST(Summary, PercentileClampsOutOfRangeQuantile)
{
    // Regression: out-of-range q used to be an NDEBUG-stripped
    // assert, so release builds indexed out of bounds. Clamped now.
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_EQ(percentile(v, -0.5), 1.0);
    EXPECT_EQ(percentile(v, 1.5), 4.0);
    EXPECT_EQ(percentile(v, -1e300), 1.0);
    EXPECT_EQ(percentile(v, 2e9), 4.0);
    // A NaN q must clamp too (std::clamp would pass NaN through and
    // reintroduce the out-of-bounds index).
    EXPECT_EQ(percentile(v, std::nan("")), 1.0);
}

TEST(Summary, BoxStatsPartitionsOutNaNs)
{
    // Regression: NaNs violate std::sort's strict weak ordering —
    // one NaN could scramble the array and poison every quantile.
    const double nan = std::nan("");
    const BoxStats with_nans =
        boxStats({nan, 3.0, 1.0, nan, 5.0, 2.0, 4.0, nan});
    const BoxStats clean = boxStats({3.0, 1.0, 5.0, 2.0, 4.0});
    EXPECT_EQ(with_nans.count, 5u); // only the summarized samples
    EXPECT_EQ(with_nans.median, clean.median);
    EXPECT_EQ(with_nans.p5, clean.p5);
    EXPECT_EQ(with_nans.p25, clean.p25);
    EXPECT_EQ(with_nans.p75, clean.p75);
    EXPECT_EQ(with_nans.p95, clean.p95);
    EXPECT_FALSE(std::isnan(with_nans.median));
}

TEST(Summary, BoxStatsAllNaNsBehavesLikeEmpty)
{
    const double nan = std::nan("");
    const BoxStats b = boxStats({nan, nan, nan});
    EXPECT_EQ(b.count, 0u);
    EXPECT_EQ(b.median, 0.0);
}

TEST(Summary, CdfFractions)
{
    Cdf cdf({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_EQ(cdf.fractionBelow(0.5), 0.0);
    EXPECT_EQ(cdf.fractionBelow(3.0), 0.6);
    EXPECT_EQ(cdf.fractionBelow(10.0), 1.0);
    EXPECT_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_EQ(cdf.quantile(1.0), 5.0);
}

TEST(Summary, Figure3Bins)
{
    const auto bins = figure3Bins();
    ASSERT_EQ(bins.size(), 9u);
    EXPECT_EQ(binIndex(bins, -9000.0), 0);
    EXPECT_EQ(binIndex(bins, -1500.0), 4);
    EXPECT_EQ(binIndex(bins, -1022.0), 5);
    EXPECT_EQ(binIndex(bins, -5.0), 8);
    EXPECT_EQ(binIndex(bins, 0.0), 8); // the closed [-10, 0] bin
    EXPECT_EQ(binIndex(bins, -20000.0), -1);
    EXPECT_EQ(binIndex(bins, 5.0), -1);
}

TEST(Summary, Figure9Bins)
{
    const auto bins = figure9Bins();
    ASSERT_EQ(bins.size(), 8u);
    EXPECT_EQ(binIndex(bins, -400000.0), 0);
    // Bin edges follow posit range boundaries (31744 = posit(64,9)).
    EXPECT_EQ(binIndex(bins, -31744.0), 2);
    EXPECT_EQ(binIndex(bins, -31745.0), 1);
    EXPECT_EQ(binIndex(bins, -100.0), 7);
}

TEST(Table, RenderAlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "2"});
    const std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer-name"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    // Every line has the same two columns; the separator exists.
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(formatDouble(0.123456, 3), "0.123");
    EXPECT_EQ(formatInt(273525), "273,525");
    EXPECT_EQ(formatInt(-1406), "-1,406");
    EXPECT_EQ(formatInt(42), "42");
    EXPECT_EQ(formatPercent(0.6216), "62.16%");
    EXPECT_EQ(formatSci(12345.0, 3), "1.23e+04");
}

} // namespace
