/**
 * @file
 * Poisson Binomial Distribution tests: PMF/p-value dynamic programs
 * against enumeration and the binomial closed form, cross-format
 * agreement, and the column-dataset generator's magnitude spectrum.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/accuracy.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "reference.hh"
#include "stats/rng.hh"

namespace
{

using namespace pstat;
using namespace pstat::pbd;

/** Brute-force P(X = k) by enumerating all 2^N outcomes. */
std::vector<double>
enumeratePmf(const std::vector<double> &probs)
{
    const size_t n = probs.size();
    std::vector<double> pmf(n + 1, 0.0);
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
        double p = 1.0;
        int successes = 0;
        for (size_t i = 0; i < n; ++i) {
            if ((mask >> i) & 1) {
                p *= probs[i];
                ++successes;
            } else {
                p *= 1.0 - probs[i];
            }
        }
        pmf[successes] += p;
    }
    return pmf;
}

TEST(PbdPmf, MatchesEnumeration)
{
    stats::Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = 2 + static_cast<int>(rng.below(9));
        std::vector<double> probs(n);
        for (auto &p : probs)
            p = rng.uniform(0.01, 0.99);
        const auto want = enumeratePmf(probs);
        const auto got = pmf<double>(probs, n);
        ASSERT_EQ(got.size(), want.size());
        for (int k = 0; k <= n; ++k)
            EXPECT_NEAR(got[k], want[k], 1e-12) << "k=" << k;
    }
}

TEST(PbdPmf, SumsToOne)
{
    stats::Rng rng(2);
    std::vector<double> probs(200);
    for (auto &p : probs)
        p = rng.uniform(0.0, 1.0);
    const auto dist = pmf<double>(probs, 200);
    double sum = 0.0;
    for (double x : dist)
        sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST(PbdPmf, EqualProbsMatchBinomial)
{
    // All p equal: PBD reduces to Binomial(n, p).
    const int n = 30;
    const double p = 0.3;
    std::vector<double> probs(n, p);
    const auto dist = pmf<double>(probs, n);
    for (int k = 0; k <= n; ++k) {
        // C(n,k) p^k (1-p)^(n-k) via lgamma.
        const double log_c = std::lgamma(n + 1.0) -
                             std::lgamma(k + 1.0) -
                             std::lgamma(n - k + 1.0);
        const double want = std::exp(log_c + k * std::log(p) +
                                     (n - k) * std::log(1.0 - p));
        EXPECT_NEAR(dist[k], want, 1e-10) << k;
    }
}

TEST(PbdPValue, MatchesPmfTail)
{
    stats::Rng rng(3);
    for (int trial = 0; trial < 10; ++trial) {
        const int n = 30 + static_cast<int>(rng.below(30));
        std::vector<double> probs(n);
        for (auto &p : probs)
            p = rng.uniform(0.0, 0.5);
        const auto dist = pmf<double>(probs, n);
        for (int k : {1, 3, n / 2, n}) {
            double tail = 0.0;
            for (int j = k; j <= n; ++j)
                tail += dist[j];
            EXPECT_NEAR(pvalue<double>(probs, k), tail, 1e-10)
                << "k=" << k;
        }
    }
}

TEST(PbdPValue, EdgeCases)
{
    std::vector<double> probs = {0.2, 0.4, 0.9};
    EXPECT_EQ(pvalue<double>(probs, 0), 1.0);
    EXPECT_EQ(pvalue<double>(probs, -3), 1.0);
    // More successes than trials: impossible.
    EXPECT_EQ(pvalue<double>(probs, 4), 0.0);
    // All trials must succeed.
    EXPECT_NEAR(pvalue<double>(probs, 3), 0.2 * 0.4 * 0.9, 1e-15);
}

TEST(PbdPValue, MonotoneInK)
{
    stats::Rng rng(4);
    std::vector<double> probs(100);
    for (auto &p : probs)
        p = rng.uniform(0.0, 0.3);
    double prev = 1.0;
    for (int k = 1; k <= 40; k += 3) {
        const double cur = pvalue<double>(probs, k);
        EXPECT_LE(cur, prev + 1e-15) << k;
        prev = cur;
    }
}

TEST(PbdPValue, BinomialClosedFormCrossCheck)
{
    const int n = 400;
    const double p = 0.01;
    std::vector<double> probs(n, p);
    for (int k : {1, 5, 12, 30}) {
        const BigFloat want = binomialTailExact(n, p, k);
        const double got = pvalue<double>(probs, k);
        EXPECT_NEAR(got, want.toDouble(),
                    std::fabs(want.toDouble()) * 1e-9)
            << k;
    }
}

TEST(PbdPValue, BinomialTailEdgeCases)
{
    EXPECT_EQ(binomialTailExact(10, 0.5, 0).toDouble(), 1.0);
    EXPECT_TRUE(binomialTailExact(10, 0.5, 11).isZero());
    EXPECT_TRUE(binomialTailExact(10, 0.0, 1).isZero());
    EXPECT_EQ(binomialTailExact(10, 1.0, 10).toDouble(), 1.0);
    // P(X >= n) = p^n.
    EXPECT_NEAR(binomialTailExact(20, 0.25, 20).log2Abs(),
                20.0 * std::log2(0.25), 1e-9);
}

TEST(PbdPValue, FormatsAgreeInRange)
{
    stats::Rng rng(5);
    std::vector<double> probs(300);
    for (auto &p : probs)
        p = rng.uniform(0.001, 0.05);
    const int k = 20;
    const double b64 = pvalue<double>(probs, k);
    const double lg = pvalue<LogDouble>(probs, k).toDouble();
    const double p12 = pvalue<Posit<64, 12>>(probs, k).toDouble();
    const double oracle =
        pvalueOracle(probs, k).toBigFloat().toDouble();
    EXPECT_NEAR(lg, b64, std::fabs(b64) * 1e-6);
    EXPECT_NEAR(p12, b64, std::fabs(b64) * 1e-9);
    EXPECT_NEAR(oracle, b64, std::fabs(b64) * 1e-9);
}

TEST(PbdPValue, DeepMagnitudeCrossFormatCheck)
{
    // A column whose p-value is ~2^-3200: binary64 underflows, the
    // others agree with the oracle.
    std::vector<double> probs(200, std::pow(2.0, -20.0));
    const int k = 160;
    const BigFloat oracle = pvalueOracle(probs, k).toBigFloat();
    EXPECT_LT(oracle.log2Abs(), -2500.0);

    EXPECT_EQ(pvalue<double>(probs, k), 0.0); // underflow

    const auto lg = pvalue<LogDouble>(probs, k);
    EXPECT_LT(accuracy::relErrLog10(oracle, lg.toBigFloat()), -9.0);

    const auto p18 = pvalue<Posit<64, 18>>(probs, k);
    EXPECT_LT(accuracy::relErrLog10(oracle, p18.toBigFloat()), -9.0);

    // Cross-check the oracle itself against the binomial closed form.
    const BigFloat closed =
        binomialTailExact(200, std::pow(2.0, -20.0), 160);
    EXPECT_LT(accuracy::relErrLog10(closed, oracle), -20.0);
}

TEST(PbdDftCf, MatchesDynamicProgram)
{
    // Hong's characteristic-function method is algorithmically
    // independent of the Listing-2 DP: agreement validates both.
    stats::Rng rng(41);
    for (int trial = 0; trial < 6; ++trial) {
        const int n = 20 + static_cast<int>(rng.below(180));
        std::vector<double> probs(n);
        for (auto &p : probs)
            p = rng.uniform(0.0, 1.0);
        const auto dp = pmf<double>(probs, n);
        const auto dft = pmfDftCf(probs);
        ASSERT_EQ(dft.size(), dp.size());
        for (int k = 0; k <= n; ++k)
            EXPECT_NEAR(dft[k], dp[k], 1e-9) << "n=" << n << " k=" << k;
    }
}

TEST(PbdDftCf, PValueTailAgrees)
{
    stats::Rng rng(43);
    std::vector<double> probs(120);
    for (auto &p : probs)
        p = rng.uniform(0.0, 0.4);
    for (int k : {1, 10, 40, 120}) {
        EXPECT_NEAR(pvalueDftCf(probs, k), pvalue<double>(probs, k),
                    1e-8)
            << k;
    }
    EXPECT_EQ(pvalueDftCf(probs, 0), 1.0);
}

TEST(PbdDftCf, EqualProbsMatchBinomial)
{
    std::vector<double> probs(64, 0.125);
    const auto dft = pmfDftCf(probs);
    double sum = 0.0;
    for (double x : dft)
        sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_NEAR(dft[8],
                binomialTailExact(64, 0.125, 8).toDouble() -
                    binomialTailExact(64, 0.125, 9).toDouble(),
                1e-9);
}

TEST(PbdChernoffEstimate, TracksExactLog2ForModerateTails)
{
    stats::Rng rng(47);
    std::vector<double> probs(2000);
    for (auto &p : probs)
        p = rng.uniform(0.001, 0.02);
    double mu = 0.0;
    for (double p : probs)
        mu += p;
    for (double sigmas : {6.0, 9.0, 12.0}) {
        const int k = static_cast<int>(mu + sigmas * std::sqrt(mu));
        const double approx = pvalueLog2Estimate(probs, k);
        const double exact =
            pvalueOracle(probs, k).toBigFloat().log2Abs();
        // Within ~30% of the log magnitude for CLT-regime tails
        // (the skew correction it omits matters most for small z,
        // which the pre-filter property below covers instead).
        EXPECT_NEAR(approx / exact, 1.0, 0.15) << sigmas;
    }
}

TEST(PbdChernoffEstimate, EdgeBehaviour)
{
    std::vector<double> probs(100, 0.3);
    EXPECT_EQ(pvalueLog2Estimate(probs, 0), 0.0);
    // Below the mean the tail is ~1 (log2 ~ 0).
    EXPECT_EQ(pvalueLog2Estimate(probs, 10), 0.0);
    // Monotone decreasing in K above the mean.
    double prev = 1.0;
    for (int k = 40; k <= 95; k += 5) {
        const double cur = pvalueLog2Estimate(probs, k);
        EXPECT_LT(cur, prev) << k;
        prev = cur;
    }
}

TEST(PbdChernoffEstimate, ImpossibleEventIsMinusInfinity)
{
    // Regression: K > N used to leak a -1.0e9 magic sentinel. The
    // honest value of log2 P(X >= K) for an impossible event is
    // -infinity — matching the exact DP, which returns 0.
    std::vector<double> probs = {0.2, 0.4, 0.9};
    const double above_n = pvalueLog2Estimate(probs, 4);
    EXPECT_TRUE(std::isinf(above_n));
    EXPECT_LT(above_n, 0.0);
    EXPECT_EQ(pvalue<double>(probs, 4), 0.0);

    // Empty span: any K > 0 is impossible too...
    const std::vector<double> empty;
    const double empty_tail = pvalueLog2Estimate(empty, 1);
    EXPECT_TRUE(std::isinf(empty_tail));
    EXPECT_LT(empty_tail, 0.0);
    // ...while K <= 0 is certain (P(X >= 0) = 1, log2 = 0), even
    // over no trials at all.
    EXPECT_EQ(pvalueLog2Estimate(empty, 0), 0.0);
    EXPECT_EQ(pvalueLog2Estimate(empty, -2), 0.0);
    EXPECT_EQ(pvalueLog2Estimate(probs, 3),
              pvalueLog2Estimate(probs, 3)); // finite, not NaN
}

TEST(PbdChernoffEstimate, StructuralZeroTailIsMinusInfinity)
{
    // Regression (found by the adversarial differential sweeps): a K
    // larger than the number of *nonzero* probabilities is just as
    // impossible as K > N, but the mean-based surrogate only saw the
    // zeros dilute pbar and returned a finite estimate — deep enough
    // for the screen to skip a column whose true p-value is 0.
    const std::vector<double> probs = {0.0, 0.7, 0.0, 0.3, 0.0};
    const double est = pvalueLog2Estimate(probs, 3);
    EXPECT_TRUE(std::isinf(est));
    EXPECT_LT(est, 0.0);
    EXPECT_EQ(pvalue<double>(probs, 3), 0.0);
    // K within the nonzero count stays finite.
    EXPECT_TRUE(std::isfinite(pvalueLog2Estimate(probs, 2)));
}

TEST(PbdChernoffEstimate, SingleSuccessUsesTheUnionBound)
{
    // Regression (found by the adversarial differential sweeps): the
    // KL surrogate's continuity correction a = (K - 0.5)/N halves the
    // effective count at K = 1. On subnormal-deep columns (per-read p
    // ~ 2^-300) that halves the exponent: est ~ -120 bits vs a truth
    // of ~ -240 bits — a gap no screening guard band survives. K = 1
    // has a closed form, P(X >= 1) = 1 - prod(1 - p) <= sum p, tight
    // within (sum p)^2 / 2; the estimate now uses it.
    std::vector<double> probs(40);
    stats::Rng rng(61);
    for (auto &p : probs)
        p = std::exp2(rng.uniform(-320.0, -260.0));
    double mu = 0.0;
    for (double p : probs)
        mu += p;
    const double est = pvalueLog2Estimate(probs, 1);
    EXPECT_NEAR(est, std::log2(mu), 1e-9);
    const double exact =
        pvalueOracle(probs, 1).toBigFloat().log2Abs();
    EXPECT_NEAR(est, exact, 1.0);

    // Shallow K = 1 stays sane too: the union bound caps at 1.
    const std::vector<double> shallow(30, 0.5);
    EXPECT_EQ(pvalueLog2Estimate(shallow, 1), 0.0);
}

TEST(PbdChernoffEstimate, UsableAsPreFilter)
{
    // The pre-filter must never claim "insignificant" for a truly
    // critical column (it may be conservative the other way).
    stats::Rng rng(53);
    pbd::DatasetConfig config;
    config.num_columns = 150;
    config.seed = 59;
    const auto ds = makeDataset(config, "F");
    int checked = 0;
    for (const auto &col : ds.columns) {
        const double approx =
            pvalueLog2Estimate(col.success_probs, col.k);
        if (approx > -150.0) // filter says: clearly not critical
            continue;
        const double exact =
            pvalueOracle(col.success_probs, col.k)
                .toBigFloat()
                .log2Abs();
        EXPECT_LT(exact, -130.0);
        ++checked;
    }
    EXPECT_GT(checked, 2);
}

TEST(Dataset, DeterministicBySeed)
{
    DatasetConfig config;
    config.num_columns = 50;
    config.seed = 7;
    const auto a = makeDataset(config, "A");
    const auto b = makeDataset(config, "A");
    ASSERT_EQ(a.columns.size(), b.columns.size());
    for (size_t i = 0; i < a.columns.size(); ++i) {
        EXPECT_EQ(a.columns[i].k, b.columns[i].k);
        EXPECT_EQ(a.columns[i].success_probs,
                  b.columns[i].success_probs);
    }
}

TEST(Dataset, ColumnsAreWellFormed)
{
    DatasetConfig config;
    config.num_columns = 300;
    config.seed = 11;
    const auto ds = makeDataset(config, "T");
    ASSERT_EQ(ds.columns.size(), 300u);
    for (const auto &col : ds.columns) {
        EXPECT_GT(col.coverage(), 0);
        EXPECT_GE(col.k, 0);
        EXPECT_LE(col.k, col.coverage());
        for (double p : col.success_probs) {
            EXPECT_GT(p, 0.0);
            EXPECT_LT(p, 1.0);
        }
    }
}

TEST(Dataset, MagnitudeSpectrumMatchesPaperProfile)
{
    // Larger sample: critical fraction ~7%, of which a large share
    // below 2^-1074 and a small share below 2^-10000 (paper: 40% and
    // 5% of critical columns respectively).
    DatasetConfig config;
    config.num_columns = 4000;
    config.seed = 13;
    const auto ds = makeDataset(config, "S");
    int critical = 0;
    int below_1074 = 0;
    int below_10000 = 0;
    for (const auto &col : ds.columns) {
        const double est = estimateLog2PValue(col);
        if (est < -200.0)
            ++critical;
        if (est < -1074.0)
            ++below_1074;
        if (est < -10000.0)
            ++below_10000;
    }
    const double critical_frac =
        static_cast<double>(critical) / 4000.0;
    EXPECT_GT(critical_frac, 0.04);
    EXPECT_LT(critical_frac, 0.12);
    const double frac_1074 =
        static_cast<double>(below_1074) / critical;
    EXPECT_GT(frac_1074, 0.25);
    EXPECT_LT(frac_1074, 0.55);
    const double frac_10000 =
        static_cast<double>(below_10000) / critical;
    EXPECT_GT(frac_10000, 0.02);
    EXPECT_LT(frac_10000, 0.12);
}

TEST(Dataset, TargetBitsBandsMatchDocumentedSpectrum)
{
    // drawTargetBits documents four bands: 60% shallow-critical in
    // [220, 1074), 35% in [1074, 10000), 4.5% log-uniform in
    // [1e4, 1e5), 0.5% log-uniform in [1e5, 4.4e5] — equivalently
    // 40% of variant columns below 2^-1074 and 5% below 2^-10000.
    // Seeded draw over the generator itself keeps the shares honest.
    stats::Rng rng(97);
    const int n = 200000;
    int shallow = 0;
    int mid = 0;
    int deep = 0;
    int deepest = 0;
    double min_bits = 1.0e300;
    double max_bits = 0.0;
    for (int i = 0; i < n; ++i) {
        const double bits = drawTargetBits(rng);
        min_bits = std::min(min_bits, bits);
        max_bits = std::max(max_bits, bits);
        if (bits < 1074.0)
            ++shallow;
        else if (bits < 10000.0)
            ++mid;
        else if (bits < 100000.0)
            ++deep;
        else
            ++deepest;
    }
    const double dn = n;
    EXPECT_NEAR(shallow / dn, 0.60, 0.01);
    EXPECT_NEAR(mid / dn, 0.35, 0.01);
    EXPECT_NEAR(deep / dn, 0.045, 0.005);
    EXPECT_NEAR(deepest / dn, 0.005, 0.002);
    // The headline shares: 40% below 2^-1074, 5% below 2^-10000.
    EXPECT_NEAR((mid + deep + deepest) / dn, 0.40, 0.01);
    EXPECT_NEAR((deep + deepest) / dn, 0.05, 0.005);
    // Support bounds of the documented bands.
    EXPECT_GE(min_bits, 220.0);
    EXPECT_LE(max_bits, 4.4e5);
    EXPECT_GT(max_bits, 1.0e5); // the deepest band was exercised
}

TEST(Dataset, PaperDatasetsDiverse)
{
    const auto sets = makePaperDatasets(60, 3);
    ASSERT_EQ(sets.size(), 8u);
    // Mean coverage should differ across datasets (diverse N / K).
    double first_mean = 0.0;
    double last_mean = 0.0;
    for (const auto &c : sets[0].columns)
        first_mean += c.coverage();
    for (const auto &c : sets[7].columns)
        last_mean += c.coverage();
    first_mean /= sets[0].columns.size();
    last_mean /= sets[7].columns.size();
    EXPECT_GT(last_mean, first_mean * 1.5);
    for (const auto &ds : sets)
        EXPECT_EQ(ds.columns.size(), 60u);
}

TEST(Dataset, EstimateTracksOracleRoughly)
{
    // The analytic magnitude estimate should land within ~20% of the
    // true log2 p-value for strongly significant columns.
    DatasetConfig config;
    config.num_columns = 400;
    config.seed = 17;
    const auto ds = makeDataset(config, "E");
    int checked = 0;
    for (const auto &col : ds.columns) {
        const double est = estimateLog2PValue(col);
        if (est > -2000.0 || est < -20000.0)
            continue;
        const double got =
            pvalueOracle(col.success_probs, col.k)
                .toBigFloat()
                .log2Abs();
        EXPECT_NEAR(got / est, 1.0, 0.35) << "est " << est;
        if (++checked >= 5)
            break;
    }
    EXPECT_GT(checked, 0);
}

} // namespace
