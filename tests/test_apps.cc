/**
 * @file
 * Application-level integration tests: scaled-down VICAR and LoFreq
 * runs across all number formats, checking the paper's qualitative
 * accuracy ordering end to end.
 */

#include <gtest/gtest.h>

#include "apps/lofreq.hh"
#include "apps/vicar.hh"
#include "core/accuracy.hh"
#include "reference.hh"

namespace
{

using namespace pstat;
using namespace pstat::apps;

TEST(VicarIntegration, OracleMagnitudeTracksConfig)
{
    // decay 60 bits/site x 500 sites => likelihood near 2^-30000.
    const auto w = makeVicarWorkload(1, 13, 500, 60.0);
    ASSERT_TRUE(hmm::validate(w.model));
    const BigFloat oracle = vicarOracle(w);
    ASSERT_FALSE(oracle.isZero());
    EXPECT_NEAR(oracle.log2Abs(), -30000.0, 4500.0);
}

TEST(VicarIntegration, Binary64DiesPositAndLogSurvive)
{
    const auto w = makeVicarWorkload(2, 13, 400, 60.0);
    const BigFloat oracle = vicarOracle(w);

    const auto b64 = vicarLikelihood<double>(w);
    EXPECT_TRUE(b64.underflow);

    const auto lg = vicarLikelihoodLog(w);
    EXPECT_FALSE(lg.underflow);
    EXPECT_FALSE(lg.invalid);
    EXPECT_LT(accuracy::relErrLog10(oracle, lg.value), -6.0);

    const auto p18 = vicarLikelihood<Posit<64, 18>>(w);
    EXPECT_FALSE(p18.underflow);
    EXPECT_LT(accuracy::relErrLog10(oracle, p18.value), -6.0);
}

TEST(VicarIntegration, Posit18MoreAccurateThanLogWhenDeep)
{
    // At likelihoods around 2^-100000, the log representation has
    // burned mantissa bits on the exponent; posit(64,18) has not.
    double log_err = 0.0;
    double posit_err = 0.0;
    const int runs = 3;
    for (int seed = 0; seed < runs; ++seed) {
        const auto w =
            makeVicarWorkload(100 + seed, 13, 400, 250.0);
        const BigFloat oracle = vicarOracle(w);
        ASSERT_LT(oracle.log2Abs(), -80000.0);
        log_err +=
            accuracy::relErrLog10(oracle, vicarLikelihoodLog(w).value);
        posit_err += accuracy::relErrLog10(
            oracle, vicarLikelihood<Posit<64, 18>>(w).value);
    }
    EXPECT_LT(posit_err / runs, log_err / runs - 0.8);
}

TEST(VicarIntegration, Posit12UnderflowsBeyondItsRange)
{
    // Likelihood ~2^-300000 is outside posit(64,12)'s 2^-253952 but
    // inside posit(64,18)'s range.
    const auto w = makeVicarWorkload(7, 13, 700, 430.0);
    const BigFloat oracle = vicarOracle(w);
    ASSERT_LT(oracle.log2Abs(), -260000.0);
    ASSERT_GT(oracle.log2Abs(), -1000000.0);

    const auto p12 = vicarLikelihood<Posit<64, 12>>(w);
    // posit never rounds to zero: it saturates at minpos, which is
    // orders of magnitude too large -> huge relative error.
    EXPECT_GT(accuracy::relErrLog10(oracle, p12.value), 1.0);

    const auto p18 = vicarLikelihood<Posit<64, 18>>(w);
    EXPECT_LT(accuracy::relErrLog10(oracle, p18.value), -5.0);
}

TEST(LoFreqIntegration, CallsMatchOracleForPosit18)
{
    pbd::DatasetConfig config;
    config.num_columns = 150;
    config.seed = 21;
    const auto ds = pbd::makeDataset(config, "T");

    const auto oracle = lofreqOracle(ds);
    const auto oracle_calls = callVariants(oracle);

    const auto p18 = lofreqPValues<Posit<64, 18>>(ds);
    ASSERT_EQ(p18.size(), oracle.size());
    std::vector<BigFloat> p18_values;
    for (const auto &r : p18)
        p18_values.push_back(r.value);
    const auto p18_calls = callVariants(p18_values);

    int mismatches = 0;
    for (size_t i = 0; i < oracle_calls.size(); ++i)
        mismatches += oracle_calls[i] != p18_calls[i] ? 1 : 0;
    EXPECT_EQ(mismatches, 0);

    // And there are some calls at all (dataset has variants).
    int calls = 0;
    for (bool c : oracle_calls)
        calls += c ? 1 : 0;
    EXPECT_GT(calls, 2);
}

TEST(LoFreqIntegration, UnderflowCountsOrderedByRange)
{
    // Section VI-D: posit(64,9) underflows on more columns than
    // posit(64,12); posit(64,18) never underflows.
    pbd::DatasetConfig config;
    config.num_columns = 600;
    config.seed = 23;
    const auto ds = pbd::makeDataset(config, "U");
    const auto oracle = lofreqOracle(ds);

    auto count_underflows = [&](const auto &results) {
        int n = 0;
        for (size_t i = 0; i < results.size(); ++i) {
            if (results[i].underflow && !oracle[i].isZero())
                ++n;
        }
        return n;
    };

    const int u9 = count_underflows(lofreqPValues<Posit<64, 9>>(ds));
    const int u12 =
        count_underflows(lofreqPValues<Posit<64, 12>>(ds));
    const int u18 =
        count_underflows(lofreqPValues<Posit<64, 18>>(ds));
    EXPECT_EQ(u18, 0);
    EXPECT_GE(u9, u12);
    // binary64 underflows on every deeply critical column.
    const int ub64 = [&] {
        int n = 0;
        const auto b64 = lofreqPValues<double>(ds);
        for (size_t i = 0; i < b64.size(); ++i) {
            if (b64[i].underflow && !oracle[i].isZero())
                ++n;
        }
        return n;
    }();
    EXPECT_GT(ub64, u9);
}

TEST(LoFreqIntegration, LogAccurateButBeatenByPositInItsRange)
{
    pbd::DatasetConfig config;
    config.num_columns = 250;
    config.seed = 29;
    const auto ds = pbd::makeDataset(config, "V");
    const auto oracle = lofreqOracle(ds);
    const auto lg = lofreqPValues<LogDouble>(ds);
    const auto p12 = lofreqPValues<Posit<64, 12>>(ds);

    double log_err = 0.0;
    double posit_err = 0.0;
    int counted = 0;
    for (size_t i = 0; i < oracle.size(); ++i) {
        if (oracle[i].isZero())
            continue;
        const double l2 = oracle[i].log2Abs();
        // Compare inside posit(64,12)'s comfortable range.
        if (l2 > -1000.0 || l2 < -100000.0)
            continue;
        log_err += accuracy::relErrLog10(oracle[i], lg[i].value);
        posit_err += accuracy::relErrLog10(oracle[i], p12[i].value);
        ++counted;
    }
    ASSERT_GT(counted, 3);
    EXPECT_LT(posit_err / counted, log_err / counted - 1.0);
}

TEST(LoFreqIntegration, LnsRunsEndToEnd)
{
    // The Section VII format runs the same kernel end to end; its
    // flat error profile keeps it accurate at every magnitude that
    // it can reach.
    pbd::DatasetConfig config;
    config.num_columns = 120;
    config.seed = 31;
    const auto ds = pbd::makeDataset(config, "L");
    const auto oracle = lofreqOracle(ds);
    const auto lns = lofreqPValues<Lns64>(ds);
    int counted = 0;
    double worst = -1e9;
    for (size_t i = 0; i < oracle.size(); ++i) {
        if (oracle[i].isZero() || oracle[i].log2Abs() > -40.0)
            continue;
        const double err =
            accuracy::relErrLog10(oracle[i], lns[i].value);
        worst = std::max(worst, err);
        ++counted;
    }
    ASSERT_GT(counted, 3);
    EXPECT_LT(worst, -8.0);
}

TEST(VicarIntegration, FmaKernelMatchesMulAddClosely)
{
    // Forward with fused ops (ad-hoc check): fma(alpha, a, acc)
    // accumulation agrees with mul-then-add far beyond the final
    // rounding noise.
    using P = Posit<64, 18>;
    const auto w = makeVicarWorkload(55, 8, 300, 40.0);
    const BigFloat oracle = vicarOracle(w);

    // Hand-rolled fma forward pass.
    const auto &model = w.model;
    const int h = model.num_states;
    std::vector<P> alpha(h), alpha_prev(h);
    for (int q = 0; q < h; ++q) {
        alpha_prev[q] = P::fromDouble(model.pi[q]) *
                        P::fromDouble(model.bAt(q, w.obs[0]));
    }
    for (size_t t = 1; t < w.obs.size(); ++t) {
        for (int q = 0; q < h; ++q) {
            P acc = P::zero();
            for (int p = 0; p < h; ++p) {
                acc = P::fma(alpha_prev[p],
                             P::fromDouble(model.aAt(p, q)), acc);
            }
            alpha[q] = acc * P::fromDouble(model.bAt(q, w.obs[t]));
        }
        std::swap(alpha, alpha_prev);
    }
    P total = P::zero();
    for (int q = 0; q < h; ++q)
        total += alpha_prev[q];

    const double fma_err =
        accuracy::relErrLog10(oracle, total.toBigFloat());
    const double plain_err = accuracy::relErrLog10(
        oracle, vicarLikelihood<P>(w).value);
    EXPECT_LT(fma_err, -8.0);
    // Fused accumulation should be at least as accurate.
    EXPECT_LE(fma_err, plain_err + 0.5);
}

TEST(LoFreqIntegration, ThresholdClassification)
{
    std::vector<BigFloat> ps = {
        BigFloat::twoPow(-100), BigFloat::twoPow(-199),
        BigFloat::twoPow(-201), BigFloat::twoPow(-5000),
        BigFloat::one(), BigFloat::zero()};
    const auto calls = callVariants(ps);
    EXPECT_FALSE(calls[0]);
    EXPECT_FALSE(calls[1]);
    EXPECT_TRUE(calls[2]);
    EXPECT_TRUE(calls[3]);
    EXPECT_FALSE(calls[4]);
    EXPECT_TRUE(calls[5]); // computed zero is "below threshold"
}

} // namespace
