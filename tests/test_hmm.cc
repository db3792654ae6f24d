/**
 * @file
 * HMM substrate tests: forward against brute-force enumeration,
 * cross-format agreement, the Listing-3 log variant, rescaled and
 * oracle runs, backward/Viterbi/Baum-Welch extensions, generators.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/accuracy.hh"
#include "hmm/forward.hh"
#include "hmm/generator.hh"
#include "reference.hh"

namespace
{

using namespace pstat;
using namespace pstat::hmm;

Model
smallModel(uint64_t seed, int h = 3, int m = 4)
{
    stats::Rng rng(seed);
    return makeDirichletModel(rng, h, m, 1.0);
}

class ForwardEnumeration
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(ForwardEnumeration, MatchesBruteForce)
{
    const auto [h, m, t_len] = GetParam();
    stats::Rng rng(static_cast<uint64_t>(h * 1000 + m * 10 + t_len));
    const Model model = makeDirichletModel(rng, h, m, 1.0);
    ASSERT_TRUE(validate(model));
    const auto obs = sampleUniformObservations(rng, m, t_len);

    const double want = enumerateLikelihood(model, obs);
    const double got = forward<double>(model, obs).likelihood;
    EXPECT_NEAR(got, want, std::fabs(want) * 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ForwardEnumeration,
    ::testing::Values(std::make_tuple(1, 2, 4),
                      std::make_tuple(2, 2, 5),
                      std::make_tuple(2, 3, 7),
                      std::make_tuple(3, 4, 6),
                      std::make_tuple(4, 2, 5),
                      std::make_tuple(4, 6, 4),
                      std::make_tuple(5, 3, 5),
                      std::make_tuple(3, 8, 6)));

TEST(Forward, AllFormatsAgreeInRange)
{
    const Model model = smallModel(42);
    stats::Rng rng(43);
    const auto obs = sampleUniformObservations(rng, 4, 50);

    const double b64 = forward<double>(model, obs).likelihood;
    const double lg =
        forward<LogDouble>(model, obs).likelihood.toDouble();
    const double nary = forwardLogNary(model, obs).likelihood.toDouble();
    const double p12 =
        forward<Posit<64, 12>>(model, obs).likelihood.toDouble();
    const double p18 =
        forward<Posit<64, 18>>(model, obs).likelihood.toDouble();
    const double oracle =
        forwardOracle(model, obs).likelihood.toBigFloat().toDouble();

    EXPECT_NEAR(lg, b64, std::fabs(b64) * 1e-9);
    EXPECT_NEAR(nary, b64, std::fabs(b64) * 1e-9);
    EXPECT_NEAR(p12, b64, std::fabs(b64) * 1e-10);
    EXPECT_NEAR(p18, b64, std::fabs(b64) * 1e-9);
    EXPECT_NEAR(oracle, b64, std::fabs(b64) * 1e-10);
}

TEST(Forward, TreeMatchesSequentialClosely)
{
    const Model model = smallModel(44, 5, 6);
    stats::Rng rng(45);
    const auto obs = sampleUniformObservations(rng, 6, 40);
    const double seq =
        forward<double>(model, obs, Reduction::Sequential).likelihood;
    const double tree =
        forward<double>(model, obs, Reduction::Tree).likelihood;
    EXPECT_NEAR(tree, seq, std::fabs(seq) * 1e-12);
}

TEST(Forward, EmptyObservationGivesZeroishDefaults)
{
    const Model model = smallModel(46);
    const std::vector<int> obs;
    const auto out = forward<double>(model, obs);
    EXPECT_EQ(out.likelihood, 0.0);
    EXPECT_EQ(out.first_underflow_step, -1);
}

TEST(Forward, Binary64UnderflowDetected)
{
    // Steep decay: likelihood passes 2^-1074 quickly; the binary64
    // run must report the first all-zero step, while the oracle and
    // posit(64,18) keep a nonzero value.
    stats::Rng rng(47);
    PhyloConfig config;
    config.num_states = 4;
    config.decay_bits_per_site = 60.0;
    const Model model = makePhyloModel(rng, config);
    const auto obs = sampleUniformObservations(rng, 64, 60);

    const auto b64 = forward<double>(model, obs);
    EXPECT_TRUE(RealTraits<double>::isZero(b64.likelihood));
    EXPECT_GT(b64.first_underflow_step, 0);

    const auto p18 = forward<Posit<64, 18>>(model, obs);
    EXPECT_FALSE(p18.likelihood.isZero());
    EXPECT_EQ(p18.first_underflow_step, -1);

    const auto oracle = forwardOracle(model, obs);
    EXPECT_FALSE(oracle.likelihood.isZero());
    EXPECT_NEAR(oracle.likelihood.log2Abs(), -60.0 * 60, 600.0);
}

TEST(Forward, OracleTracksExponentDecay)
{
    // Figure 1's shape: the max-alpha exponent decreases ~linearly.
    stats::Rng rng(49);
    PhyloConfig config;
    config.num_states = 5;
    config.decay_bits_per_site = 10.0;
    const Model model = makePhyloModel(rng, config);
    const auto obs = sampleUniformObservations(rng, 64, 300);

    const auto oracle = forwardOracle(model, obs, true);
    ASSERT_EQ(oracle.alpha_max_log2.size(), obs.size());
    // Decay per step should be near the configured 10 bits.
    const double total = oracle.alpha_max_log2.back() -
                         oracle.alpha_max_log2.front();
    EXPECT_NEAR(total / (obs.size() - 1), -10.0, 3.0);
    // And it's monotonically decreasing apart from small jitter.
    int violations = 0;
    for (size_t t = 1; t < oracle.alpha_max_log2.size(); ++t) {
        if (oracle.alpha_max_log2[t] > oracle.alpha_max_log2[t - 1])
            ++violations;
    }
    EXPECT_LT(violations, static_cast<int>(obs.size() / 10));
}

TEST(ForwardBackward, InvariantAtEveryStep)
{
    // sum_q alpha_t[q] * beta_t[q] == P(O) for every t.
    const Model model = smallModel(50, 4, 5);
    stats::Rng rng(51);
    const auto obs = sampleUniformObservations(rng, 5, 12);

    const auto alpha = forwardMatrix<double>(model, obs);
    const auto beta = backwardMatrix<double>(model, obs);
    const double likelihood = forward<double>(model, obs).likelihood;
    for (size_t t = 0; t < obs.size(); ++t) {
        double sum = 0.0;
        for (int q = 0; q < model.num_states; ++q)
            sum += alpha[t][q] * beta[t][q];
        EXPECT_NEAR(sum, likelihood, std::fabs(likelihood) * 1e-10)
            << "t=" << t;
    }
}

TEST(Viterbi, BestPathBeatsRandomPaths)
{
    const Model model = smallModel(52, 3, 4);
    stats::Rng rng(53);
    const auto obs = sampleUniformObservations(rng, 4, 8);
    const auto vit = viterbi(model, obs);
    ASSERT_EQ(vit.path.size(), obs.size());

    // The Viterbi path's joint probability must be >= that of any
    // sampled path (we brute-force a few thousand).
    auto path_log2 = [&](const std::vector<int> &path) {
        double l = std::log2(model.pi[path[0]]) +
                   std::log2(model.bAt(path[0], obs[0]));
        for (size_t t = 1; t < obs.size(); ++t) {
            l += std::log2(model.aAt(path[t - 1], path[t])) +
                 std::log2(model.bAt(path[t], obs[t]));
        }
        return l;
    };
    EXPECT_NEAR(path_log2(vit.path), vit.log2_probability, 1e-9);
    for (int trial = 0; trial < 3000; ++trial) {
        std::vector<int> path(obs.size());
        for (auto &s : path)
            s = static_cast<int>(rng.below(model.num_states));
        EXPECT_LE(path_log2(path), vit.log2_probability + 1e-9);
    }
}

TEST(BaumWelch, OneStepDoesNotDecreaseLikelihood)
{
    const Model model = smallModel(54, 3, 4);
    stats::Rng rng(55);
    const auto obs = sampleUniformObservations(rng, 4, 30);

    const Model updated = baumWelchStep<double>(model, obs);
    ASSERT_TRUE(validate(updated, 1e-6));
    const double before = forward<double>(model, obs).likelihood;
    const double after = forward<double>(updated, obs).likelihood;
    EXPECT_GE(after, before * (1.0 - 1e-9));
}

TEST(BaumWelch, LogSpaceMatchesLinear)
{
    const Model model = smallModel(56, 3, 3);
    stats::Rng rng(57);
    const auto obs = sampleUniformObservations(rng, 3, 15);
    const Model lin = baumWelchStep<double>(model, obs);
    const Model lg = baumWelchStep<LogDouble>(model, obs);
    for (size_t i = 0; i < lin.a.size(); ++i)
        EXPECT_NEAR(lin.a[i], lg.a[i], 1e-8);
    for (size_t i = 0; i < lin.b.size(); ++i)
        EXPECT_NEAR(lin.b[i], lg.b[i], 1e-8);
}

TEST(PosteriorDecode, AgreesAcrossFormats)
{
    const Model model = smallModel(70, 4, 5);
    stats::Rng rng(71);
    const auto obs = sampleUniformObservations(rng, 5, 25);
    const auto lin = posteriorDecode<double>(model, obs);
    const auto lg = posteriorDecode<LogDouble>(model, obs);
    const auto p12 = posteriorDecode<Posit<64, 12>>(model, obs);
    EXPECT_EQ(lin, lg);
    EXPECT_EQ(lin, p12);
}

TEST(PosteriorDecode, PicksMostProbableStatePerPosition)
{
    // On a 2-state model with near-deterministic emissions, the
    // posterior path must track the emitting state.
    Model model;
    model.num_states = 2;
    model.num_symbols = 2;
    model.a = {0.9, 0.1, 0.1, 0.9};
    model.b = {0.95, 0.05, 0.05, 0.95};
    model.pi = {0.5, 0.5};
    ASSERT_TRUE(validate(model));
    const std::vector<int> obs = {0, 0, 0, 1, 1, 1, 0, 0};
    const auto path = posteriorDecode<double>(model, obs);
    for (size_t t = 0; t < obs.size(); ++t)
        EXPECT_EQ(path[t], obs[t]) << t;
}

TEST(PosteriorDecode, SurvivesDeepLikelihoodsInPosit)
{
    // With alpha values far below binary64's range, posterior
    // decoding still works in posit (and matches log-space).
    stats::Rng rng(72);
    PhyloConfig config;
    config.num_states = 4;
    config.decay_bits_per_site = 50.0;
    const Model model = makePhyloModel(rng, config);
    const auto obs = sampleUniformObservations(rng, 64, 60);
    const auto p18 = posteriorDecode<Posit<64, 18>>(model, obs);
    const auto lg = posteriorDecode<LogDouble>(model, obs);
    int agree = 0;
    for (size_t t = 0; t < obs.size(); ++t)
        agree += p18[t] == lg[t] ? 1 : 0;
    // Ties near 50/50 posteriors may break differently; demand
    // near-complete agreement.
    EXPECT_GE(agree, static_cast<int>(obs.size()) - 2);
}

TEST(Generators, DirichletModelIsValid)
{
    stats::Rng rng(58);
    for (int h : {2, 5, 13}) {
        const Model m = makeDirichletModel(rng, h, 16, 0.7);
        EXPECT_TRUE(validate(m)) << h;
    }
}

TEST(Generators, PhyloModelStructure)
{
    stats::Rng rng(59);
    PhyloConfig config;
    config.num_states = 13;
    config.self_prob = 0.98;
    const Model m = makePhyloModel(rng, config);
    ASSERT_TRUE(validate(m));
    // Self-transitions dominate.
    for (int i = 0; i < m.num_states; ++i) {
        for (int j = 0; j < m.num_states; ++j) {
            if (i != j) {
                EXPECT_GT(m.aAt(i, i), m.aAt(i, j));
            }
        }
    }
}

TEST(Generators, PhyloDecayCalibration)
{
    // Mean log2 of emission entries tracks the configured decay.
    stats::Rng rng(60);
    PhyloConfig config;
    config.num_states = 8;
    config.decay_bits_per_site = 100.0;
    const Model m = makePhyloModel(rng, config);
    double mean_log2 = 0.0;
    for (double b : m.b)
        mean_log2 += std::log2(b);
    mean_log2 /= static_cast<double>(m.b.size());
    EXPECT_NEAR(mean_log2, -100.0, 15.0);
}

TEST(Generators, ObservationsDeterministicBySeed)
{
    const Model m = smallModel(61);
    stats::Rng r1(99);
    stats::Rng r2(99);
    EXPECT_EQ(sampleObservations(r1, m, 100),
              sampleObservations(r2, m, 100));
    stats::Rng r3(100);
    EXPECT_NE(sampleObservations(r3, m, 100),
              sampleObservations(r2, m, 100));
}

TEST(Generators, ObservationSymbolsInRange)
{
    const Model m = smallModel(62, 3, 5);
    stats::Rng rng(63);
    for (int o : sampleObservations(rng, m, 500)) {
        EXPECT_GE(o, 0);
        EXPECT_LT(o, 5);
    }
    for (int o : sampleUniformObservations(rng, 7, 500)) {
        EXPECT_GE(o, 0);
        EXPECT_LT(o, 7);
    }
}

TEST(ModelValidate, RejectsBadInputs)
{
    Model m = smallModel(64);
    EXPECT_TRUE(validate(m));
    Model bad = m;
    bad.a[0] += 0.5; // row no longer sums to 1
    EXPECT_FALSE(validate(bad));
    bad = m;
    bad.b[0] = 0.0; // emission likelihood must be positive
    EXPECT_FALSE(validate(bad));
    bad = m;
    bad.pi.pop_back();
    EXPECT_FALSE(validate(bad));
    bad = m;
    bad.num_states = 0;
    EXPECT_FALSE(validate(bad));
}

TEST(ReduceTree, AllSizes)
{
    for (int n = 1; n <= 33; ++n) {
        std::vector<double> vals;
        double want = 0.0;
        for (int i = 1; i <= n; ++i) {
            vals.push_back(i);
            want += i;
        }
        EXPECT_EQ(reduceTree(vals), want) << n;
    }
}

} // namespace
