/**
 * @file
 * Decode-family tests: backward against forward/enumeration,
 * posterior marginals against the alpha-beta matrices (raw and
 * renormalized), the templated Viterbi against the log2-domain
 * reference, reduction policies, underflow tracking, and the n-ary
 * log backward variants.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/accuracy.hh"
#include "hmm/decode.hh"
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

Model
deepModel(uint64_t seed, int h, double decay_bits)
{
    stats::Rng rng(seed);
    PhyloConfig config;
    config.num_states = h;
    config.decay_bits_per_site = decay_bits;
    return makePhyloModel(rng, config);
}

TEST(ReduceWith, MatchesEachPolicy)
{
    std::vector<double> vals = {1.0, 1e-16, 3.0, -1e-16, 2.0};
    // Sequential: plain left-to-right.
    double want_seq = 0.0;
    for (double v : vals)
        want_seq += v;
    std::vector<double> buf = vals;
    EXPECT_EQ(reduceWith(std::span<double>(buf),
                         Reduction::Sequential),
              want_seq);
    // Tree: bit-identical to reduceTree.
    buf = vals;
    std::vector<double> buf2 = vals;
    EXPECT_EQ(reduceWith(std::span<double>(buf), Reduction::Tree),
              reduceTree(buf2));
    // Compensated: bit-identical to NeumaierSum.
    NeumaierSum<double> acc;
    for (double v : vals)
        acc.add(v);
    buf = vals;
    EXPECT_EQ(reduceWith(std::span<double>(buf),
                         Reduction::Compensated),
              acc.value());
}

TEST(Backward, MatchesForwardAndEnumeration)
{
    const Model model = smallModel(42, 3, 4);
    stats::Rng rng(43);
    const auto obs = sampleUniformObservations(rng, 4, 7);

    const double want = enumerateLikelihood(model, obs);
    const double fwd = forward<double>(model, obs).likelihood;
    const double bwd = backward<double>(model, obs).likelihood;
    EXPECT_NEAR(bwd, want, std::fabs(want) * 1e-10);
    EXPECT_NEAR(bwd, fwd, std::fabs(fwd) * 1e-10);
}

TEST(Backward, AllFormatsAgreeInRange)
{
    const Model model = smallModel(44, 4, 5);
    stats::Rng rng(45);
    const auto obs = sampleUniformObservations(rng, 5, 40);

    const double b64 = backward<double>(model, obs).likelihood;
    const double lg =
        backward<LogDouble>(model, obs).likelihood.toDouble();
    const double p18 =
        backward<Posit<64, 18>>(model, obs).likelihood.toDouble();
    const double dd = backward<ScaledDD>(model, obs)
                          .likelihood.toBigFloat()
                          .toDouble();
    EXPECT_NEAR(lg, b64, std::fabs(b64) * 1e-9);
    EXPECT_NEAR(p18, b64, std::fabs(b64) * 1e-9);
    EXPECT_NEAR(dd, b64, std::fabs(b64) * 1e-10);
}

TEST(Backward, ReductionPoliciesAgreeClosely)
{
    const Model model = smallModel(46, 5, 6);
    stats::Rng rng(47);
    const auto obs = sampleUniformObservations(rng, 6, 30);
    const double seq =
        backward<double>(model, obs, Reduction::Sequential).likelihood;
    const double tree =
        backward<double>(model, obs, Reduction::Tree).likelihood;
    const double comp =
        backward<double>(model, obs, Reduction::Compensated)
            .likelihood;
    EXPECT_NEAR(tree, seq, std::fabs(seq) * 1e-12);
    EXPECT_NEAR(comp, seq, std::fabs(seq) * 1e-12);
}

TEST(Backward, CompensatedFallsBackForLogFormats)
{
    // Log-domain scalars have no subtraction: Compensated must be
    // bit-identical to Sequential.
    const Model model = smallModel(48, 4, 4);
    stats::Rng rng(49);
    const auto obs = sampleUniformObservations(rng, 4, 25);
    const auto seq =
        backward<LogDouble>(model, obs, Reduction::Sequential);
    const auto comp =
        backward<LogDouble>(model, obs, Reduction::Compensated);
    EXPECT_EQ(seq.likelihood.lnValue(), comp.likelihood.lnValue());
}

TEST(Backward, LogNaryMatchesLogDoubleClosely)
{
    const Model model = smallModel(50, 4, 5);
    stats::Rng rng(51);
    const auto obs = sampleUniformObservations(rng, 5, 30);
    const double lg =
        backward<LogDouble>(model, obs).likelihood.lnValue();
    const double nary = backwardLogNary(model, obs).likelihood.lnValue();
    EXPECT_NEAR(nary, lg, std::fabs(lg) * 1e-9 + 1e-9);

    const double nary32 =
        backwardLogNary<float>(model, obs).likelihood.lnValue();
    EXPECT_NEAR(nary32, lg, std::fabs(lg) * 1e-5 + 1e-4);
}

TEST(Backward, EmptyObservationGivesZeroishDefaults)
{
    const Model model = smallModel(52);
    const std::vector<int> obs;
    const auto out = backward<double>(model, obs);
    EXPECT_EQ(out.likelihood, 0.0);
    EXPECT_EQ(out.first_underflow_step, -1);
    EXPECT_TRUE(backwardLogNary(model, obs).likelihood.isZero());
    EXPECT_TRUE(backwardLogNary<float>(model, obs).likelihood.isZero());
}

TEST(Backward, Binary64UnderflowDetected)
{
    // Steep decay from the right end: beta products pass 2^-1074
    // while posit(64,18) and the oracle stay nonzero.
    const Model model = deepModel(53, 4, 60.0);
    stats::Rng rng(54);
    const auto obs = sampleUniformObservations(rng, 64, 60);

    const auto b64 = backward<double>(model, obs);
    EXPECT_TRUE(RealTraits<double>::isZero(b64.likelihood));
    EXPECT_GE(b64.first_underflow_step, 0);

    const auto p18 = backward<Posit<64, 18>>(model, obs);
    EXPECT_FALSE(p18.likelihood.isZero());
    EXPECT_EQ(p18.first_underflow_step, -1);
}

TEST(Posterior, MatchesAlphaBetaMatrices)
{
    const Model model = smallModel(55, 4, 5);
    stats::Rng rng(56);
    const auto obs = sampleUniformObservations(rng, 5, 12);

    const auto alpha = forwardMatrix<double>(model, obs);
    const auto beta = backwardMatrix<double>(model, obs);
    const auto post = posterior<double>(model, obs);
    const int h = model.num_states;

    for (size_t t = 0; t < obs.size(); ++t) {
        double norm = 0.0;
        for (int q = 0; q < h; ++q)
            norm += alpha[t][q] * beta[t][q];
        for (int q = 0; q < h; ++q) {
            EXPECT_NEAR(post.gamma[t * h + q],
                        alpha[t][q] * beta[t][q] / norm, 1e-10)
                << "t=" << t << " q=" << q;
        }
    }
}

TEST(Posterior, RowsSumToOneRawAndRenormalized)
{
    const Model model = smallModel(57, 5, 4);
    stats::Rng rng(58);
    const auto obs = sampleUniformObservations(rng, 4, 20);
    const int h = model.num_states;

    for (bool renorm : {false, true}) {
        const auto post = posterior<double>(
            model, obs, Reduction::Sequential, renorm);
        ASSERT_EQ(post.gamma.size(), obs.size() * h);
        for (size_t t = 0; t < obs.size(); ++t) {
            double sum = 0.0;
            for (int q = 0; q < h; ++q)
                sum += post.gamma[t * h + q];
            EXPECT_NEAR(sum, 1.0, 1e-12) << "renorm=" << renorm;
        }
    }
}

TEST(Posterior, LikelihoodMatchesForwardInBothModes)
{
    const Model model = smallModel(59, 4, 4);
    stats::Rng rng(60);
    const auto obs = sampleUniformObservations(rng, 4, 15);
    const double want = forward<double>(model, obs).likelihood;
    const auto raw = posterior<double>(model, obs);
    const auto renorm = posterior<double>(
        model, obs, Reduction::Sequential, true);
    EXPECT_NEAR(raw.likelihood, want, std::fabs(want) * 1e-12);
    EXPECT_NEAR(renorm.likelihood, want, std::fabs(want) * 1e-10);
}

TEST(Posterior, ArgmaxMatchesPosteriorDecode)
{
    const Model model = smallModel(61, 4, 5);
    stats::Rng rng(62);
    const auto obs = sampleUniformObservations(rng, 5, 25);
    const auto decoded = posteriorDecode<double>(model, obs);
    const auto post = posterior<double>(model, obs);
    const int h = model.num_states;
    for (size_t t = 0; t < obs.size(); ++t) {
        int best = 0;
        for (int q = 1; q < h; ++q) {
            if (post.gamma[t * h + q] > post.gamma[t * h + best])
                best = q;
        }
        EXPECT_EQ(best, decoded[t]) << t;
    }
}

TEST(Posterior, RenormalizationRescuesBinary32OnDeepWorkloads)
{
    // Final likelihood ~2^-600: far below binary32's 2^-149, so the
    // raw recursions flush to zero mid-sequence while the
    // renormalized run keeps valid marginals.
    const Model model = deepModel(63, 4, 10.0);
    stats::Rng rng(64);
    const auto obs = sampleUniformObservations(rng, 64, 60);
    const int h = model.num_states;

    const auto raw = posterior<float>(model, obs);
    EXPECT_GE(raw.first_underflow_step, 0);
    bool some_zero_row = false;
    for (size_t t = 0; t < obs.size(); ++t) {
        bool all_zero = true;
        for (int q = 0; q < h; ++q)
            all_zero = all_zero && raw.gamma[t * h + q] == 0.0f;
        some_zero_row = some_zero_row || all_zero;
    }
    EXPECT_TRUE(some_zero_row);

    const auto renorm =
        posterior<float>(model, obs, Reduction::Sequential, true);
    EXPECT_EQ(renorm.first_underflow_step, -1);
    const auto oracle = posterior<ScaledDD>(model, obs);
    for (size_t t = 0; t < obs.size(); ++t) {
        float sum = 0.0f;
        for (int q = 0; q < h; ++q) {
            sum += renorm.gamma[t * h + q];
            const double want =
                oracle.gamma[t * h + q].toBigFloat().toDouble();
            EXPECT_NEAR(renorm.gamma[t * h + q], want, 1e-3)
                << "t=" << t << " q=" << q;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-4f);
    }
}

TEST(Posterior, EmptyObservation)
{
    const Model model = smallModel(65);
    const std::vector<int> obs;
    const auto out = posterior<double>(model, obs);
    EXPECT_TRUE(out.gamma.empty());
    EXPECT_EQ(out.likelihood, 0.0);
    EXPECT_EQ(out.first_underflow_step, -1);
}

TEST(ViterbiTemplate, MatchesLog2Reference)
{
    const Model model = smallModel(66, 4, 5);
    stats::Rng rng(67);
    const auto obs = sampleUniformObservations(rng, 5, 30);

    const auto ref = viterbi(model, obs); // log2-domain reference
    const auto b64 = viterbi<double>(model, obs);
    EXPECT_EQ(b64.path, ref.path);
    EXPECT_NEAR(std::log2(b64.probability), ref.log2_probability,
                1e-8);
    EXPECT_EQ(b64.first_underflow_step, -1);

    const auto lg = viterbi<LogDouble>(model, obs);
    EXPECT_EQ(lg.path, ref.path);
    const auto p12 = viterbi<Posit<64, 12>>(model, obs);
    EXPECT_EQ(p12.path, ref.path);
    const auto dd = viterbi<ScaledDD>(model, obs);
    EXPECT_EQ(dd.path, ref.path);
}

TEST(ViterbiTemplate, UnderflowDegeneratesNarrowLinearFormats)
{
    // Deltas decay ~10 bits/site: binary32 flushes to zero within
    // ~15 sites while the log and oracle scalars keep decoding.
    const Model model = deepModel(68, 4, 10.0);
    stats::Rng rng(69);
    const auto obs = sampleUniformObservations(rng, 64, 80);

    const auto f32 = viterbi<float>(model, obs);
    EXPECT_GE(f32.first_underflow_step, 0);
    EXPECT_TRUE(RealTraits<float>::isZero(f32.probability));

    const auto lg32 = viterbi<LogFloat>(model, obs);
    EXPECT_EQ(lg32.first_underflow_step, -1);
    const auto dd = viterbi<ScaledDD>(model, obs);
    EXPECT_EQ(dd.first_underflow_step, -1);
    EXPECT_EQ(lg32.path.size(), obs.size());

    // The log32 path still agrees with the oracle path nearly
    // everywhere; the flushed binary32 path does not.
    int agree32 = 0;
    int agree_f = 0;
    for (size_t t = 0; t < obs.size(); ++t) {
        agree32 += lg32.path[t] == dd.path[t] ? 1 : 0;
        agree_f += f32.path[t] == dd.path[t] ? 1 : 0;
    }
    EXPECT_GE(agree32, static_cast<int>(obs.size()) - 4);
    EXPECT_LT(agree_f, agree32);
}

TEST(ViterbiTemplate, EmptyObservation)
{
    const Model model = smallModel(70);
    const std::vector<int> obs;
    const auto out = viterbi<double>(model, obs);
    EXPECT_TRUE(out.path.empty());
    EXPECT_EQ(out.probability, 0.0);
    EXPECT_EQ(out.first_underflow_step, -1);
}

TEST(ScaledDDOrdering, MatchesValueOrder)
{
    const ScaledDD zero = ScaledDD::zero();
    const ScaledDD one = ScaledDD::one();
    const ScaledDD tiny(ScaledDD(1.0) *
                        ScaledDD(std::ldexp(1.0, -500)) *
                        ScaledDD(std::ldexp(1.0, -500)) *
                        ScaledDD(std::ldexp(1.0, -500)));
    ScaledDD minus_one = zero - one;
    EXPECT_TRUE(zero < one);
    EXPECT_FALSE(one < zero);
    EXPECT_TRUE(tiny < one);
    EXPECT_TRUE(zero < tiny);
    EXPECT_FALSE(tiny < zero);
    EXPECT_TRUE(minus_one < zero);
    EXPECT_TRUE(minus_one < tiny);
    EXPECT_FALSE(one < one);
    // Negative ordering: -1 < -tiny (more negative is smaller).
    ScaledDD minus_tiny = zero - tiny;
    EXPECT_TRUE(minus_one < minus_tiny);
    EXPECT_FALSE(minus_tiny < minus_one);
}

} // namespace
