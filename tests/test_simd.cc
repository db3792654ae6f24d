/**
 * @file
 * Bit-identity tests for the SIMD layer (core/simd.hh and friends).
 *
 * The contract under test: every vector kernel returns results
 * bit-identical to its scalar oracle for binary64 / binary32 on any
 * input, including ragged sizes (n % lane_width != 0, n < width,
 * empty spans) and special-value lanes (-inf / NaN / subnormal).
 * Unsupported ISA requests must fall back to the scalar path, so
 * every test loops over simd::supportedIsas() via the public
 * dispatch — plus the portable ArrayVec backends directly, which
 * exercise the tile logic at AVX2 widths on any host.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/exp_kernel.hh"
#include "core/logspace.hh"
#include "core/simd.hh"
#include "engine/format_registry.hh"
#include "hmm/forward.hh"
#include "hmm/forward_simd.hh"
#include "hmm/generator.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/pbd_simd.hh"
#include "pbd/read_pass.hh"
#include "stats/rng.hh"

namespace
{

using namespace pstat;

/** Bitwise equality — the contract is bits, not ULPs. */
template <typename T>
bool
bitsEqual(T a, T b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/** The scalar Listing-2 oracle for one column under either policy. */
template <typename T>
T
oracle(const pbd::ColumnView &view, bool compensated)
{
    if (compensated)
        return pbd::pvalueCompensated<T>(view.success_probs, view.k);
    return pbd::pvalue<T>(view.success_probs, view.k);
}

/** The all-ISAs list, including ones this host cannot run. */
const std::vector<simd::Isa> &
allIsas()
{
    static const std::vector<simd::Isa> isas = {
        simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Neon};
    return isas;
}

// ---------------------------------------------------------------------------
// The in-house exp (core/exp_kernel.hh)
// ---------------------------------------------------------------------------

/**
 * |got - exp(x)| in ulps of the exact exp(x) against BigFloat::exp:
 * the binary64 spacing at the exact value, 2^-1074 below 2^-1022.
 */
double
expUlpError(double x, double got)
{
    const BigFloat exact = BigFloat::exp(BigFloat::fromDouble(x));
    const int64_t e = std::max<int64_t>(exact.exponent(), -1022);
    const BigFloat ulp =
        BigFloat::fromDouble(std::ldexp(1.0, static_cast<int>(e - 52)));
    return ((BigFloat::fromDouble(got) - exact).abs() / ulp).toDouble();
}

/** n + 1 evenly spaced points of [lo, hi], both ends included. */
std::vector<double>
sweep(double lo, double hi, int n)
{
    std::vector<double> xs;
    for (int i = 0; i <= n; ++i)
        xs.push_back(lo + (hi - lo) * i / n);
    return xs;
}

/** The exp test inputs: sweeps, edges and special values. */
std::vector<double>
expInputs()
{
    std::vector<double> xs = sweep(-745.2, 0.0, 24000);
    // Subnormal results.
    for (const double x : sweep(-745.13, -708.39, 6000))
        xs.push_back(x);
    // Near zero: table row 32 (tail 0), so the polynomial alone
    // carries the result's low bits.
    for (const double x : sweep(-0.01, 0.0, 1000))
        xs.push_back(x);
    // The underflow edge: exp(x) crosses 2^-1075, half the least
    // subnormal, at x = -745.1332191019412.
    double edge = -745.1332191019412;
    for (int i = 0; i < 64; ++i)
        edge = std::nextafter(edge, 0.0);
    for (int i = 0; i < 128; ++i) {
        xs.push_back(edge);
        edge = std::nextafter(edge, -INFINITY);
    }
    // The least and greatest normal results.
    xs.push_back(-708.3964185322641);
    xs.push_back(std::nextafter(-708.3964185322641, 0.0));
    xs.push_back(-std::numeric_limits<double>::denorm_min());
    return xs;
}

TEST(ExpKernel, WithinOneUlpOfBigFloat)
{
    double worst = 0.0;
    double worst_x = 0.0;
    for (const double x : expInputs()) {
        const double err = expUlpError(x, simd::expKernel(x));
        if (err > worst) {
            worst = err;
            worst_x = x;
        }
    }
    EXPECT_LE(worst, 1.0) << "at x = " << worst_x;
}

TEST(ExpKernel, SpecialValues)
{
    const double ninf = -std::numeric_limits<double>::infinity();
    EXPECT_TRUE(bitsEqual(simd::expKernel(-0.0), 1.0));
    EXPECT_TRUE(bitsEqual(simd::expKernel(0.0), 1.0));
    // -inf and everything past the underflow edge are +0, never -0.
    for (const double x :
         {ninf, -745.2, -1000.0, -1.0e300,
          -std::numeric_limits<double>::max()})
        EXPECT_TRUE(bitsEqual(simd::expKernel(x), 0.0)) << x;
    EXPECT_TRUE(std::isnan(
        simd::expKernel(std::numeric_limits<double>::quiet_NaN())));
    // The least subnormal, from just above the underflow edge.
    EXPECT_EQ(simd::expKernel(-745.1332191019411),
              std::numeric_limits<double>::denorm_min());
}

TEST(ExpKernel, EveryIsaBitIdenticalToScalar)
{
    std::vector<double> xs = expInputs();
    stats::Rng rng(43);
    for (int i = 0; i < 4000; ++i)
        xs.push_back(-std::exp(rng.uniform(-40.0, 7.0)));
    // Special lanes at every position of a 4-lane vector, and a
    // ragged tail.
    for (const double special :
         {-std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0, -1000.0,
          -745.1332191019411})
        for (int pos = 0; pos < 4; ++pos)
            xs.insert(xs.begin() + pos * 5, special);
    xs.push_back(-1.25);

    std::vector<double> want(xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        want[i] = simd::expKernel(xs[i]);
    const auto check = [&](const std::vector<double> &got,
                           const char *label) {
        for (size_t i = 0; i < xs.size(); ++i) {
            if (std::isnan(want[i]))
                EXPECT_TRUE(std::isnan(got[i])) << label << " " << i;
            else
                EXPECT_TRUE(bitsEqual(got[i], want[i]))
                    << label << " x=" << xs[i];
        }
    };
    for (const simd::Isa isa : allIsas()) {
        std::vector<double> got(xs.size());
        simd::detail::expKernelBatch(xs, got, isa);
        check(got, simd::isaName(isa));
    }
    // The portable reference at the AVX2 width.
    using Portable = simd::ArrayVec<double, 4>;
    std::vector<double> portable(xs.size());
    size_t i = 0;
    for (; i + 4 <= xs.size(); i += 4)
        simd::expKernel(Portable::load(&xs[i])).store(&portable[i]);
    for (; i < xs.size(); ++i)
        portable[i] = simd::expKernel(xs[i]);
    check(portable, "ArrayVec<double, 4>");
}

// ---------------------------------------------------------------------------
// The n-ary LSE, logSumExp(span)
// ---------------------------------------------------------------------------

/** ln(sum of e^v) at BigFloat precision, rounded to double. */
double
lseReference(const std::vector<double> &lvals)
{
    BigFloat sum = BigFloat::zero();
    for (const double v : lvals)
        if (!std::isinf(v))
            sum = sum + BigFloat::exp(BigFloat::fromDouble(v));
    return BigFloat::ln(sum).toDouble();
}

template <typename T>
void
runNaryLseSpecialValues()
{
    const T ninf = -std::numeric_limits<T>::infinity();
    const T pinf = std::numeric_limits<T>::infinity();
    const T nan = std::numeric_limits<T>::quiet_NaN();
    const T subn = std::numeric_limits<T>::denorm_min();
    const auto lse = [](const std::vector<T> &lvals) {
        return logSumExp(std::span<const T>(lvals));
    };

    // Empty and all--inf spans are exact zeros: -inf, never NaN.
    EXPECT_TRUE(bitsEqual(lse({}), ninf));
    EXPECT_TRUE(bitsEqual(lse(std::vector<T>(13, ninf)), ninf));

    // -inf terms in every position class contribute exactly nothing,
    // and subnormal log values (terms of about 1) mix in correctly.
    const std::vector<std::vector<T>> cases = {
        {ninf, T(-1.5), T(-2.25), T(-0.5), T(-3), T(-4), T(-5),
         T(-6), T(-7)},
        {T(-1.5), T(-2.25), ninf, T(-0.5), ninf, T(-4), T(-5),
         ninf, T(-7)},
        {T(-700), subn, T(-0.125), ninf, T(-44), subn, T(-1),
         T(-2), T(-3)},
        {subn, subn, subn},
        {T(-1)},
        {ninf, ninf, T(-9.75)},
    };
    for (const auto &lvals : cases) {
        std::vector<T> finite;
        std::vector<double> wide;
        for (const T v : lvals) {
            if (!std::isinf(v))
                finite.push_back(v);
            wide.push_back(static_cast<double>(v));
        }
        const T got = lse(lvals);
        EXPECT_TRUE(bitsEqual(got, lse(finite))) << lvals.size();
        const double want = lseReference(wide);
        EXPECT_NEAR(static_cast<double>(got), want,
                    4 * std::numeric_limits<T>::epsilon() *
                        std::max(1.0, std::fabs(want)))
            << lvals.size();
    }
    // One finite term is exact: max + log(1).
    EXPECT_TRUE(bitsEqual(lse({T(-1)}), T(-1)));
    EXPECT_TRUE(bitsEqual(lse({ninf, ninf, T(-9.75)}), T(-9.75)));

    // NaN and +inf poison the exponential sum into NaN.
    const std::vector<std::vector<T>> poisoned = {
        {T(-1), nan, T(-2), T(-3), T(-4), T(-5), T(-6), T(-7),
         T(-8)},
        {T(-1), pinf, T(-2), T(-3), T(-4), T(-5), T(-6), T(-7),
         T(-8)},
    };
    for (const auto &lvals : poisoned)
        EXPECT_TRUE(std::isnan(static_cast<double>(lse(lvals))));
}

TEST(NaryLse, SpecialValuesF64) { runNaryLseSpecialValues<double>(); }

TEST(NaryLse, SpecialValuesF32) { runNaryLseSpecialValues<float>(); }

TEST(NaryLse, UsesTheExpKernel)
{
    // logSumExp(span) is m + log(sum of expKernel(v - m)), the same
    // exp the vector forward tile runs per lane. The kernel and libm
    // agree to within an ulp, so most spans cannot tell them apart:
    // a span whose maximum is 0 with a few terms above -ln 2 shows
    // an exp difference in the sum's last bit and in the log. Those
    // spans are half of the trials, and the libm variant of the same
    // formula must differ on some of them, so the pin sees an exp
    // swap.
    stats::Rng rng(59);
    int libm_differs = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        std::vector<double> lvals;
        if (trial % 2 == 0) {
            lvals.push_back(0.0);
            for (size_t i = 1 + rng.below(3); i > 0; --i)
                lvals.push_back(rng.uniform(-0.69, 0.0));
        } else {
            for (size_t i = 1 + rng.below(40); i > 0; --i)
                lvals.push_back(rng.uniform(-60.0, 0.0) - 20.0);
        }
        double m = -INFINITY;
        for (const double v : lvals)
            m = v > m ? v : m;
        double kernel_sum = 0.0;
        double libm_sum = 0.0;
        for (const double v : lvals) {
            kernel_sum += simd::expKernel(v - m);
            libm_sum += std::exp(v - m);
        }
        const double want = m + std::log(kernel_sum);
        const double got = logSumExp(std::span<const double>(lvals));
        EXPECT_TRUE(bitsEqual(got, want)) << "trial " << trial;
        libm_differs += bitsEqual(m + std::log(libm_sum), want) ? 0 : 1;
    }
    EXPECT_GT(libm_differs, 0);
}

// ---------------------------------------------------------------------------
// pbd batch kernels
// ---------------------------------------------------------------------------

/** A deliberately ragged batch covering every dispatch path. */
std::vector<pbd::Column>
makeRaggedColumns()
{
    stats::Rng rng(7);
    std::vector<pbd::Column> cols;

    // Ragged N and K, including n < lane width and n % width != 0.
    for (int i = 0; i < 37; ++i) {
        pbd::Column col;
        const int n = 5 + (i * 17) % 200;
        col.success_probs.resize(n);
        for (auto &p : col.success_probs)
            p = rng.uniform(1e-6, 0.2);
        col.k = i % (n / 2 + 1);
        cols.push_back(std::move(col));
    }

    // K <= 0 columns: answered upfront by the batch filter.
    for (int k : {0, -3}) {
        pbd::Column col;
        col.success_probs.assign(16, 0.01);
        col.k = k;
        cols.push_back(std::move(col));
    }

    // K > N: the tail can never fire; P(X >= K) underflows to zero.
    {
        pbd::Column col;
        col.success_probs.assign(10, 0.05);
        col.k = 15;
        cols.push_back(std::move(col));
    }

    // Empty spans.
    for (int k : {0, 2}) {
        pbd::Column col;
        col.k = k;
        cols.push_back(std::move(col));
    }

    // Subnormal / extreme probabilities: the DP underflows through
    // subnormals to zero and the bits must still match.
    {
        pbd::Column col;
        col.success_probs = {5e-324, 1e-300, 1.0, 0.0, 1e-160,
                             0.999,  1e-8,   0.5};
        col.k = 3;
        cols.push_back(std::move(col));
    }

    // Deep-tail columns past the 32 KiB L1 tile budget (K > 512):
    // a full lane-width group of them peels off to the row kernel.
    for (int i = 0; i < 9; ++i) {
        pbd::Column col;
        const int n = 1400 + i * 3;
        col.success_probs.resize(n);
        for (auto &p : col.success_probs)
            p = rng.uniform(0.3, 0.7);
        col.k = 600 + i;
        cols.push_back(std::move(col));
    }
    return cols;
}

template <typename T>
void
runPbdBatchAgainstOracle(const std::vector<pbd::Column> &cols)
{
    const std::vector<pbd::ColumnView> views = pbd::viewsOf(cols);
    std::vector<T> out(views.size());
    for (simd::Isa isa : allIsas()) {
        for (bool compensated : {false, true}) {
            if (compensated)
                pbd::pvalueBatchCompensatedSimd<T>(views, out, isa);
            else
                pbd::pvalueBatchSimd<T>(views, out, isa);
            for (size_t i = 0; i < views.size(); ++i) {
                const T want = oracle<T>(views[i], compensated);
                EXPECT_TRUE(bitsEqual(out[i], want))
                    << "isa=" << simd::isaName(isa)
                    << " compensated=" << compensated
                    << " column=" << i << " k=" << views[i].k
                    << " n=" << views[i].coverage()
                    << " simd=" << out[i] << " oracle=" << want;
            }
        }
    }
}

TEST(SimdPbd, BatchBitIdenticalToScalarOracleF64)
{
    runPbdBatchAgainstOracle<double>(makeRaggedColumns());
}

TEST(SimdPbd, BatchBitIdenticalToScalarOracleF32)
{
    runPbdBatchAgainstOracle<float>(makeRaggedColumns());
}

TEST(SimdPbd, BatchesSmallerThanLaneWidth)
{
    // Batches below and not divisible by any lane width still route
    // every column somewhere (remainder loop) and match the oracle.
    const auto all = makeRaggedColumns();
    for (size_t take : {1UL, 3UL, 5UL, 13UL}) {
        std::vector<pbd::Column> cols(all.begin(),
                                      all.begin() + take);
        runPbdBatchAgainstOracle<double>(cols);
        runPbdBatchAgainstOracle<float>(cols);
    }
}

template <typename T, int W>
void
runPortableTileAgainstOracle()
{
    stats::Rng rng(11);
    // Three tile flavours: distinct K (gather tail), shared K (the
    // contiguous fast path), and a K <= 0 lane mixed in.
    std::vector<std::vector<pbd::Column>> groups;
    {
        std::vector<pbd::Column> group(W);
        for (int c = 0; c < W; ++c) {
            const int n = 20 + c * 7;
            group[c].success_probs.resize(n);
            for (auto &p : group[c].success_probs)
                p = rng.uniform(1e-5, 0.3);
            group[c].k = 2 + 3 * c;
        }
        groups.push_back(std::move(group));
    }
    {
        std::vector<pbd::Column> group(W);
        for (int c = 0; c < W; ++c) {
            const int n = 30 + c;
            group[c].success_probs.resize(n);
            for (auto &p : group[c].success_probs)
                p = rng.uniform(1e-5, 0.3);
            group[c].k = 6; // every lane shares one K
        }
        groups.push_back(std::move(group));
    }
    {
        std::vector<pbd::Column> group(W);
        for (int c = 0; c < W; ++c) {
            const int n = 12 + c * 3;
            group[c].success_probs.resize(n);
            for (auto &p : group[c].success_probs)
                p = rng.uniform(1e-5, 0.3);
            group[c].k = c == 1 ? 0 : 4; // inert lane must yield 1
        }
        groups.push_back(std::move(group));
    }

    for (const auto &group : groups) {
        const std::vector<pbd::ColumnView> views =
            pbd::viewsOf(group);
        for (bool compensated : {false, true}) {
            T out[W];
            pbd::detail::pvalueTilePortable(views.data(), out,
                                            compensated);
            for (int c = 0; c < W; ++c) {
                const T want = oracle<T>(views[c], compensated);
                EXPECT_TRUE(bitsEqual(out[c], want))
                    << "lane=" << c << " k=" << views[c].k
                    << " compensated=" << compensated;
            }
            // The row-vectorized deep-tail kernel on the same lanes.
            for (int c = 0; c < W; ++c) {
                T row_out;
                pbd::detail::pvalueColumnRowsPortable(
                    views[c], &row_out, compensated);
                EXPECT_TRUE(bitsEqual(
                    row_out, oracle<T>(views[c], compensated)))
                    << "lane=" << c;
            }
        }
    }
}

TEST(SimdPbd, PortableTileMatchesOracleF64)
{
    runPortableTileAgainstOracle<double, 4>();
}

TEST(SimdPbd, PortableTileMatchesOracleF32)
{
    runPortableTileAgainstOracle<float, 8>();
}

// ---------------------------------------------------------------------------
// The analytic bounds' read pass
// ---------------------------------------------------------------------------

TEST(SimdReadPass, BitIdenticalToArrayVecOnAdversarialReads)
{
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double denorm = std::numeric_limits<double>::denorm_min();
    const std::vector<double> valid_pool{
        0.0, -0.0, 1.0, denorm, 0x1p-1060, 0x1p-1022, 1e-300,
        1e-12, 0.5, std::nextafter(1.0, 0.0)};
    const std::vector<double> invalid_pool{
        nan, -0.25, -denorm, -inf, std::nextafter(1.0, 2.0), 1.5, inf};

    stats::Rng rng(0x5ead5eedULL);
    size_t invalid_cases = 0;
    for (size_t n : {0UL, 1UL, 2UL, 3UL, 4UL, 5UL, 6UL, 7UL, 8UL, 9UL,
                     13UL, 17UL, 31UL, 100UL, 257UL}) {
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<double> probs(n);
            for (double &p : probs) {
                p = rng.chance(0.5)
                        ? valid_pool[rng.below(valid_pool.size())]
                        : rng.uniform();
            }
            // A third of the columns carry one invalid read, tail
            // positions included.
            if (n > 0 && trial % 3 == 0) {
                probs[rng.below(n)] =
                    invalid_pool[rng.below(invalid_pool.size())];
                ++invalid_cases;
            }
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " trial=" << trial);

            const pbd::detail::ReadStats want =
                pbd::detail::readPassRun<simd::ArrayVec<double, 4>>(
                    probs);
            for (simd::Isa isa : allIsas()) {
                const pbd::detail::ReadStats got =
                    pbd::detail::readPass(probs, isa);
                EXPECT_EQ(got.valid, want.valid) << simd::isaName(isa);
                EXPECT_EQ(got.nonzero, want.nonzero)
                    << simd::isaName(isa);
                EXPECT_TRUE(bitsEqual(got.sum, want.sum))
                    << simd::isaName(isa);
                EXPECT_TRUE(bitsEqual(got.least, want.least))
                    << simd::isaName(isa);
            }

            // The reference itself: the documented statistics, with
            // the sum in the documented stripe order.
            bool valid = true;
            size_t nonzero = 0;
            double least = 1.0;
            double stripe[4] = {0.0, 0.0, 0.0, 0.0};
            const size_t body = n - n % 4;
            for (size_t i = 0; i < n; ++i) {
                const double p = probs[i];
                valid = valid && p >= 0.0 && p <= 1.0;
                if (p > 0.0) {
                    ++nonzero;
                    least = std::min(least, p);
                }
                if (i < body)
                    stripe[i % 4] += p;
            }
            double sum =
                (stripe[0] + stripe[1]) + (stripe[2] + stripe[3]);
            for (size_t i = body; i < n; ++i)
                sum += probs[i];
            ASSERT_EQ(want.valid, valid);
            if (valid) {
                EXPECT_EQ(want.nonzero, nonzero);
                EXPECT_TRUE(bitsEqual(want.sum, sum));
                EXPECT_TRUE(bitsEqual(want.least, least));
            }
        }
    }
    EXPECT_GT(invalid_cases, 100u);
}

// ---------------------------------------------------------------------------
// HMM forward
// ---------------------------------------------------------------------------

template <typename T>
void
runForwardAgainstOracle()
{
    stats::Rng rng(23);
    for (int h : {3, 8, 13}) {
        const hmm::Model model = hmm::makeDirichletModel(rng, h, 12);
        const std::vector<int> obs =
            hmm::sampleObservations(rng, model, 160);
        const hmm::ForwardOutcome<T> want = hmm::forward<T>(
            model, obs, hmm::Reduction::Sequential);
        for (simd::Isa isa : allIsas()) {
            const hmm::ForwardOutcome<T> got =
                hmm::forwardSimd<T>(model, obs, isa);
            EXPECT_TRUE(bitsEqual(got.likelihood, want.likelihood))
                << "h=" << h << " isa=" << simd::isaName(isa);
            EXPECT_EQ(got.first_underflow_step,
                      want.first_underflow_step)
                << "h=" << h << " isa=" << simd::isaName(isa);
        }
    }
}

TEST(SimdHmm, ForwardBitIdenticalEveryIsaF64)
{
    runForwardAgainstOracle<double>();
}

TEST(SimdHmm, ForwardBitIdenticalEveryIsaF32)
{
    runForwardAgainstOracle<float>();
}

TEST(SimdHmm, PortableForwardTileMatchesOracle)
{
    stats::Rng rng(31);
    const hmm::Model model = hmm::makeDirichletModel(rng, 13, 16);
    const std::vector<int> obs =
        hmm::sampleObservations(rng, model, 120);

    const auto want64 = hmm::forward<double>(
        model, obs, hmm::Reduction::Sequential);
    const auto got64 = hmm::detail::forwardTilePortableF64(model, obs);
    EXPECT_TRUE(bitsEqual(got64.likelihood, want64.likelihood));
    EXPECT_EQ(got64.first_underflow_step, want64.first_underflow_step);

    const auto want32 = hmm::forward<float>(
        model, obs, hmm::Reduction::Sequential);
    const auto got32 = hmm::detail::forwardTilePortableF32(model, obs);
    EXPECT_TRUE(bitsEqual(got32.likelihood, want32.likelihood));
    EXPECT_EQ(got32.first_underflow_step, want32.first_underflow_step);
}

/**
 * The model with zeros where the log-space forward meets -inf terms:
 * a few transitions and emissions, and every transition into state
 * 0, so state 0's column of terms is all -inf at every step after
 * the first.
 */
hmm::Model
withZeros(hmm::Model model)
{
    const int h = model.num_states;
    for (size_t i = 0; i < model.a.size(); i += 7)
        model.a[i] = 0.0;
    for (size_t i = 3; i < model.b.size(); i += 11)
        model.b[i] = 0.0;
    if (h > 1) {
        for (int p = 0; p < h; ++p)
            model.a[static_cast<size_t>(p) * h] = 0.0;
    }
    return model;
}

TEST(SimdHmm, LogNaryTileBitIdenticalToLogNary)
{
    stats::Rng rng(37);
    for (const int h : {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17}) {
        for (const size_t t_len : {1UL, 2UL, 300UL}) {
            for (const bool zeros : {false, true}) {
                const hmm::Model base =
                    hmm::makeDirichletModel(rng, h, 9);
                const std::vector<int> obs =
                    hmm::sampleObservations(rng, base, t_len);
                const hmm::Model model = zeros ? withZeros(base) : base;
                SCOPED_TRACE(::testing::Message()
                             << "h=" << h << " T=" << t_len
                             << " zeros=" << zeros);
                const hmm::ForwardOutcome<LogDouble> want =
                    hmm::forwardLogNary(model, obs);
                const auto same = [&](const auto &got,
                                      const char *label) {
                    EXPECT_TRUE(bitsEqual(got.likelihood.lnValue(),
                                          want.likelihood.lnValue()))
                        << label << " got "
                        << got.likelihood.lnValue() << " want "
                        << want.likelihood.lnValue();
                    EXPECT_EQ(got.first_underflow_step,
                              want.first_underflow_step)
                        << label;
                };
                for (const simd::Isa isa : allIsas())
                    same(hmm::forwardLogNarySimd(model, obs, isa),
                         simd::isaName(isa));
                same(hmm::detail::forwardLogNaryTilePortable(model,
                                                             obs),
                     "ArrayVec<double, 4>");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine batch entry: every registered format
// ---------------------------------------------------------------------------

TEST(SimdEngine, LogAcceleratorForwardMatchesLogNary)
{
    // The registry's `log` x Accelerator forward (the default
    // dataflow of every `log` forward plan) runs the vectorized tile;
    // its answer is forwardLogNary's, bit for bit.
    const engine::FormatOps &log = engine::FormatRegistry::instance().at(
        "log");
    stats::Rng rng(53);
    for (const int h : {5, 13, 17}) {
        for (const bool zeros : {false, true}) {
            const hmm::Model base = hmm::makeDirichletModel(rng, h, 16);
            const std::vector<int> obs =
                hmm::sampleObservations(rng, base, 200);
            const hmm::Model model = zeros ? withZeros(base) : base;
            const engine::EvalResult got = log.hmmForward(
                model, obs, engine::Dataflow::Accelerator);
            const hmm::ForwardOutcome<LogDouble> want =
                hmm::forwardLogNary(model, obs);
            EXPECT_TRUE(got.value == RealTraits<LogDouble>::toBigFloat(
                                         want.likelihood))
                << "h=" << h << " zeros=" << zeros;
        }
    }
}

TEST(SimdEngine, PbdPValueBatchMatchesPerColumnEveryFormat)
{
    pbd::DatasetConfig config;
    config.num_columns = 10;
    config.median_coverage = 60.0;
    config.coverage_sigma = 0.4;
    config.seed = 61;
    pbd::ColumnDataset ds = pbd::makeDataset(config, "simd-batch");
    {
        // A K <= 0 column and a deep-ish one, to cross the batch
        // kernel's dispatch boundaries inside the overridden formats.
        pbd::Column inert;
        inert.success_probs.assign(24, 0.02);
        inert.k = 0;
        ds.columns.push_back(std::move(inert));
        pbd::Column empty;
        empty.k = 1;
        ds.columns.push_back(std::move(empty));
    }
    const std::vector<pbd::ColumnView> views =
        pbd::viewsOf(ds.columns);

    const auto &registry = engine::FormatRegistry::instance();
    for (const auto *format : registry.all()) {
        for (engine::SumPolicy policy :
             {engine::SumPolicy::Plain,
              engine::SumPolicy::Compensated}) {
            std::vector<engine::EvalResult> batch(views.size());
            format->pbdPValueBatch(views, policy, batch);
            for (size_t i = 0; i < views.size(); ++i) {
                const engine::EvalResult single = format->pbdPValue(
                    views[i].success_probs, views[i].k, policy);
                EXPECT_TRUE(batch[i].value == single.value)
                    << format->id() << " column " << i;
                EXPECT_EQ(batch[i].invalid, single.invalid)
                    << format->id() << " column " << i;
                EXPECT_EQ(batch[i].underflow, single.underflow)
                    << format->id() << " column " << i;
            }
        }
    }
}

} // namespace
