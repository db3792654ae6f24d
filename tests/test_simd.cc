/**
 * @file
 * Bit-identity tests for the SIMD layer (core/simd.hh and friends).
 *
 * The contract under test: every vector kernel returns results
 * bit-identical to its scalar oracle for binary64 / binary32 (and
 * ScaledDD, for the scaled_dd oracle's p-value tile) on any input,
 * including ragged sizes (n % lane_width != 0, n < width, empty
 * spans) and special-value lanes (-inf / NaN / subnormal).
 * Unsupported ISA requests must fall back to the scalar path, so
 * every test loops over simd::supportedIsas() via the public
 * dispatch — plus the portable ArrayVec backends directly, which
 * exercise the tile logic at AVX2 widths on any host.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
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
#include "pbd/pbd_simd_tile.hh"
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

/**
 * A value for a failure message; ScaledDD shows its three fields and
 * LogDouble its ln.
 */
template <typename T>
std::string
describe(const T &v)
{
    std::ostringstream os;
    if constexpr (std::is_same_v<T, ScaledDD>)
        os << std::hexfloat << v.mant.hi << " + " << v.mant.lo
           << " * 2^" << std::dec << v.exp2;
    else if constexpr (std::is_same_v<T, LogDouble>)
        os << "exp(" << std::hexfloat << v.lnValue() << ")";
    else
        os << v;
    return os.str();
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
// The in-house log1p and the lane LSE (core/exp_kernel.hh)
// ---------------------------------------------------------------------------

/**
 * |got - log1p(y)| in ulps of the exact log1p(y) against BigFloat:
 * the binary64 spacing at the exact value, 2^-1074 below 2^-1022.
 * Below 2^-60, 1 + y would lose y at BigFloat's precision, so the
 * exact value is the series, whose next term is below 2^-240 y.
 */
double
log1pUlpError(double y, double got)
{
    const BigFloat by = BigFloat::fromDouble(y);
    BigFloat exact;
    if (y < 0x1p-60) {
        const BigFloat y2 = by * by;
        exact = (by - y2.divSmall(2)) +
                ((y2 * by).divSmall(3) - (y2 * y2).divSmall(4));
    } else {
        exact = BigFloat::ln(BigFloat::one() + by);
    }
    if (exact.isZero())
        return got == 0.0 ? 0.0 : INFINITY;
    const int64_t e = std::max<int64_t>(exact.exponent(), -1022);
    const BigFloat ulp =
        BigFloat::fromDouble(std::ldexp(1.0, static_cast<int>(e - 52)));
    return ((BigFloat::fromDouble(got) - exact).abs() / ulp).toDouble();
}

/** The log1p test inputs: sweeps, table-row edges, tiny y. */
std::vector<double>
log1pInputs()
{
    std::vector<double> ys = sweep(0.0, 1.0, 12000);
    // Around every table row i/256 and every rounding boundary
    // (i + 1/2)/256: where ln c and log1p(r) nearly cancel (rows 1
    // and 2), and where a lane picks its row.
    for (int i = 0; i <= 256; ++i) {
        for (const double centre : {i / 256.0, (i + 0.5) / 256.0}) {
            double y = centre;
            for (int j = 0; j < 4; ++j)
                y = std::nextafter(y, 0.0);
            for (int j = 0; j < 9; ++j) {
                if (y >= 0.0 && y <= 1.0)
                    ys.push_back(y);
                y = std::nextafter(y, 2.0);
            }
        }
    }
    for (const double y : sweep(1.0 / 1024, 3.0 / 256, 4000))
        ys.push_back(y);
    // Rows 1 to 4 at random, where ln c and log1p(r) nearly cancel
    // and the residual rl carries the last bits.
    stats::Rng rng(47);
    for (int i = 0; i < 6000; ++i)
        ys.push_back(rng.uniform(1.0 / 512, 9.0 / 512));
    // Tiny and subnormal y, where log1p(y) is y or one rounding off.
    for (int i = 0; i < 3000; ++i)
        ys.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                                -1 - static_cast<int>(rng.below(1080))));
    ys.push_back(std::numeric_limits<double>::denorm_min());
    ys.push_back(std::numeric_limits<double>::min());
    ys.push_back(0x1p-53);
    ys.push_back(std::nextafter(1.0, 0.0));
    return ys;
}

TEST(Log1pKernel, WithinOneUlpOfBigFloat)
{
    // The LSE's certificate needs 1 ulp; the kernel's own bound is
    // 0.6, which a kernel without its residual rl misses near rows 1
    // to 4 (0.77 ulp there) while still inside 1 ulp.
    double worst = 0.0;
    double worst_y = 0.0;
    for (const double y : log1pInputs()) {
        const double err = log1pUlpError(y, simd::log1pKernel(y));
        if (err > worst) {
            worst = err;
            worst_y = y;
        }
    }
    EXPECT_LE(worst, 0.6) << "at y = " << std::hexfloat << worst_y;
}

TEST(Log1pKernel, SpecialValues)
{
    EXPECT_TRUE(bitsEqual(simd::log1pKernel(0.0), 0.0));
    EXPECT_TRUE(bitsEqual(simd::log1pKernel(1.0), std::log(2.0)));
    EXPECT_TRUE(std::isnan(
        simd::log1pKernel(std::numeric_limits<double>::quiet_NaN())));
    for (const uint64_t bits :
         {0x7ff80000000001ffULL, 0xfff00000000001ffULL,
          0x7ff0000000000101ULL})
        EXPECT_TRUE(std::isnan(
            simd::log1pKernel(std::bit_cast<double>(bits))))
            << std::hex << bits;
    // log1p(y) rounds to y below 2^-53.
    for (const double y : {std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(), 0x1p-60})
        EXPECT_TRUE(bitsEqual(simd::log1pKernel(y), y)) << y;
}

TEST(Log1pKernel, EveryLaneReadsInsideTheTable)
{
    // The table row is the low 9 bits of log1pRow(y + 1.5 * 2^44):
    // i for y = i/256, and at most 256 for every y in [0, 1] and
    // every NaN, whose payload bits could otherwise name a row past
    // the table's 257 (a read no test could see).
    const auto row = [](double y) {
        using One = simd::ArrayVec<double, 1>;
        const One ys = One::broadcast(y) + One::broadcast(0x1.8p44);
        return std::bit_cast<uint64_t>(
                   simd::detail::log1pRow(ys).lane[0]) &
               0x1ff;
    };
    for (int i = 0; i <= 256; ++i)
        EXPECT_EQ(row(i / 256.0), static_cast<uint64_t>(i)) << i;
    for (const double y : {std::nextafter(1.0, 0.0), 0x1p-9, 3 * 0x1p-9,
                           std::numeric_limits<double>::denorm_min()})
        EXPECT_LE(row(y), 256U) << y;
    for (const uint64_t bits :
         {0x7ff8000000000000ULL, 0x7ff80000000001ffULL,
          0xfff00000000001ffULL, 0x7ff0000000000101ULL})
        EXPECT_EQ(row(std::bit_cast<double>(bits)), 256U)
            << std::hex << bits;
}

/** Hand-built LSE operand pairs: every rule and domain edge. */
std::vector<std::pair<double, double>>
lanePairs()
{
    const double ninf = -std::numeric_limits<double>::infinity();
    const double pinf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::pair<double, double>> pairs = {
        // -inf on either side, both, against zeros of either sign.
        {ninf, -3.5}, {-3.5, ninf}, {ninf, ninf}, {ninf, -0.0},
        {-0.0, ninf}, {ninf, 0.0}, {0.0, ninf}, {ninf, -1e300},
        // Equal operands.
        {-2.0, -2.0}, {0.0, 0.0}, {-0.0, -0.0}, {0.0, -0.0},
        {-0.0, 0.0}, {-1e300, -1e300}, {-700.25, -700.25},
        // NaN on either side, both, and against -inf or +inf.
        {nan, -1.0}, {-1.0, nan}, {nan, nan}, {nan, ninf},
        {ninf, nan}, {nan, pinf}, {pinf, nan},
        // +inf, outside the p-value domain.
        {pinf, -1.0}, {-1.0, pinf}, {pinf, ninf}, {ninf, pinf},
        {pinf, pinf},
    };
    // Differences near the exp kernel's underflow edge (-745.13) and
    // its subnormal range, in both operand orders.
    for (const double gap :
         {-745.2, -745.14, -745.1332191019412, -745.13, -744.5,
          -708.4, -708.39, -1000.0, -1e300}) {
        for (const double top : {0.0, -1.0, -12.5, 3.0}) {
            pairs.push_back({top, top + gap});
            pairs.push_back({top + gap, top});
        }
    }
    stats::Rng rng(53);
    for (int i = 0; i < 600; ++i) {
        const double a = -std::exp(rng.uniform(-30.0, 7.0));
        const double b = i % 3 == 0 ? a - rng.uniform(0.0, 2.0)
                                    : -std::exp(rng.uniform(-30.0, 7.0));
        pairs.push_back({a, b});
    }
    return pairs;
}

TEST(LaneLse, EveryIsaBitIdenticalToTheScalarLse)
{
    const auto pairs = lanePairs();
    std::vector<double> a;
    std::vector<double> b;
    for (const auto &[x, y] : pairs) {
        a.push_back(x);
        b.push_back(y);
    }
    // The scalar LSE is LogDouble's add.
    std::vector<double> want(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
        want[i] = logSumExp(a[i], b[i]);
        const LogDouble sum =
            LogDouble::fromLn(a[i]) + LogDouble::fromLn(b[i]);
        EXPECT_TRUE(bitsEqual(sum.lnValue(), want[i]) ||
                    (std::isnan(want[i]) && sum.isNaN()))
            << a[i] << " " << b[i];
    }
    const auto check = [&](const std::vector<double> &got,
                           const char *label) {
        for (size_t i = 0; i < pairs.size(); ++i) {
            if (std::isnan(want[i]))
                EXPECT_TRUE(std::isnan(got[i])) << label << " " << i;
            else
                EXPECT_TRUE(bitsEqual(got[i], want[i]))
                    << label << " a=" << a[i] << " b=" << b[i];
        }
    };
    for (const simd::Isa isa : allIsas()) {
        std::vector<double> got(pairs.size());
        simd::detail::logSumExpBatch(a, b, got, isa);
        check(got, simd::isaName(isa));
    }
    using Portable = simd::ArrayVec<double, 4>;
    std::vector<double> portable(pairs.size());
    size_t i = 0;
    for (; i + 4 <= pairs.size(); i += 4)
        simd::logSumExp(Portable::load(&a[i]), Portable::load(&b[i]))
            .store(&portable[i]);
    for (; i < pairs.size(); ++i)
        portable[i] = simd::logSumExp(a[i], b[i]);
    check(portable, "ArrayVec<double, 4>");
}

TEST(LaneLse, KeepsTheScalarRules)
{
    const double ninf = -std::numeric_limits<double>::infinity();
    for (const auto &[a, b] : lanePairs()) {
        const double got = logSumExp(a, b);
        if (a == ninf) {
            // The other operand, bit for bit (NaN stays NaN).
            EXPECT_TRUE(bitsEqual(got, b) || (std::isnan(b) &&
                                              std::isnan(got)))
                << b;
        } else if (b == ninf) {
            EXPECT_TRUE(bitsEqual(got, a) || (std::isnan(a) &&
                                              std::isnan(got)))
                << a;
        } else if (std::isnan(a) || std::isnan(b)) {
            EXPECT_TRUE(std::isnan(got)) << a << " " << b;
        } else if (std::isfinite(a) && std::isfinite(b)) {
            // log(e^a + e^b) to a few ulps, against BigFloat (a
            // term below e^-1000 cannot move the larger one).
            const double m = std::max(a, b);
            const BigFloat gap = BigFloat::fromDouble(std::min(a, b)) -
                                 BigFloat::fromDouble(m);
            const double want =
                gap.toDouble() < -1000.0
                    ? m
                    : m + BigFloat::ln(BigFloat::one() +
                                       BigFloat::exp(gap))
                              .toDouble();
            EXPECT_NEAR(got, want,
                        4 * std::numeric_limits<double>::epsilon() *
                            std::max(1.0, std::fabs(want)))
                << a << " " << b;
        }
    }
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
    // ScaledDD batches are plain-sum only: the registry keeps the
    // oracle's Neumaier sum per column. LogDouble is not Compensable:
    // both policies are its plain sum.
    constexpr bool kPlainOnly =
        std::is_same_v<T, ScaledDD> || std::is_same_v<T, LogDouble>;
    const std::vector<pbd::ColumnView> views = pbd::viewsOf(cols);
    std::vector<T> out(views.size());
    for (simd::Isa isa : allIsas()) {
        for (bool compensated : {false, true}) {
            if constexpr (kPlainOnly) {
                if (compensated)
                    continue;
                pbd::pvalueBatchSimd<T>(views, out, isa);
            } else {
                if (compensated)
                    pbd::pvalueBatchCompensatedSimd<T>(views, out, isa);
                else
                    pbd::pvalueBatchSimd<T>(views, out, isa);
            }
            for (size_t i = 0; i < views.size(); ++i) {
                const T want = oracle<T>(views[i], compensated);
                EXPECT_TRUE(bitsEqual(out[i], want))
                    << "isa=" << simd::isaName(isa)
                    << " compensated=" << compensated
                    << " column=" << i << " k=" << views[i].k
                    << " n=" << views[i].coverage()
                    << " simd=" << describe(out[i])
                    << " oracle=" << describe(want);
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

/**
 * The oracle's ragged batch: makeRaggedColumns without its nine
 * K > 600 columns (a scalar ScaledDD DP each), plus what the
 * ScaledDD tile and its dispatcher must get right on their own.
 */
std::vector<pbd::Column>
makeOracleColumns()
{
    std::vector<pbd::Column> cols = makeRaggedColumns();
    cols.resize(cols.size() - 9);
    stats::Rng rng(17);
    const auto column = [&cols](std::vector<double> probs, int k) {
        pbd::Column col;
        col.success_probs = std::move(probs);
        col.k = k;
        cols.push_back(std::move(col));
    };

    // Exact factors: p = 0 zeroes a product, p = 1 zeroes q. A
    // column of zeros has an exactly zero tail; -0.0 is a zero too.
    column({0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, 2);
    column({1.0, 0.0, 1.0, 0.25, 0.0, 1.0, -0.0, 0.5}, 3);
    column({1.0, 1.0, 1.0, 1.0}, 2);
    column({0.0, 0.1, -0.0, 0.2, 0.0, 0.3, 0.0}, 1);

    // Subnormal probabilities: ScaledDD's constructor takes libm's
    // frexp path, and the DP spans thousands of binary exponents.
    column({5e-324, 2.2e-308, 0x1p-1050, 0.3, 1e-310, 0.7}, 2);
    column({0x1.fffffffffffffp-1023, 5e-324, 5e-324, 0.5}, 1);

    // Columns at the tile's L1 cap (K = 170 tiles) and past it
    // (K = 171 and up run the scalar oracle), each a full lane
    // group.
    for (int i = 0; i < 4; ++i) {
        std::vector<double> probs(190 + i * 3);
        for (auto &p : probs)
            p = rng.uniform(0.2, 0.9);
        column(std::move(probs), 170);
    }
    for (int i = 0; i < 5; ++i) {
        std::vector<double> probs(200 + i * 7);
        for (auto &p : probs)
            p = rng.uniform(0.2, 0.9);
        column(std::move(probs), 171 + i);
    }

    // Outside [0, 1] (and NaN): the dispatcher hands these to the
    // scalar oracle, whose bits they must keep.
    column({0.2, 1.5, 0.1, 0.3}, 1);
    column({0.1, std::numeric_limits<double>::quiet_NaN(), 0.2}, 1);
    column({0.4, -0.25, 0.3, 0.2}, 2);

    // Whole 4-lane groups: with no sub-tile remainder, every column
    // the tile may take, the special values above included, runs in
    // a tile (or, past the cap, its group runs the scalar oracle).
    const auto tiled = std::count_if(
        cols.begin(), cols.end(), [](const pbd::Column &col) {
            return col.k > 0 &&
                   std::all_of(col.success_probs.begin(),
                               col.success_probs.end(),
                               [](double p) { return p >= 0.0 && p <= 1.0; });
        });
    for (auto i = tiled; i % 4 != 0; ++i)
        column({0.5, 0.25, 0.125}, 1);
    return cols;
}

TEST(SimdPbd, BatchBitIdenticalToScalarOracleScaledDD)
{
    runPbdBatchAgainstOracle<ScaledDD>(makeOracleColumns());
}

TEST(SimdPbd, BatchBitIdenticalToScalarOracleLog)
{
    // The oracle's batch (ragged K, K <= 0, K > N, empty columns,
    // exact 0/1 and subnormal probabilities, out-of-domain and NaN
    // columns for the scalar kernel) plus whole 4-lane groups at the
    // `log` tile's cap (K = 16, a tile) and past it (K = 17, the row
    // kernel).
    std::vector<pbd::Column> cols = makeOracleColumns();
    // Out of the domain and telling: q = ln(1 - 1.5) is NaN, which
    // the scalar multiply absorbs against a zero row (its zero test)
    // and a lane add does not, so only the scalar kernel gives this
    // column's finite p-value.
    cols.push_back({{1.5, 0.5}, 2});
    stats::Rng rng(29);
    for (const int k : {16, 17}) {
        for (int i = 0; i < 4; ++i) {
            pbd::Column col;
            col.success_probs.resize(40 + i * 9);
            for (auto &p : col.success_probs)
                p = rng.uniform(0.05, 0.6);
            col.k = k;
            cols.push_back(std::move(col));
        }
    }
    runPbdBatchAgainstOracle<LogDouble>(cols);
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

/**
 * A lanes tile (ScaledDD or `log`) called directly, one 4-lane group
 * at a time: ragged K (the ungated tail), shared K, and lanes that
 * the batch dispatcher would never hand it (K <= 0, K > N, an empty
 * column, K past the tile's cap). `log` also runs its row kernel on
 * every lane.
 */
template <typename T>
void
runPortableLanesTileAgainstOracle()
{
    constexpr int W = 4;
    stats::Rng rng(23);
    const auto random = [&rng](size_t n, double lo, double hi) {
        std::vector<double> probs(n);
        for (auto &p : probs)
            p = rng.uniform(lo, hi);
        return probs;
    };
    struct Lane
    {
        std::vector<double> probs;
        int k;
    };
    const std::vector<std::array<Lane, W>> groups = {
        {{{random(20, 1e-5, 0.3), 2},
          {random(27, 1e-5, 0.3), 5},
          {random(34, 1e-5, 0.3), 8},
          {random(41, 1e-5, 0.3), 11}}},
        {{{random(30, 1e-5, 0.3), 6},
          {random(31, 1e-5, 0.3), 6},
          {random(32, 1e-5, 0.3), 6},
          {random(33, 1e-5, 0.3), 6}}},
        {{{random(12, 1e-5, 0.3), 4},
          {random(15, 1e-5, 0.3), 0},
          {random(18, 1e-5, 0.3), -2},
          {random(21, 1e-5, 0.3), 4}}},
        {{{random(10, 0.01, 0.2), 15},
          {{}, 3},
          {{}, 0},
          {random(9, 0.01, 0.2), 2}}},
        {{{{0.0, 1.0, 0.0, 0.5, 1.0, 0.0}, 2},
          {{5e-324, 0.5, 2.2e-308, 1e-300, 0.25}, 2},
          {{1.0, 1.0, 1.0}, 3},
          {{0.0, 0.0, 0.0, 0.0}, 1}}},
        {{{random(200, 0.3, 0.8), 180},
          {random(150, 0.3, 0.8), 171},
          {random(190, 0.3, 0.8), 175},
          {random(220, 0.05, 0.8), 3}}},
        // Long enough to cross the transposition's step blocks.
        {{{random(300, 0.01, 0.5), 9},
          {random(64, 0.01, 0.5), 9},
          {random(129, 0.01, 0.5), 4},
          {random(65, 0.01, 0.5), 1}}},
    };
    for (size_t g = 0; g < groups.size(); ++g) {
        std::vector<pbd::ColumnView> views;
        for (const Lane &lane : groups[g])
            views.push_back({lane.probs, lane.k});
        T out[W];
        pbd::detail::pvalueTilePortable(views.data(), out);
        for (int c = 0; c < W; ++c) {
            const T want = oracle<T>(views[c], false);
            EXPECT_TRUE(bitsEqual(out[c], want))
                << "group=" << g << " lane=" << c << " k=" << views[c].k
                << " tile=" << describe(out[c])
                << " oracle=" << describe(want);
            if constexpr (std::is_same_v<T, LogDouble>) {
                T row_out;
                pbd::detail::pvalueColumnRowsPortable(views[c], &row_out);
                EXPECT_TRUE(bitsEqual(row_out, want))
                    << "row kernel: group=" << g << " lane=" << c
                    << " k=" << views[c].k
                    << " rows=" << describe(row_out)
                    << " oracle=" << describe(want);
            }
        }
    }
}

TEST(SimdPbd, PortableTileMatchesOracleScaledDD)
{
    runPortableLanesTileAgainstOracle<ScaledDD>();
}

TEST(SimdPbd, PortableTileMatchesOracleLog)
{
    runPortableLanesTileAgainstOracle<LogDouble>();
}

// ---------------------------------------------------------------------------
// The ScaledDD lane operators of the oracle tile
// ---------------------------------------------------------------------------

using OracleLanes = pbd::detail::ScaledDDLanes<simd::ArrayVec<double, 4>>;

/** A ScaledDD with exactly these fields (no renormalize). */
ScaledDD
scaledOf(double hi, double lo, int64_t exp2)
{
    ScaledDD v;
    v.mant = DD(hi, lo);
    v.exp2 = exp2;
    return v;
}

/** a[op]b per lane against ScaledDD's own operator, field by field. */
void
checkLaneOps(const std::vector<std::pair<ScaledDD, ScaledDD>> &pairs)
{
    constexpr int W = OracleLanes::width;
    for (size_t first = 0; first < pairs.size(); first += W) {
        OracleLanes a = OracleLanes::zero();
        OracleLanes b = OracleLanes::zero();
        for (int c = 0; c < W && first + c < pairs.size(); ++c) {
            const auto &[x, y] = pairs[first + c];
            a.hi.lane[c] = x.mant.hi;
            a.lo.lane[c] = x.mant.lo;
            a.exp.lane[c] = static_cast<double>(x.exp2);
            b.hi.lane[c] = y.mant.hi;
            b.lo.lane[c] = y.mant.lo;
            b.exp.lane[c] = static_cast<double>(y.exp2);
        }
        const OracleLanes prod = a * OracleLanes::factor(b);
        const OracleLanes sum = a + b;
        for (int c = 0; c < W && first + c < pairs.size(); ++c) {
            const auto &[x, y] = pairs[first + c];
            const auto lane = [c](const OracleLanes &v) {
                return scaledOf(v.hi.lane[c], v.lo.lane[c],
                                static_cast<int64_t>(v.exp.lane[c]));
            };
            EXPECT_TRUE(bitsEqual(lane(prod), x * y))
                << describe(x) << " * " << describe(y) << ": lanes "
                << describe(lane(prod)) << ", scalar "
                << describe(x * y);
            EXPECT_TRUE(bitsEqual(lane(sum), x + y))
                << describe(x) << " + " << describe(y) << ": lanes "
                << describe(lane(sum)) << ", scalar "
                << describe(x + y);
        }
    }
}

TEST(SimdPbd, ScaledDdLanesMatchScalarOperators)
{
    const ScaledDD zero = ScaledDD::zero();
    const ScaledDD x = scaledOf(0.75, 0x1p-56, -10);
    const ScaledDD y = scaledOf(0.625, -0x1p-57, -3);
    std::vector<std::pair<ScaledDD, ScaledDD>> pairs = {
        // A zero operand, either side, and both.
        {zero, x}, {x, zero}, {zero, zero}, {zero, y},
    };

    // Exponent gaps 0, 1, 120 and 121, the bigger exponent either
    // side (a tie goes to the left operand).
    for (const int64_t gap : {0, 1, 2, 119, 120, 121, 122, 500}) {
        const ScaledDD small = scaledOf(0x1.fedcba9876543p-1,
                                        0x1.3p-55, -10 - gap);
        pairs.emplace_back(x, small);
        pairs.emplace_back(small, x);
    }

    // lo at +-ulp(hi)/2, at both ends of the mantissa range.
    const double top = std::nextafter(1.0, 0.0); // 1 - 2^-53
    const std::vector<ScaledDD> edges = {
        scaledOf(0.5, -0x1p-55, 0),  scaledOf(0.5, 0x1p-54, 0),
        scaledOf(top, 0x1p-54, 0),   scaledOf(top, -0x1p-54, 0),
        scaledOf(0.75, 0x1p-54, 0),  scaledOf(0.75, -0x1p-54, 0),
        scaledOf(0.5, 0.0, 0),       scaledOf(0.5, 5e-324, -1),
    };
    for (const ScaledDD &a : edges) {
        for (const ScaledDD &b : edges)
            pairs.emplace_back(a, b);
    }

    // A sum that rounds up to exactly 2.0: (1 - 2^-53) + (1 - 2^-53)
    // is 2 - 2^-52, and the los' 2^-53 ties it to even.
    pairs.emplace_back(scaledOf(top, 0x1p-54, 7), scaledOf(top, 0x1p-54, 7));
    // Products near 0.25: exactly 0.25, and one step below it.
    pairs.emplace_back(scaledOf(0.5, 0.0, 3), scaledOf(0.5, 0.0, -9));
    pairs.emplace_back(scaledOf(0.5, -0x1p-55, 3),
                       scaledOf(0.5, -0x1p-55, -9));

    // Values the DP forms: products and sums of probabilities.
    stats::Rng rng(37);
    for (int i = 0; i < 400; ++i) {
        const double p = rng.chance(0.2) ? std::ldexp(rng.uniform(),
                                                      -1070)
                                         : rng.uniform(1e-9, 1.0);
        ScaledDD a(p);
        ScaledDD b(1.0 - rng.uniform(0.0, 0.5));
        for (int j = 0; j < static_cast<int>(rng.below(6)); ++j) {
            a = a * ScaledDD(rng.uniform(0.01, 1.0)) + b;
            b = b * ScaledDD(rng.uniform(1e-6, 1.0));
        }
        pairs.emplace_back(a, b);
    }
    checkLaneOps(pairs);
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
    // On AVX2 the four K > 0 columns, K = {40, 1, 1} and the empty
    // K = 1 one, make one ragged-K 4-lane tile: the binary64 and the
    // scaled_dd oracle tile each run it.
    ASSERT_EQ(std::count_if(views.begin(), views.end(),
                            [](const pbd::ColumnView &v) {
                                return v.k > 0;
                            }),
              4);

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
