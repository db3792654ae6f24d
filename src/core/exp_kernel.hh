/**
 * @file
 * The in-house exp of the n-ary log-sum-exp: exp(x) for x in
 * [-inf, 0] or NaN, written once over the core/simd.hh vector
 * wrappers (as pbd/read_pass.hh is), so the scalar and the vector
 * code run it verbatim.
 *
 * Every step is a lane-wise add, subtract, multiply, min, max, table
 * gather or bit shift, so each lane performs the same IEEE
 * operations on every backend: expKernel(double) (the
 * ArrayVec<double, 1> instantiation, the exp of logSumExp(span) in
 * core/logspace.hh) and the AVX2 instantiation in
 * hmm::forwardLogNarySimd's state tile return the same bits, and the
 * tile stays bit-identical to its scalar oracle, hmm::forwardLogNary.
 * No step branches, and none may fuse into an FMA
 * (-ffp-contract=off project-wide).
 *
 * Method (the table-driven reduction of the glibc and Arm exp):
 * k = round(64 x / ln 2) = 64 e + j with j in [-32, 32], and
 *     exp(x) = 2^e * 2^(j/64) * e^r,   r = x - k ln2/64, |r| <= ln2/128.
 * 2^(j/64) is a table entry plus a relative tail, e^r - 1 is its
 * Taylor polynomial to degree 6 (truncation below 2^-64), and the
 * result is scale + scale * (tail + e^r - 1), one rounding of a value
 * already within about 0.01 ulp. The error stays within 1 ulp over
 * the whole domain, subnormal results included; the tests hold it to
 * that against BigFloat::exp.
 *
 * Special values: exp(-inf) = +0, exp(+-0) = 1, NaN stays NaN.
 * Positive arguments are outside the domain (the LSE never forms
 * them): they evaluate as 0 and return 1.
 */

#ifndef PSTAT_CORE_EXP_KERNEL_HH
#define PSTAT_CORE_EXP_KERNEL_HH

#include <cstddef>
#include <span>
#include <type_traits>

#include "core/simd.hh"

namespace pstat::simd
{

namespace detail
{

/** 2^((i - 32) / 64) rounded to nearest, i = 0..64. */
inline constexpr double exp_table_hi[65] = {
    0x1.6a09e667f3bcdp-1, 0x1.6dfb23c651a2fp-1,
    0x1.71f75e8ec5f74p-1, 0x1.75feb564267c9p-1,
    0x1.7a11473eb0187p-1, 0x1.7e2f336cf4e62p-1,
    0x1.82589994cce13p-1, 0x1.868d99b4492edp-1,
    0x1.8ace5422aa0dbp-1, 0x1.8f1ae99157736p-1,
    0x1.93737b0cdc5e5p-1, 0x1.97d829fde4e50p-1,
    0x1.9c49182a3f090p-1, 0x1.a0c667b5de565p-1,
    0x1.a5503b23e255dp-1, 0x1.a9e6b5579fdbfp-1,
    0x1.ae89f995ad3adp-1, 0x1.b33a2b84f15fbp-1,
    0x1.b7f76f2fb5e47p-1, 0x1.bcc1e904bc1d2p-1,
    0x1.c199bdd85529cp-1, 0x1.c67f12e57d14bp-1,
    0x1.cb720dcef9069p-1, 0x1.d072d4a07897cp-1,
    0x1.d5818dcfba487p-1, 0x1.da9e603db3285p-1,
    0x1.dfc97337b9b5fp-1, 0x1.e502ee78b3ff6p-1,
    0x1.ea4afa2a490dap-1, 0x1.efa1bee615a27p-1,
    0x1.f50765b6e4540p-1, 0x1.fa7c1819e90d8p-1,
    0x1.0000000000000p+0, 0x1.02c9a3e778061p+0,
    0x1.059b0d3158574p+0, 0x1.0874518759bc8p+0,
    0x1.0b5586cf9890fp+0, 0x1.0e3ec32d3d1a2p+0,
    0x1.11301d0125b51p+0, 0x1.1429aaea92de0p+0,
    0x1.172b83c7d517bp+0, 0x1.1a35beb6fcb75p+0,
    0x1.1d4873168b9aap+0, 0x1.2063b88628cd6p+0,
    0x1.2387a6e756238p+0, 0x1.26b4565e27cddp+0,
    0x1.29e9df51fdee1p+0, 0x1.2d285a6e4030bp+0,
    0x1.306fe0a31b715p+0, 0x1.33c08b26416ffp+0,
    0x1.371a7373aa9cbp+0, 0x1.3a7db34e59ff7p+0,
    0x1.3dea64c123422p+0, 0x1.4160a21f72e2ap+0,
    0x1.44e086061892dp+0, 0x1.486a2b5c13cd0p+0,
    0x1.4bfdad5362a27p+0, 0x1.4f9b2769d2ca7p+0,
    0x1.5342b569d4f82p+0, 0x1.56f4736b527dap+0,
    0x1.5ab07dd485429p+0, 0x1.5e76f15ad2148p+0,
    0x1.6247eb03a5585p+0, 0x1.6623882552225p+0,
    0x1.6a09e667f3bcdp+0
};

/** (2^((i - 32) / 64) - exp_table_hi[i]) / exp_table_hi[i], rounded. */
inline constexpr double exp_table_tail[65] = {
    -0x1.3b3efbf5e2228p-54, -0x1.367efb86da9eep-57,
    -0x1.81f647e5a3ecfp-56, -0x1.619321e55e68ap-55,
    -0x1.b32dcb94da51dp-56, 0x1.5ebe1abd66c55p-57,
    -0x1.369b6f13b3734p-54, -0x1.4d450d872576ep-54,
    0x1.db72fc1f0eab4p-55, 0x1.bf68359f35f44p-56,
    -0x1.da9b88b6c1e29p-58, -0x1.2434322f4f9aap-54,
    0x1.1affc2b91ce27p-56, -0x1.7c50422622263p-55,
    -0x1.1bbd1d3bcbb15p-54, 0x1.469846e735ab3p-55,
    0x1.c1a7792cb3387p-55, -0x1.5c3d956dcaebap-58,
    -0x1.8d6f438ad9334p-57, 0x1.4ffd70a5fddcdp-56,
    0x1.36eae30af0cb3p-56, 0x1.4e08fd10959acp-55,
    0x1.76b2c6c921968p-57, -0x1.fad5d3ffffa6fp-55,
    0x1.4a385a63d07a7p-56, 0x1.e5a50d5c192acp-55,
    -0x1.2d52107b43e1fp-55, 0x1.4b604603a88d3p-56,
    -0x1.ff7128fd391f0p-55, 0x1.ec3bc41aa2008p-55,
    0x1.a64a931d185eep-55, 0x1.7893b4d91cd9dp-56,
    0x0.0p+0, -0x1.160139cd8dc5dp-56,
    0x1.cd2523567f613p-55, 0x1.0f74e61e6c861p-57,
    0x1.79aa65d837b6dp-54, 0x1.ebe3d702f9cd1p-60,
    -0x1.556522a2fbd0ep-54, -0x1.1c923b9d5f416p-54,
    -0x1.01b15eaa59348p-55, 0x1.b898c3f1353bfp-55,
    0x1.aecf73e3a2f60p-54, 0x1.a6f4144a6c38dp-55,
    0x1.68efde3a8a894p-54, 0x1.0472b981fe7f2p-55,
    0x1.2f7e16d09ab31p-55, 0x1.b3782720c0ab4p-55,
    0x1.34d754db0abb6p-55, 0x1.fdd395dd3f84ap-55,
    -0x1.24aedcc4b5068p-54, -0x1.1d1e83e9436d2p-56,
    0x1.59f48a72a4c6dp-55, -0x1.8a78f4817895bp-58,
    0x1.363ed60c2ac11p-59, 0x1.ecce1daa10379p-57,
    0x1.690cebb7aafb0p-56, -0x1.f94340071a38ep-55,
    -0x1.8dec6bd0f385fp-56, 0x1.3350518fdd78ep-54,
    0x1.063e1e21c5409p-54, 0x1.432e62b64c035p-54,
    -0x1.c33c53bef4da8p-55, -0x1.3cedd78565858p-54,
    -0x1.3b3efbf5e2228p-54
};

/**
 * expKernel over a span on the given ISA, out[i] = exp(x[i]): the
 * ISA sweep of the tests and of bench_micro_ops (simd.cc).
 */
void expKernelBatch(std::span<const double> x, std::span<double> out,
                    Isa isa);

/**
 * The AVX2 instantiation over the whole 4-lane vectors of x
 * (simd_avx2.cc, built with -mavx2); returns how many leading
 * elements it wrote.
 */
size_t expKernelBatchAvx2(std::span<const double> x,
                          std::span<double> out);

} // namespace detail

/**
 * exp(x) per lane, for lanes in [-inf, 0] or NaN; Vec is a simd.hh
 * double wrapper.
 */
template <typename Vec>
Vec
expKernel(const Vec &x)
{
    static_assert(std::is_same_v<typename Vec::Scalar, double>,
                  "expKernel is a binary64 kernel");
    // x is clamped to [-1000, 0]. Every x below -1000 (far under the
    // underflow edge, -745.13) evaluates as -1000, whose exp rounds
    // to +0: -inf is just such an x, and k stays small enough for
    // the reduction below. A positive x evaluates as 0, so no
    // argument can index outside the table. NaN stays NaN: min and
    // max return their second operand when either is NaN.
    const Vec xc = Vec::max(Vec::broadcast(-1000.0),
                            Vec::min(Vec::broadcastZero(), x));

    // k = round(64 x / ln 2) by the 1.5 * 2^52 shifter, then
    // k = 64 e + j with e = round(k / 64). All three are exact
    // integers in binary64.
    const Vec shifter = Vec::broadcast(0x1.8p52);
    const Vec kd =
        (xc * Vec::broadcast(0x1.71547652b82fep+6) + shifter) - shifter;
    const Vec ed = (kd * Vec::broadcast(0x1p-6) + shifter) - shifter;
    const Vec jd = kd - ed * Vec::broadcast(64.0);

    // r = x - k ln2/64 with ln2/64 split hi + lo: hi has 36
    // significant bits, so k * hi (|k| < 2^17) and x - k * hi are
    // exact, and r is rounded once.
    const Vec r = (xc - kd * Vec::broadcast(0x1.62e42fefa0000p-7)) -
                  kd * Vec::broadcast(0x1.cf79abc9e3b3ap-46);

    // The table row is j + 32 in [0, 64]; min maps a NaN lane to row
    // 64, so every lane reads inside the table.
    const Vec row =
        Vec::min(jd + Vec::broadcast(32.0), Vec::broadcast(64.0));
    const Vec hi = Vec::gather(detail::exp_table_hi, row);
    const Vec tail = Vec::gather(detail::exp_table_tail, row);

    // tail + (e^r - 1), with e^r - 1 = r + r^2 (1/2 + r/6)
    //     + r^4 ((1/24 + r/120) + r^2/720).
    const Vec r2 = r * r;
    const Vec q1 =
        Vec::broadcast(1.0 / 2) + r * Vec::broadcast(1.0 / 6);
    const Vec q2 =
        (Vec::broadcast(1.0 / 24) + r * Vec::broadcast(1.0 / 120)) +
        r2 * Vec::broadcast(1.0 / 720);
    const Vec poly = (tail + r) + (r2 * q1 + (r2 * r2) * q2);

    // 2^e in two factors. 2^(e + 1000) is normal for every e the
    // clamp allows (e >= -1443): its biased exponent e + 2023 is
    // placed by adding it to 2^52, whose low mantissa bits it then
    // fills, and shifting those bits into the exponent field. The
    // product with 2^-1000 is exact for normal results and rounds a
    // subnormal one exactly once.
    const Vec scale =
        hi * (ed + Vec::broadcast(0x1p52 + 2023.0)).template
                 shiftBitsLeft<52>();
    return (scale + scale * poly) * Vec::broadcast(0x1p-1000);
}

/** exp(x) for x in [-inf, 0] or NaN: the one-lane expKernel. */
inline double
expKernel(double x)
{
    return expKernel(ArrayVec<double, 1>{{x}}).lane[0];
}

} // namespace pstat::simd

#endif // PSTAT_CORE_EXP_KERNEL_HH
