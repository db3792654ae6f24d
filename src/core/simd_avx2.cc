/**
 * @file
 * AVX2 instantiations of the in-house exp and of the lane LSE
 * (core/exp_kernel.hh). This translation unit is compiled with
 * -mavx2 (see CMakeLists); nothing in it may be called unless
 * isaSupported(Isa::Avx2) said yes at runtime.
 */

#include "core/exp_kernel.hh"
#include "core/simd.hh"

namespace pstat::simd::detail
{

size_t
expKernelBatchAvx2(std::span<const double> x, std::span<double> out)
{
    constexpr size_t W = Avx2DoubleVec::width;
    size_t i = 0;
    for (; i + W <= x.size(); i += W)
        expKernel(Avx2DoubleVec::load(&x[i])).store(&out[i]);
    return i;
}

size_t
logSumExpBatchAvx2(std::span<const double> a, std::span<const double> b,
                   std::span<double> out)
{
    constexpr size_t W = Avx2DoubleVec::width;
    size_t i = 0;
    for (; i + W <= a.size(); i += W)
        logSumExp(Avx2DoubleVec::load(&a[i]), Avx2DoubleVec::load(&b[i]))
            .store(&out[i]);
    return i;
}

} // namespace pstat::simd::detail
