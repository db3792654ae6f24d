/**
 * @file
 * Google-benchmark microbenchmarks of the software scalar operations
 * underlying every experiment. Context for Section IV-B's remark
 * that "software-emulated posit is too slow for practical use": the
 * gap between hardware-native binary64 and software posit/LSE is
 * visible directly in these throughput numbers.
 */

#include <benchmark/benchmark.h>

#include "bigfloat/bigfloat.hh"
#include "core/dd.hh"
#include "core/exp_kernel.hh"
#include "core/logspace.hh"
#include "core/posit.hh"
#include "core/simd.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "pbd/pbd_simd.hh"
#include "stats/rng.hh"

namespace
{

using namespace pstat;

constexpr int pool_size = 1024;

template <typename T, typename Make>
std::vector<T>
makePool(Make make)
{
    stats::Rng rng(123);
    std::vector<T> pool;
    pool.reserve(pool_size);
    for (int i = 0; i < pool_size; ++i)
        pool.push_back(make(rng.uniform(1e-6, 1.0)));
    return pool;
}

void
BM_Binary64Add(benchmark::State &state)
{
    auto pool = makePool<double>([](double v) { return v; });
    size_t i = 0;
    double acc = 0.0;
    for (auto _ : state) {
        acc += pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_Binary64Add);

void
BM_Binary64Mul(benchmark::State &state)
{
    auto pool = makePool<double>([](double v) { return v + 0.5; });
    size_t i = 0;
    double acc = 1.0;
    for (auto _ : state) {
        acc *= pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_Binary64Mul);

void
BM_LogSpaceAddLse(benchmark::State &state)
{
    auto pool = makePool<LogDouble>(
        [](double v) { return LogDouble::fromDouble(v); });
    size_t i = 0;
    LogDouble acc = LogDouble::zero();
    for (auto _ : state) {
        acc = acc + pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_LogSpaceAddLse);

void
BM_LogSpaceMul(benchmark::State &state)
{
    auto pool = makePool<LogDouble>(
        [](double v) { return LogDouble::fromDouble(v); });
    size_t i = 0;
    LogDouble acc = LogDouble::one();
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_LogSpaceMul);

template <int ES>
void
BM_PositAdd(benchmark::State &state)
{
    using P = Posit<64, ES>;
    auto pool =
        makePool<P>([](double v) { return P::fromDouble(v); });
    size_t i = 0;
    P acc = P::zero();
    for (auto _ : state) {
        acc = acc + pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_PositAdd<9>);
BENCHMARK(BM_PositAdd<12>);
BENCHMARK(BM_PositAdd<18>);

template <int ES>
void
BM_PositMul(benchmark::State &state)
{
    using P = Posit<64, ES>;
    auto pool =
        makePool<P>([](double v) { return P::fromDouble(v + 0.5); });
    size_t i = 0;
    P acc = P::one();
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_PositMul<9>);
BENCHMARK(BM_PositMul<18>);

void
BM_ScaledDdMul(benchmark::State &state)
{
    auto pool =
        makePool<ScaledDD>([](double v) { return ScaledDD(v); });
    size_t i = 0;
    ScaledDD acc = ScaledDD::one();
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ScaledDdMul);

void
BM_BigFloatMul(benchmark::State &state)
{
    auto pool = makePool<BigFloat>(
        [](double v) { return BigFloat::fromDouble(v + 0.5); });
    size_t i = 0;
    BigFloat acc = BigFloat::one();
    for (auto _ : state) {
        acc = acc * pool[i % pool_size];
        ++i;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_BigFloatMul);

void
BM_BigFloatLn(benchmark::State &state)
{
    auto pool = makePool<BigFloat>(
        [](double v) { return BigFloat::fromDouble(v + 1e-6); });
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(BigFloat::ln(pool[i % pool_size]));
        ++i;
    }
}
BENCHMARK(BM_BigFloatLn);

// ---------------------------------------------------------------------------
// SIMD batch kernels vs their scalar oracles (fig15's design point,
// here in Google-benchmark form for quick interactive comparison).
// ---------------------------------------------------------------------------

/** The fig15 allele-fraction-threshold scan at micro-bench size. */
const pbd::ColumnDataset &
scanDataset()
{
    static const pbd::ColumnDataset ds = [] {
        pbd::DatasetConfig config;
        config.num_columns = 512;
        config.median_coverage = 120.0;
        config.coverage_sigma = 0.4;
        config.seed = 1501;
        return pbd::makeScanDataset(config, 0.05, "micro_af_scan");
    }();
    return ds;
}

template <typename T>
void
BM_PbdBatchScalar(benchmark::State &state)
{
    const auto views = pbd::viewsOf(scanDataset().columns);
    std::vector<T> out(views.size());
    for (auto _ : state) {
        pbd::pvalueBatchSimd<T>(views, out, simd::Isa::Scalar);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(views.size()));
}
BENCHMARK(BM_PbdBatchScalar<double>);
BENCHMARK(BM_PbdBatchScalar<float>);

template <typename T>
void
BM_PbdBatchSimd(benchmark::State &state)
{
    const auto views = pbd::viewsOf(scanDataset().columns);
    std::vector<T> out(views.size());
    const simd::Isa isa = simd::activeIsa();
    for (auto _ : state) {
        pbd::pvalueBatchSimd<T>(views, out, isa);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(views.size()));
    state.SetLabel(simd::isaName(isa));
}
BENCHMARK(BM_PbdBatchSimd<double>);
BENCHMARK(BM_PbdBatchSimd<float>);

void
BM_LogSumExpNaryScalar(benchmark::State &state)
{
    auto pool = makePool<double>(
        [](double v) { return std::log(v); });
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            logSumExp(std::span<const double>(pool)));
    }
    state.SetItemsProcessed(state.iterations() * pool_size);
}
BENCHMARK(BM_LogSumExpNaryScalar);

/** Arguments of the n-ary LSE's exps: v - max, in [-40, 0]. */
std::vector<double>
expArguments()
{
    return makePool<double>([](double v) { return 40.0 * (v - 1.0); });
}

void
BM_ExpLibm(benchmark::State &state)
{
    const auto pool = expArguments();
    std::vector<double> out(pool.size());
    for (auto _ : state) {
        for (size_t i = 0; i < pool.size(); ++i)
            out[i] = std::exp(pool[i]);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * pool_size);
}
BENCHMARK(BM_ExpLibm);

/** The in-house exp over the pool on one ISA (Scalar: one lane). */
void
BM_ExpKernel(benchmark::State &state, simd::Isa isa)
{
    const auto pool = expArguments();
    std::vector<double> out(pool.size());
    for (auto _ : state) {
        simd::detail::expKernelBatch(pool, out, isa);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * pool_size);
    state.SetLabel(simd::isaName(isa));
}
BENCHMARK_CAPTURE(BM_ExpKernel, scalar, simd::Isa::Scalar);
BENCHMARK_CAPTURE(BM_ExpKernel, active, simd::activeIsa());

} // namespace

BENCHMARK_MAIN();
