/**
 * @file
 * The forward passes with the state loop vectorized, templated over a
 * simd.hh vector wrapper. Included by the baseline and per-ISA
 * translation units (forward_simd.cc, forward_simd_avx2.cc); not
 * part of the public API — use hmm::forwardSimd and
 * hmm::forwardLogNarySimd.
 *
 * Vectorization is across destination states q within one sequence:
 * each lane carries one q, and the inner loop runs p sequentially
 * with alpha_prev[p] broadcast, so each lane performs exactly the
 * scalar kernel's operation sequence for its q. The transition matrix
 * is already row-major in p with q contiguous, so the vector loads
 * are natural; the emission matrix is transposed once (bT[ot*H + q])
 * to make the per-step b column contiguous too (an exact copy).
 * Leftover states (H not a lane multiple) run the scalar loop.
 * Bit-identity with the scalar oracles therefore holds for every
 * state count, and the tests enforce it.
 *
 *  - forwardTileImpl is forward<T>(Reduction::Sequential), T the
 *    lane type (binary64 or binary32):
 *        path[q] = ((0 + a_0q*ap_0) + a_1q*ap_1) + ...
 *  - forwardLogNaryTileImpl is forwardLogNary (Listing 3, binary64
 *    log values). Per lane, the path sum is the scalar loop's n-ary
 *    LSE over the terms ap_p + ln a_pq: the max pass over p, the sum
 *    of simd::expKernel(term - max) over p, then max + std::log(sum),
 *    and -inf when every term is -inf. The exp is the same kernel
 *    logSumExp(span) runs, which is what makes the lanes bit-exact.
 */

#ifndef PSTAT_HMM_FORWARD_SIMD_TILE_HH
#define PSTAT_HMM_FORWARD_SIMD_TILE_HH

#include <cmath>
#include <span>
#include <type_traits>
#include <vector>

#include "core/exp_kernel.hh"
#include "core/logspace.hh"
#include "core/real_traits.hh"
#include "hmm/forward.hh"
#include "hmm/model.hh"

namespace pstat::hmm::detail
{

/** forward<T>(Sequential) with the q loop in Vec-width lanes. */
template <typename Vec>
ForwardOutcome<typename Vec::Scalar>
forwardTileImpl(const Model &model, std::span<const int> obs)
{
    using T = typename Vec::Scalar;
    using RT = pstat::RealTraits<T>;
    constexpr int W = Vec::width;
    const int h = model.num_states;
    ForwardOutcome<T> out;
    if (obs.empty())
        return out;

    // Convert inputs once, exactly as forward<T> does.
    std::vector<T> a(static_cast<size_t>(h) * h);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = RT::fromDouble(model.a[i]);
    std::vector<T> b(model.b.size());
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = RT::fromDouble(model.b[i]);
    // bT[s * H + q] = b[q * S + s]: the per-step emission column,
    // contiguous in q (an exact copy, so values are unchanged).
    std::vector<T> bt(model.b.size());
    for (int q = 0; q < h; ++q) {
        for (int s = 0; s < model.num_symbols; ++s)
            bt[static_cast<size_t>(s) * h + q] =
                b[static_cast<size_t>(q) * model.num_symbols + s];
    }

    std::vector<T> alpha(h);
    std::vector<T> alpha_prev(h);
    for (int q = 0; q < h; ++q) {
        alpha_prev[q] =
            RT::fromDouble(model.pi[q]) *
            b[static_cast<size_t>(q) * model.num_symbols + obs[0]];
    }

    const int wfull = h - h % W;
    for (size_t t = 1; t < obs.size(); ++t) {
        const int ot = obs[t];
        const T *brow = &bt[static_cast<size_t>(ot) * h];
        int q0 = 0;
        for (; q0 < wfull; q0 += W) {
            Vec path = Vec::broadcastZero();
            for (int p = 0; p < h; ++p) {
                path = path +
                       Vec::broadcast(alpha_prev[p]) *
                           Vec::load(&a[static_cast<size_t>(p) * h +
                                        q0]);
            }
            (path * Vec::load(brow + q0)).store(&alpha[q0]);
        }
        for (int q = q0; q < h; ++q) {
            T path_sum = RT::zero();
            for (int p = 0; p < h; ++p) {
                path_sum = path_sum +
                           alpha_prev[p] *
                               a[static_cast<size_t>(p) * h + q];
            }
            alpha[q] = path_sum * brow[q];
        }
        std::swap(alpha, alpha_prev);

        if (out.first_underflow_step < 0) {
            bool all_zero = true;
            for (int q = 0; q < h; ++q)
                all_zero = all_zero && RT::isZero(alpha_prev[q]);
            if (all_zero)
                out.first_underflow_step = static_cast<int>(t);
        }
    }

    T total = RT::zero();
    for (int q = 0; q < h; ++q)
        total = total + alpha_prev[q];
    out.likelihood = total;
    return out;
}

/** forwardLogNary with the q loop in Vec-width lanes (binary64). */
template <typename Vec>
ForwardOutcome<LogDouble>
forwardLogNaryTileImpl(const Model &model, std::span<const int> obs)
{
    static_assert(std::is_same_v<typename Vec::Scalar, double>,
                  "the log-space tile carries binary64 log values");
    constexpr int W = Vec::width;
    const int h = model.num_states;
    const int s = model.num_symbols;
    ForwardOutcome<LogDouble> out;
    if (obs.empty())
        return out;

    // The logarithms forwardLogNary takes, with ln B transposed:
    // ln_bt[o * H + q] = ln b[q][o].
    std::vector<double> ln_a(model.a.size());
    for (size_t i = 0; i < ln_a.size(); ++i)
        ln_a[i] = std::log(model.a[i]);
    std::vector<double> ln_bt(model.b.size());
    for (int q = 0; q < h; ++q) {
        for (int o = 0; o < s; ++o)
            ln_bt[static_cast<size_t>(o) * h + q] =
                std::log(model.b[static_cast<size_t>(q) * s + o]);
    }

    std::vector<double> alpha(h);
    std::vector<double> alpha_prev(h);
    std::vector<double> terms(h);
    for (int q = 0; q < h; ++q) {
        alpha_prev[q] = std::log(model.pi[q]) +
                        ln_bt[static_cast<size_t>(obs[0]) * h + q];
    }

    const int wfull = h - h % W;
    for (size_t t = 1; t < obs.size(); ++t) {
        const double *ln_bo = &ln_bt[static_cast<size_t>(obs[t]) * h];
        int q0 = 0;
        for (; q0 < wfull; q0 += W) {
            const auto term = [&](int p) {
                return Vec::broadcast(alpha_prev[p]) +
                       Vec::load(&ln_a[static_cast<size_t>(p) * h + q0]);
            };
            Vec m = Vec::broadcast(-INFINITY);
            for (int p = 0; p < h; ++p) {
                const Vec v = term(p);
                m = Vec::select(Vec::lessThan(m, v), v, m);
            }
            Vec sum = Vec::broadcastZero();
            for (int p = 0; p < h; ++p)
                sum = sum + simd::expKernel(term(p) - m);
            double ms[W];
            double ss[W];
            m.store(ms);
            sum.store(ss);
            for (int j = 0; j < W; ++j) {
                const double path = std::isinf(ms[j]) && ms[j] < 0
                                        ? ms[j]
                                        : ms[j] + std::log(ss[j]);
                alpha[q0 + j] = path + ln_bo[q0 + j];
            }
        }
        for (int q = q0; q < h; ++q) {
            for (int p = 0; p < h; ++p) {
                terms[p] = alpha_prev[p] +
                           ln_a[static_cast<size_t>(p) * h + q];
            }
            alpha[q] = logSumExp(std::span<const double>(terms)) +
                       ln_bo[q];
        }
        std::swap(alpha, alpha_prev);
    }

    out.likelihood = LogDouble::fromLn(
        logSumExp(std::span<const double>(alpha_prev)));
    return out;
}

} // namespace pstat::hmm::detail

#endif // PSTAT_HMM_FORWARD_SIMD_TILE_HH
