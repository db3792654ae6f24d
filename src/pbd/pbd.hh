/**
 * @file
 * Poisson Binomial Distribution kernels (Listing 2 of the paper).
 *
 * Given N independent Bernoulli trials with success probabilities
 * p_1..p_N, the PMF Pr_n(X = k) is built iteratively; the p-value
 * used by LoFreq-style variant callers is the upper tail P(X >= K).
 * Following Listing 2, the tail is accumulated incrementally: the
 * K-th success occurs exactly at trial n with probability
 * Pr_{n-1}(X = K-1) * p_n, so
 *
 *     P(X >= K) = sum_{n=K..N} Pr_{n-1}(X = K-1) * p_n.
 *
 * (The paper's listing guards this accumulation with `n > K`; the
 * mathematically complete bound is n >= K — the n = K term is the
 * probability that every one of the first K trials succeeds — and
 * the test suite verifies this form against brute-force enumeration.)
 *
 * All kernels are templates over the scalar type T, so the identical
 * dataflow runs in binary64, log-space, posit, and oracle arithmetic.
 */

#ifndef PSTAT_PBD_PBD_HH
#define PSTAT_PBD_PBD_HH

#include <span>
#include <vector>

#include "core/compensated.hh"
#include "core/dd.hh"
#include "core/real_traits.hh"

namespace pstat::pbd
{

namespace detail
{

/** Plain running-sum accumulator (the NeumaierSum-free policy). */
template <typename T>
class PlainSum
{
  public:
    void add(const T &v) { sum_ = sum_ + v; }
    T value() const { return sum_; }

  private:
    T sum_ = RealTraits<T>::zero();
};

/**
 * The one Listing-2 dynamic program, templated over the accumulator
 * carrying the running p-value (PlainSum or NeumaierSum). The DP
 * recurrence and its correctness-sensitive bounds (the n >= K tail
 * term, the hi = min(n, K-1) cap) live only here.
 */
template <typename T, typename Accumulator>
T
pvalueImpl(std::span<const double> success_probs, int k_threshold)
{
    using RT = RealTraits<T>;
    if (k_threshold <= 0)
        return RT::one();

    const auto kcap = static_cast<size_t>(k_threshold);
    // pr[k] = Pr_n(X = k) for k < K; states >= K are absorbed by the
    // running p-value.
    std::vector<T> pr(kcap, RT::zero());
    std::vector<T> pr_prev(kcap, RT::zero());
    pr_prev[0] = RT::one();
    Accumulator pval;

    for (size_t n = 1; n <= success_probs.size(); ++n) {
        const double pn = success_probs[n - 1];
        const T p = RT::fromDouble(pn);
        const T q = RT::fromDouble(1.0 - pn);

        if (n >= kcap)
            pval.add(pr_prev[kcap - 1] * p);

        const auto hi = n < kcap - 1 ? n : kcap - 1;
        for (size_t k = hi; k >= 1; --k)
            pr[k] = pr_prev[k] * q + pr_prev[k - 1] * p;
        pr[0] = pr_prev[0] * q;
        std::swap(pr, pr_prev);
    }
    return pval.value();
}

} // namespace detail

/**
 * Upper-tail p-value P(X >= K) via the incremental accumulation of
 * Listing 2. Cost O(N * K) — this is the kernel the column-unit
 * accelerator implements.
 */
template <typename T>
T
pvalue(std::span<const double> success_probs, int k_threshold)
{
    return detail::pvalueImpl<T, detail::PlainSum<T>>(success_probs,
                                                      k_threshold);
}

/**
 * Listing-2 p-value with the compensated summation policy: the
 * running p-value — a sum of up to N tiny terms, where the cheap
 * formats shed accumulation bits — is carried in a NeumaierSum. The
 * two-term DP recurrence is unchanged (nothing to compensate there).
 * Formats without subtraction (the log-domain scalars) fall back to
 * the plain accumulation and return bit-identical results.
 */
template <typename T>
T
pvalueCompensated(std::span<const double> success_probs,
                  int k_threshold)
{
    if constexpr (!Compensable<T>) {
        return pvalue<T>(success_probs, k_threshold);
    } else {
        return detail::pvalueImpl<T, NeumaierSum<T>>(success_probs,
                                                     k_threshold);
    }
}

/** Oracle p-value (ScaledDD arithmetic). */
inline ScaledDD
pvalueOracle(std::span<const double> success_probs, int k_threshold)
{
    return pvalue<ScaledDD>(success_probs, k_threshold);
}

/**
 * The oracle DP is compiled once, in pbd.cc, and every caller links
 * to that copy: pvalueOracle, and the scaled_dd registry format that
 * engine::oraclePlan runs. format_registry.cc instantiates every
 * kernel for every format, which exhausts GCC's inline-unit-growth
 * budget; its own copy keeps ScaledDD's add and multiply as calls
 * and ran about 30% slower (GCC 12 -O3, AMD EPYC).
 */
extern template ScaledDD
detail::pvalueImpl<ScaledDD, detail::PlainSum<ScaledDD>>(
    std::span<const double>, int);

/**
 * Fast Cramér–Chernoff estimate of log2 P(X >= K): the exact
 * large-deviation rate -N*H(K/N || mu/N) (relative entropy) plus a
 * Gaussian prefactor. Used by variant callers as a pre-filter
 * before the exact O(N*K) dynamic program: columns whose estimated
 * tail is far above the significance threshold can skip the DP
 * (see pbd/screen.hh for the screening pipeline built on it).
 * Accurate to a few percent of the log across both the CLT and the
 * deep-tail regimes.
 *
 * Edge cases: K <= 0 returns 0 (P(X >= 0) = 1 — even for an empty
 * span); K > N — including any K > 0 over an empty span — returns
 * -infinity, the honest log2 of the impossible event P(X >= K) = 0.
 * K exceeding the number of *nonzero* probabilities also returns
 * -infinity (the tail is structurally zero; the mean-based surrogate
 * cannot see that). K = 1 uses the closed form log2(sum p) — the
 * union bound, tight within mu^2/2 — because the KL surrogate's
 * continuity correction halves the exponent at K = 1 on deep
 * columns.
 *
 * The estimate is a heuristic, not a bound: on heterogeneous columns
 * (per-read probabilities spanning many decades) the mean-based
 * binomial surrogate can overestimate the tail by more than the
 * screening guard band — the screen's no-false-skip contract holds
 * on the caller workload it documents (see pbd/screen.hh), and the
 * adaptive pipeline audits rather than trusts it.
 */
double pvalueLog2Estimate(std::span<const double> success_probs,
                          int k_threshold);

/**
 * Log-magnitude budget of the Listing-2 DP on one column: an upper
 * bound on |ln x| over every nonzero intermediate the recurrence can
 * produce, namely sum_i max(|ln p_i|, |ln (1-p_i)|). (Every
 * intermediate is a sum of products with exactly one factor from
 * {p_i, 1-p_i} per consumed trial; a positive sum is at least its
 * largest term and every probability is at most one, so |ln| of any
 * nonzero intermediate is bounded by the sum of the worse factor
 * magnitudes.) Factors that are exactly 0 or 1 contribute nothing:
 * in the log-domain carriers they are represented exactly (log zero
 * is reserved) and never wobble. Used by the adaptive escalation
 * bounds (engine/escalate.hh) to certify log-domain evaluations.
 */
double columnLogBudget(std::span<const double> success_probs);

} // namespace pstat::pbd

#endif // PSTAT_PBD_PBD_HH
