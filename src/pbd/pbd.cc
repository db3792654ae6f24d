#include "pbd/pbd.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pstat::pbd
{

template ScaledDD
detail::pvalueImpl<ScaledDD, detail::PlainSum<ScaledDD>>(
    std::span<const double>, int);

double
pvalueLog2Estimate(std::span<const double> success_probs,
                   int k_threshold)
{
    if (k_threshold <= 0)
        return 0.0; // P(X >= 0) = 1, log2 = 0 (empty span included)
    const double n = static_cast<double>(success_probs.size());
    // More successes than trials — including any K > 0 over an empty
    // span — is impossible: P(X >= K) = 0, whose log2 is -infinity.
    // (This used to leak a -1.0e9 magic sentinel, the same class of
    // bug as AccuracyTally::worstLog10's old sentinel.)
    if (n <= 0.0 || k_threshold > static_cast<int>(n))
        return -std::numeric_limits<double>::infinity();
    double mu = 0.0;
    size_t nonzero = 0;
    for (double p : success_probs) {
        mu += p;
        if (p > 0.0)
            ++nonzero;
    }
    // Fewer possibly-successful reads than the threshold: the tail is
    // exactly zero, but the mean-based surrogate below cannot see
    // that structure (the zeros only dilute pbar) and would return a
    // finite estimate — deep enough to screen-skip a column whose
    // true p-value is 0. Caught by the adversarial differential
    // sweeps (exact-factor columns with K > #nonzero).
    if (static_cast<size_t>(k_threshold) > nonzero)
        return -std::numeric_limits<double>::infinity();
    // K = 1 has a closed form: P(X >= 1) = 1 - prod(1 - p_j) <= mu
    // (union bound), tight within mu^2/2. The KL surrogate's
    // continuity correction a = (K - 0.5)/n halves the effective
    // count at K = 1, which on deep columns (per-read p ~ 2^-300)
    // halves the exponent — a ~120-bit overestimate, far beyond any
    // screening guard band. Also caught by the differential sweeps.
    if (k_threshold == 1)
        return std::min(0.0, std::log2(mu));

    // Continuity-corrected threshold fraction vs mean fraction.
    const double a =
        std::min(1.0 - 1e-12,
                 (static_cast<double>(k_threshold) - 0.5) / n);
    const double pbar =
        std::clamp(mu / n, 1e-300, 1.0 - 1e-12);
    if (a <= pbar)
        return 0.0; // tail ~ 1

    // Exact exponential rate: H(a || pbar) (relative entropy of
    // Bernoulli(a) vs Bernoulli(pbar)); Sanov/Chernoff.
    const double rate =
        n * (a * std::log(a / pbar) +
             (1.0 - a) * std::log((1.0 - a) / (1.0 - pbar)));
    // Gaussian prefactor of the Bahadur-Rao expansion (order-one
    // polish; a few bits at most).
    const double prefactor =
        0.5 * std::log(2.0 * M_PI * n * a * (1.0 - a));
    return std::min(0.0, (-(rate) - prefactor) / M_LN2);
}

double
columnLogBudget(std::span<const double> success_probs)
{
    double budget = 0.0;
    for (const double p : success_probs) {
        const double q = 1.0 - p;
        // Factors that are exactly 0 or 1 are represented exactly in
        // the log-domain carriers (log zero is reserved) and cannot
        // wobble; everything else contributes its worse |ln|.
        const double lp =
            p > 0.0 && p < 1.0 ? std::fabs(std::log(p)) : 0.0;
        const double lq =
            q > 0.0 && q < 1.0 ? std::fabs(std::log(q)) : 0.0;
        budget += std::max(lp, lq);
    }
    return budget;
}

} // namespace pstat::pbd
