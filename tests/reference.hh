/**
 * @file
 * Reference algorithms the tests compare against.
 *
 * None of these run on a shipped path; each is an algorithmically
 * independent (or brute-force) cross-check of a library kernel:
 * the full PMF, the closed-form binomial tail, Hong's DFT-CF PMF and
 * the Stirling-style magnitude estimate for the Listing-2 p-value;
 * the model's structural check, the H^T path enumeration, the full
 * alpha/beta matrices, log2-domain Viterbi, posterior decoding and
 * one Baum-Welch step for the HMM kernels. They keep their library
 * namespaces so a test reads the same whether a reference lives here
 * or in src/.
 */

#ifndef PSTAT_TESTS_REFERENCE_HH
#define PSTAT_TESTS_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "bigfloat/bigfloat.hh"
#include "core/real_traits.hh"
#include "hmm/model.hh"
#include "pbd/dataset.hh"

namespace pstat::pbd
{

/**
 * PMF after all trials: returns Pr_N(X = k) for k = 0..k_max.
 * Cost O(N * k_max).
 */
template <typename T>
std::vector<T>
pmf(std::span<const double> success_probs, int k_max)
{
    using RT = RealTraits<T>;
    std::vector<T> pr(static_cast<size_t>(k_max) + 1, RT::zero());
    std::vector<T> pr_prev(static_cast<size_t>(k_max) + 1, RT::zero());
    pr_prev[0] = RT::one();

    for (size_t n = 1; n <= success_probs.size(); ++n) {
        const double pn = success_probs[n - 1];
        const T p = RT::fromDouble(pn);
        const T q = RT::fromDouble(1.0 - pn);
        const auto hi =
            n < static_cast<size_t>(k_max) ? n : static_cast<size_t>(k_max);
        for (size_t k = hi; k >= 1; --k)
            pr[k] = pr_prev[k] * q + pr_prev[k - 1] * p;
        pr[0] = pr_prev[0] * q;
        std::swap(pr, pr_prev);
    }
    return pr_prev;
}

/**
 * Closed-form cross-check for equal success probabilities: the
 * binomial tail P(X >= K) computed term by term in BigFloat.
 */
inline BigFloat
binomialTailExact(int n, double p, int k_threshold)
{
    // Term-by-term: C(n,k) p^k (1-p)^(n-k), updated by the ratio
    // C(n,k+1)/C(n,k) = (n-k)/(k+1); all in BigFloat, so the result
    // is accurate to ~2^-240 even for astronomically small tails.
    const BigFloat bp = BigFloat::fromDouble(p);
    const BigFloat bq = BigFloat::one() - bp;
    if (k_threshold <= 0)
        return BigFloat::one();
    if (k_threshold > n)
        return BigFloat::zero();
    if (p <= 0.0)
        return BigFloat::zero();
    if (p >= 1.0)
        return BigFloat::one();

    // Start at k = k_threshold: C(n,k) p^k q^(n-k).
    BigFloat term = BigFloat::powInt(bp, k_threshold) *
                    BigFloat::powInt(bq, n - k_threshold);
    for (int i = 0; i < k_threshold; ++i) {
        term = (term * BigFloat::fromInt(n - i))
                   .divSmall(static_cast<uint64_t>(i + 1));
    }

    BigFloat sum = term;
    for (int k = k_threshold; k < n; ++k) {
        // term(k+1) = term(k) * (n-k)/(k+1) * p/q.
        term = (term * BigFloat::fromInt(n - k))
                   .divSmall(static_cast<uint64_t>(k + 1)) *
               bp / bq;
        sum += term;
        if (!term.isZero() &&
            term.exponent() < sum.exponent() - 280) {
            break; // remaining terms are below oracle precision
        }
    }
    return sum;
}

/**
 * PMF via Hong's DFT-CF method (characteristic function + inverse
 * DFT; reference [32] of the paper). O(n^2) without an FFT, double
 * precision only — an algorithmically independent cross-check of the
 * Listing-2 dynamic program inside binary64's range. Returns
 * Pr(X = k) for k = 0..n.
 */
inline std::vector<double>
pmfDftCf(std::span<const double> success_probs)
{
    // Hong (2013): the characteristic function of a PBD evaluated at
    // the (n+1)-th roots of unity is z_l = prod_j (1 - p_j + p_j w^l)
    // with w = e^{2*pi*i/(n+1)}; the PMF is its inverse DFT.
    const auto n = success_probs.size();
    const size_t m = n + 1;
    const double omega = 2.0 * M_PI / static_cast<double>(m);

    std::vector<std::complex<double>> z(m);
    for (size_t l = 0; l < m; ++l) {
        std::complex<double> prod(1.0, 0.0);
        const std::complex<double> w(
            std::cos(omega * static_cast<double>(l)),
            std::sin(omega * static_cast<double>(l)));
        for (double p : success_probs)
            prod *= std::complex<double>(1.0 - p, 0.0) + p * w;
        z[l] = prod;
    }

    std::vector<double> pmf(m);
    for (size_t k = 0; k < m; ++k) {
        std::complex<double> sum(0.0, 0.0);
        for (size_t l = 0; l < m; ++l) {
            const double angle =
                -omega * static_cast<double>(l * k % m);
            sum += z[l] * std::complex<double>(std::cos(angle),
                                               std::sin(angle));
        }
        const double value = sum.real() / static_cast<double>(m);
        pmf[k] = value > 0.0 ? value : 0.0; // clip FFT noise
    }
    return pmf;
}

/** Upper tail P(X >= K) from the DFT-CF PMF. */
inline double
pvalueDftCf(std::span<const double> success_probs, int k_threshold)
{
    if (k_threshold <= 0)
        return 1.0;
    const auto pmf = pmfDftCf(success_probs);
    double tail = 0.0;
    for (size_t k = static_cast<size_t>(k_threshold); k < pmf.size();
         ++k) {
        tail += pmf[k];
    }
    return tail;
}

/**
 * Rough log2 of the expected p-value of a column (Stirling-style
 * estimate): the instrument the dataset tests measure the
 * generator's magnitude spectrum with. The generator itself hits its
 * targets by construction (makeColumnWithTarget) and never calls it.
 */
inline double
estimateLog2PValue(const Column &column)
{
    const int n = column.coverage();
    const int k = column.k;
    if (k <= 0 || n == 0)
        return 0.0;
    double lbar = 0.0;
    for (double p : column.success_probs)
        lbar += std::log2(p);
    lbar /= n;
    const double expected = static_cast<double>(n) *
                            std::pow(2.0, lbar);
    if (k <= expected)
        return 0.0;
    const double estimate =
        k * (std::log2(2.718281828 * n / k) + lbar);
    return std::min(estimate, 0.0);
}

} // namespace pstat::pbd

namespace pstat::hmm
{

/**
 * Structural validation of a model: dimensions match, A rows and pi
 * sum to 1 within tol, all probabilities within (0, 1] (B entries are
 * likelihoods and may be arbitrarily small but must be positive).
 */
inline bool
validate(const Model &model, double tol = 1e-9)
{
    const auto h = static_cast<size_t>(model.num_states);
    const auto m = static_cast<size_t>(model.num_symbols);
    if (model.num_states <= 0 || model.num_symbols <= 0)
        return false;
    if (model.a.size() != h * h || model.b.size() != h * m ||
        model.pi.size() != h)
        return false;

    double pi_sum = 0.0;
    for (double p : model.pi) {
        if (!(p >= 0.0 && p <= 1.0))
            return false;
        pi_sum += p;
    }
    if (std::fabs(pi_sum - 1.0) > tol)
        return false;

    for (int i = 0; i < model.num_states; ++i) {
        double row = 0.0;
        for (int j = 0; j < model.num_states; ++j) {
            const double p = model.aAt(i, j);
            if (!(p >= 0.0 && p <= 1.0))
                return false;
            row += p;
        }
        if (std::fabs(row - 1.0) > tol)
            return false;
    }

    for (double p : model.b) {
        if (!(p > 0.0 && p <= 1.0))
            return false;
    }
    return true;
}

/**
 * Brute-force likelihood P(O|lambda) by enumerating all H^T hidden
 * paths in double; usable for tiny models only. The reference for
 * forward-algorithm unit tests.
 */
inline double
enumerateLikelihood(const Model &model, std::span<const int> obs)
{
    const int h = model.num_states;
    const auto t_len = obs.size();
    if (t_len == 0)
        return 1.0;

    // Iterate over all H^T paths with an odometer.
    std::vector<int> path(t_len, 0);
    double total = 0.0;
    for (;;) {
        double p = model.pi[path[0]] * model.bAt(path[0], obs[0]);
        for (size_t t = 1; t < t_len; ++t) {
            p *= model.aAt(path[t - 1], path[t]) *
                 model.bAt(path[t], obs[t]);
        }
        total += p;

        size_t pos = 0;
        while (pos < t_len && ++path[pos] == h) {
            path[pos] = 0;
            ++pos;
        }
        if (pos == t_len)
            break;
    }
    return total;
}

/** Full alpha matrix (T x H) of the forward recursion. */
template <typename T>
std::vector<std::vector<T>>
forwardMatrix(const Model &model, std::span<const int> obs)
{
    using RT = RealTraits<T>;
    const int h = model.num_states;
    std::vector<std::vector<T>> alpha(obs.size(),
                                      std::vector<T>(h, RT::zero()));
    if (obs.empty())
        return alpha;

    for (int q = 0; q < h; ++q) {
        alpha[0][q] = RT::fromDouble(model.pi[q]) *
                      RT::fromDouble(model.bAt(q, obs[0]));
    }
    for (size_t t = 1; t < obs.size(); ++t) {
        for (int q = 0; q < h; ++q) {
            T sum = RT::zero();
            for (int p = 0; p < h; ++p) {
                sum = sum + alpha[t - 1][p] *
                                RT::fromDouble(model.aAt(p, q));
            }
            alpha[t][q] = sum * RT::fromDouble(model.bAt(q, obs[t]));
        }
    }
    return alpha;
}

/** Full beta matrix (T x H) of the backward recursion. */
template <typename T>
std::vector<std::vector<T>>
backwardMatrix(const Model &model, std::span<const int> obs)
{
    using RT = RealTraits<T>;
    const int h = model.num_states;
    std::vector<std::vector<T>> beta(obs.size(),
                                     std::vector<T>(h, RT::zero()));
    if (obs.empty())
        return beta;

    const size_t last = obs.size() - 1;
    for (int q = 0; q < h; ++q)
        beta[last][q] = RT::one();
    for (size_t t = last; t > 0; --t) {
        for (int p = 0; p < h; ++p) {
            T sum = RT::zero();
            for (int q = 0; q < h; ++q) {
                sum = sum + RT::fromDouble(model.aAt(p, q)) *
                                RT::fromDouble(model.bAt(q, obs[t])) *
                                beta[t][q];
            }
            beta[t - 1][p] = sum;
        }
    }
    return beta;
}

/**
 * Most likely hidden path (Viterbi), computed in log space double —
 * max/argmax are order operations, so log space loses nothing here.
 */
struct ViterbiResult
{
    std::vector<int> path;
    double log2_probability = -HUGE_VAL;
};

inline ViterbiResult
viterbi(const Model &model, std::span<const int> obs)
{
    ViterbiResult out;
    const int h = model.num_states;
    if (obs.empty())
        return out;

    std::vector<std::vector<double>> delta(
        obs.size(), std::vector<double>(h, -HUGE_VAL));
    std::vector<std::vector<int>> from(obs.size(),
                                       std::vector<int>(h, 0));

    for (int q = 0; q < h; ++q) {
        delta[0][q] =
            std::log2(model.pi[q]) + std::log2(model.bAt(q, obs[0]));
    }
    for (size_t t = 1; t < obs.size(); ++t) {
        for (int q = 0; q < h; ++q) {
            double best = -HUGE_VAL;
            int arg = 0;
            for (int p = 0; p < h; ++p) {
                const double cand =
                    delta[t - 1][p] + std::log2(model.aAt(p, q));
                if (cand > best) {
                    best = cand;
                    arg = p;
                }
            }
            delta[t][q] = best + std::log2(model.bAt(q, obs[t]));
            from[t][q] = arg;
        }
    }

    const size_t last = obs.size() - 1;
    int best_q = 0;
    for (int q = 1; q < h; ++q) {
        if (delta[last][q] > delta[last][best_q])
            best_q = q;
    }
    out.log2_probability = delta[last][best_q];
    out.path.resize(obs.size());
    out.path[last] = best_q;
    for (size_t t = last; t > 0; --t)
        out.path[t - 1] = from[t][out.path[t]];
    return out;
}

/**
 * Posterior decoding: the most probable state at each position,
 * arg max_q gamma_t(q) with gamma_t(q) = alpha_t(q) beta_t(q) / P(O).
 * Scalar type T controls the arithmetic (the division cancels, so
 * only the products matter).
 */
template <typename T>
std::vector<int>
posteriorDecode(const Model &model, std::span<const int> obs)
{
    const auto alpha = forwardMatrix<T>(model, obs);
    const auto beta = backwardMatrix<T>(model, obs);
    std::vector<int> path(obs.size(), 0);
    for (size_t t = 0; t < obs.size(); ++t) {
        T best = alpha[t][0] * beta[t][0];
        for (int q = 1; q < model.num_states; ++q) {
            const T cand = alpha[t][q] * beta[t][q];
            if (best < cand) {
                best = cand;
                path[t] = q;
            }
        }
    }
    return path;
}

/**
 * One Baum-Welch (EM) re-estimation step: returns an updated model
 * whose A, B, pi are the expected-count ratios under the current
 * model. Scalar type T controls the arithmetic of the E-step.
 */
template <typename T>
Model
baumWelchStep(const Model &model, std::span<const int> obs)
{
    using RT = RealTraits<T>;
    const int h = model.num_states;
    const int m = model.num_symbols;
    const auto alpha = forwardMatrix<T>(model, obs);
    const auto beta = backwardMatrix<T>(model, obs);

    T likelihood = RT::zero();
    for (int q = 0; q < h; ++q)
        likelihood = likelihood + alpha.back()[q];

    // gamma[t][q] = P(state q at t | O); xi accumulated directly.
    Model next = model;
    std::vector<double> gamma0(h, 0.0);
    std::vector<std::vector<double>> xi_sum(
        h, std::vector<double>(h, 0.0));
    std::vector<std::vector<double>> gamma_sum(
        h, std::vector<double>(h == 0 ? 0 : m, 0.0));
    std::vector<double> gamma_tot(h, 0.0);

    for (size_t t = 0; t < obs.size(); ++t) {
        for (int q = 0; q < h; ++q) {
            const T g = alpha[t][q] * beta[t][q] / likelihood;
            const double gd = RT::toBigFloat(g).toDouble();
            if (t == 0)
                gamma0[q] = gd;
            gamma_sum[q][obs[t]] += gd;
            if (t + 1 < obs.size())
                gamma_tot[q] += gd;
        }
        if (t + 1 < obs.size()) {
            for (int p = 0; p < h; ++p) {
                for (int q = 0; q < h; ++q) {
                    const T x = alpha[t][p] *
                                RT::fromDouble(model.aAt(p, q)) *
                                RT::fromDouble(model.bAt(q, obs[t + 1])) *
                                beta[t + 1][q] / likelihood;
                    xi_sum[p][q] += RT::toBigFloat(x).toDouble();
                }
            }
        }
    }

    for (int q = 0; q < h; ++q) {
        next.pi[q] = gamma0[q];
        for (int j = 0; j < h; ++j) {
            next.a[static_cast<size_t>(q) * h + j] =
                gamma_tot[q] > 0.0 ? xi_sum[q][j] / gamma_tot[q]
                                   : model.aAt(q, j);
        }
        double emit_tot = 0.0;
        for (int s = 0; s < m; ++s)
            emit_tot += gamma_sum[q][s];
        for (int s = 0; s < m; ++s) {
            // Clamp away exact zeros: B entries must stay positive.
            const double est = emit_tot > 0.0
                                   ? gamma_sum[q][s] / emit_tot
                                   : model.bAt(q, s);
            next.b[static_cast<size_t>(q) * m + s] =
                est > 1e-300 ? est : 1e-300;
        }
    }
    return next;
}

} // namespace pstat::hmm

#endif // PSTAT_TESTS_REFERENCE_HH
