/**
 * @file
 * The HMM decode family: backward, posterior marginals, and Viterbi
 * in every number system under study.
 *
 * The paper evaluates accuracy trade-offs on the forward kernel only,
 * but decoding and training run backward/posterior/Viterbi over the
 * same numerically hazardous products of small probabilities. Every
 * routine here is a template over the scalar type T (the whole
 * RealTraits family: binary64, LogDouble, LNS, posits, the 32-bit
 * tier, ScaledDD/BigFloat oracles) and honors the same
 * Reduction::{Sequential,Tree,Compensated} accumulation policies as
 * forward<T>() — Sequential matches a software loop, Tree the
 * accelerator's pairwise reduction, Compensated the Neumaier-summed
 * loop of the reduced-precision tier.
 *
 * backwardLogNary() is the Listing-3-style accelerator dataflow for
 * the log formats (n-ary LSE over raw log values, in a binary64 or
 * binary32 carrier), mirroring forwardLogNary().
 */

#ifndef PSTAT_HMM_DECODE_HH
#define PSTAT_HMM_DECODE_HH

#include <concepts>
#include <span>
#include <vector>

#include "core/compensated.hh"
#include "core/real_traits.hh"
#include "hmm/forward.hh"
#include "hmm/model.hh"

namespace pstat::hmm
{

/**
 * Reduce a scratch buffer under a Reduction policy. Tree clobbers the
 * buffer (pairwise in place); Sequential/Compensated only read it.
 * Compensated falls back to Sequential for formats without
 * subtraction (the log-domain scalars), exactly like forward<T>().
 */
template <typename T>
T
reduceWith(std::span<T> terms, Reduction reduction)
{
    if (reduction == Reduction::Tree)
        return reduceTree(terms);
    if (reduction == Reduction::Compensated) {
        if constexpr (Compensable<T>) {
            NeumaierSum<T> acc;
            for (const T &v : terms)
                acc.add(v);
            return acc.value();
        }
    }
    T sum = RealTraits<T>::zero();
    for (const T &v : terms)
        sum = sum + v;
    return sum;
}

/** Result of a backward run in scalar type T. */
template <typename T>
struct BackwardOutcome
{
    /** P(O | lambda) via the backward termination sum. */
    T likelihood = RealTraits<T>::zero();
    /**
     * Largest time index t at which every beta state was zero (the
     * recursion sweeps T-2 down to 0, so this is the first total
     * underflow it encounters), or -1 if that never happened.
     */
    int first_underflow_step = -1;
};

/**
 * The backward recursion: beta_{T-1}(q) = 1,
 * beta_t(p) = sum_q A[p][q] * B[q][O_{t+1}] * beta_{t+1}(q), and the
 * termination P(O) = sum_q pi_q * B[q][O_0] * beta_0(q). Inner sums
 * and the termination sum follow the Reduction policy.
 */
template <typename T>
BackwardOutcome<T>
backward(const Model &model, std::span<const int> obs,
         Reduction reduction = Reduction::Sequential)
{
    using RT = RealTraits<T>;
    const int h = model.num_states;
    BackwardOutcome<T> out;
    if (obs.empty())
        return out;

    // Convert inputs once, as an accelerator would at load time.
    std::vector<T> a(static_cast<size_t>(h) * h);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = RT::fromDouble(model.a[i]);
    std::vector<T> b(model.b.size());
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = RT::fromDouble(model.b[i]);

    std::vector<T> beta(h);
    std::vector<T> beta_prev(h, RT::one());
    std::vector<T> terms(h);

    for (size_t t = obs.size() - 1; t > 0; --t) {
        const int ot = obs[t];
        for (int p = 0; p < h; ++p) {
            for (int q = 0; q < h; ++q) {
                terms[q] =
                    a[static_cast<size_t>(p) * h + q] *
                    b[static_cast<size_t>(q) * model.num_symbols + ot] *
                    beta_prev[q];
            }
            beta[p] = reduceWith(std::span<T>(terms), reduction);
        }
        std::swap(beta, beta_prev);

        if (out.first_underflow_step < 0) {
            bool all_zero = true;
            for (int p = 0; p < h; ++p)
                all_zero = all_zero && RT::isZero(beta_prev[p]);
            if (all_zero)
                out.first_underflow_step = static_cast<int>(t - 1);
        }
    }

    for (int q = 0; q < h; ++q) {
        terms[q] =
            RT::fromDouble(model.pi[q]) *
            b[static_cast<size_t>(q) * model.num_symbols + obs[0]] *
            beta_prev[q];
    }
    out.likelihood = reduceWith(std::span<T>(terms), reduction);
    return out;
}

/** Result of a posterior (forward-backward) run in scalar type T. */
template <typename T>
struct PosteriorOutcome
{
    /**
     * Posterior state marginals gamma_t(q) = P(state q at t | O),
     * flattened row-major: gamma[t * H + q]. Each time step is
     * normalized by its own row sum; when that sum underflowed to
     * zero the row is left as the raw (all-zero) products, so
     * underflow is reported as zeros rather than format-dependent
     * NaN/NaR from a zero division.
     */
    std::vector<T> gamma;
    /**
     * P(O | lambda): the final forward sum in raw mode, or the
     * product of the per-step normalizers when renormalizing (exact
     * in exact arithmetic; may underflow in narrow linear formats
     * even though the gammas themselves survive).
     */
    T likelihood = RealTraits<T>::zero();
    /**
     * First time index t at which every alpha state was zero (total
     * forward underflow), or -1 if that never happened.
     */
    int first_underflow_step = -1;
};

/**
 * Forward-backward posterior marginals with an optional per-step
 * renormalization, the classic rescaling defense against underflow:
 * when @p renormalize is true every alpha row is divided by its own
 * sum (computed under the Reduction policy) and every beta row by
 * its own sum; the scales cancel in gamma, which is normalized per
 * time step either way. Raw mode (renormalize = false) runs the
 * recursions exactly as forward<T>()/backward<T>() do, so narrow
 * linear formats underflow mid-sequence — the hazard this kernel
 * family exists to measure.
 */
template <typename T>
PosteriorOutcome<T>
posterior(const Model &model, std::span<const int> obs,
          Reduction reduction = Reduction::Sequential,
          bool renormalize = false)
{
    using RT = RealTraits<T>;
    const int h = model.num_states;
    const size_t t_len = obs.size();
    PosteriorOutcome<T> out;
    if (obs.empty())
        return out;

    std::vector<T> a(static_cast<size_t>(h) * h);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = RT::fromDouble(model.a[i]);
    std::vector<T> b(model.b.size());
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = RT::fromDouble(model.b[i]);

    std::vector<T> alpha(t_len * h, RT::zero());
    std::vector<T> beta(t_len * h, RT::zero());
    std::vector<T> terms(h);

    // Sum a row under the policy (Tree clobbers a scratch copy).
    const auto rowSum = [&](const T *row) {
        for (int q = 0; q < h; ++q)
            terms[q] = row[q];
        return reduceWith(std::span<T>(terms), reduction);
    };
    // Divide a row by its own sum; rows that underflowed to a zero
    // sum are left untouched (all zero).
    const auto normalizeRow = [&](T *row) {
        const T sum = rowSum(row);
        if (!RT::isZero(sum)) {
            for (int q = 0; q < h; ++q)
                row[q] = row[q] / sum;
        }
        return sum;
    };

    // Forward pass.
    T scaled_likelihood = RT::one();
    for (int q = 0; q < h; ++q) {
        alpha[q] =
            RT::fromDouble(model.pi[q]) *
            b[static_cast<size_t>(q) * model.num_symbols + obs[0]];
    }
    if (renormalize)
        scaled_likelihood = scaled_likelihood * normalizeRow(&alpha[0]);
    for (size_t t = 1; t < t_len; ++t) {
        const int ot = obs[t];
        const T *prev = &alpha[(t - 1) * h];
        T *row = &alpha[t * h];
        for (int q = 0; q < h; ++q) {
            for (int p = 0; p < h; ++p)
                terms[p] = prev[p] * a[static_cast<size_t>(p) * h + q];
            row[q] =
                reduceWith(std::span<T>(terms), reduction) *
                b[static_cast<size_t>(q) * model.num_symbols + ot];
        }
        if (renormalize)
            scaled_likelihood = scaled_likelihood * normalizeRow(row);
        if (out.first_underflow_step < 0) {
            bool all_zero = true;
            for (int q = 0; q < h; ++q)
                all_zero = all_zero && RT::isZero(row[q]);
            if (all_zero)
                out.first_underflow_step = static_cast<int>(t);
        }
    }
    out.likelihood = renormalize ? scaled_likelihood
                                 : rowSum(&alpha[(t_len - 1) * h]);

    // Backward pass.
    {
        T *last = &beta[(t_len - 1) * h];
        for (int q = 0; q < h; ++q)
            last[q] = RT::one();
        if (renormalize)
            normalizeRow(last);
    }
    for (size_t t = t_len - 1; t > 0; --t) {
        const int ot = obs[t];
        const T *prev = &beta[t * h];
        T *row = &beta[(t - 1) * h];
        for (int p = 0; p < h; ++p) {
            for (int q = 0; q < h; ++q) {
                terms[q] =
                    a[static_cast<size_t>(p) * h + q] *
                    b[static_cast<size_t>(q) * model.num_symbols + ot] *
                    prev[q];
            }
            row[p] = reduceWith(std::span<T>(terms), reduction);
        }
        if (renormalize)
            normalizeRow(row);
    }

    // Combine: gamma_t(q) = alpha_t(q) beta_t(q), normalized per row.
    out.gamma.assign(t_len * h, RT::zero());
    for (size_t t = 0; t < t_len; ++t) {
        T *row = &out.gamma[t * h];
        for (int q = 0; q < h; ++q)
            row[q] = alpha[t * h + q] * beta[t * h + q];
        normalizeRow(row);
    }
    return out;
}

/** Result of a Viterbi run in scalar type T. */
template <typename T>
struct ViterbiOutcome
{
    /** Most likely hidden state at each position (argmax path). */
    std::vector<int> path;
    /** Joint probability of the best path, in the format. */
    T probability = RealTraits<T>::zero();
    /**
     * First time index t at which every delta state was zero — from
     * there on the argmax backtrack is vacuous (all candidates tie at
     * zero and the first index wins) — or -1 if that never happened.
     */
    int first_underflow_step = -1;
};

/**
 * Viterbi decoding with all products carried in scalar type T:
 * delta_t(q) = max_p delta_{t-1}(p) A[p][q] * B[q][O_t]. max/argmax
 * are order operations, so the interesting failure mode is range, not
 * rounding: once delta underflows to zero in a narrow linear format
 * the path degenerates, while log-domain and tapered formats keep
 * decoding. Ties keep the lowest state index, matching the
 * log2-domain reference viterbi() in tests/reference.hh.
 */
template <typename T>
ViterbiOutcome<T>
viterbi(const Model &model, std::span<const int> obs)
{
    using RT = RealTraits<T>;
    const int h = model.num_states;
    ViterbiOutcome<T> out;
    if (obs.empty())
        return out;

    std::vector<T> a(static_cast<size_t>(h) * h);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = RT::fromDouble(model.a[i]);
    std::vector<T> b(model.b.size());
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = RT::fromDouble(model.b[i]);

    std::vector<T> delta(h);
    std::vector<T> delta_prev(h);
    std::vector<std::vector<int>> from(obs.size(),
                                       std::vector<int>(h, 0));

    for (int q = 0; q < h; ++q) {
        delta_prev[q] =
            RT::fromDouble(model.pi[q]) *
            b[static_cast<size_t>(q) * model.num_symbols + obs[0]];
    }
    for (size_t t = 1; t < obs.size(); ++t) {
        const int ot = obs[t];
        for (int q = 0; q < h; ++q) {
            T best =
                delta_prev[0] * a[static_cast<size_t>(0) * h + q];
            int arg = 0;
            for (int p = 1; p < h; ++p) {
                const T cand =
                    delta_prev[p] * a[static_cast<size_t>(p) * h + q];
                if (best < cand) {
                    best = cand;
                    arg = p;
                }
            }
            delta[q] =
                best *
                b[static_cast<size_t>(q) * model.num_symbols + ot];
            from[t][q] = arg;
        }
        std::swap(delta, delta_prev);

        if (out.first_underflow_step < 0) {
            bool all_zero = true;
            for (int q = 0; q < h; ++q)
                all_zero = all_zero && RT::isZero(delta_prev[q]);
            if (all_zero)
                out.first_underflow_step = static_cast<int>(t);
        }
    }

    const size_t last = obs.size() - 1;
    int best_q = 0;
    for (int q = 1; q < h; ++q) {
        if (delta_prev[best_q] < delta_prev[q])
            best_q = q;
    }
    out.probability = delta_prev[best_q];
    out.path.resize(obs.size());
    out.path[last] = best_q;
    for (size_t t = last; t > 0; --t)
        out.path[t - 1] = from[t][out.path[t]];
    return out;
}

/**
 * The ScaledDD oracle instantiations are compiled once, in decode.cc,
 * for the reason pbd.hh gives for the p-value oracle: the registry's
 * own copies would run with ScaledDD's arithmetic left as calls.
 */
extern template BackwardOutcome<ScaledDD>
backward<ScaledDD>(const Model &, std::span<const int>, Reduction);
extern template PosteriorOutcome<ScaledDD>
posterior<ScaledDD>(const Model &, std::span<const int>, Reduction, bool);
extern template ViterbiOutcome<ScaledDD>
viterbi<ScaledDD>(const Model &, std::span<const int>);

/**
 * The backward recursion in log space with the n-ary LSE of Equation
 * (3) — the accelerator PE dataflow (max tree, exponentials, adder
 * tree, single log), mirroring forwardLogNary(): every log value and
 * adder-tree intermediate is held in the carrier F, binary64 by
 * default or binary32. Both carriers are compiled in decode.cc.
 */
template <std::floating_point F = double>
BackwardOutcome<LogSpace<F>> backwardLogNary(const Model &model,
                                             std::span<const int> obs);

} // namespace pstat::hmm

#endif // PSTAT_HMM_DECODE_HH
