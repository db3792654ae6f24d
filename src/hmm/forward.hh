/**
 * @file
 * The forward algorithm in every number system under study.
 *
 * forward<T>() is Listing 1 of the paper as a template over the
 * scalar type: binary64, Posit<N,ES>, BigFloat, ScaledDD (the
 * oracle), and LogDouble all run the identical kernel. For LogDouble
 * the operators already implement log-space semantics (binary LSE
 * chains), which is what straightforward log-space software does;
 * forwardLogNary() is the Listing-3 variant that uses the n-ary LSE
 * of Equation (3), matching the paper's accelerator dataflow.
 *
 * The Reduction policy selects how the innermost accumulation (line 8
 * of Listing 1) is ordered: Sequential matches a software loop, Tree
 * matches the accelerator's parallel reduction tree.
 */

#ifndef PSTAT_HMM_FORWARD_HH
#define PSTAT_HMM_FORWARD_HH

#include <cmath>
#include <concepts>
#include <span>
#include <vector>

#include "core/compensated.hh"
#include "core/dd.hh"
#include "core/logspace.hh"
#include "core/real_traits.hh"
#include "hmm/model.hh"

namespace pstat::hmm
{

/** Innermost-loop accumulation order. */
enum class Reduction
{
    Sequential,  //!< left-to-right software loop
    Tree,        //!< pairwise reduction tree (accelerator dataflow)
    /**
     * Left-to-right loop with Neumaier compensation — the summation
     * policy that keeps the reduced-precision tier usable on long
     * chains. Formats without subtraction (the log-domain scalars)
     * fall back to plain Sequential.
     */
    Compensated
};

/** Result of a forward run in scalar type T. */
template <typename T>
struct ForwardOutcome
{
    T likelihood = RealTraits<T>::zero();
    /**
     * First outer iteration at which every alpha state was zero
     * (total underflow), or -1 if that never happened.
     */
    int first_underflow_step = -1;
};

/**
 * Pairwise tree reduction over a scratch buffer. The buffer's
 * contents are clobbered (each level writes partial sums in place)
 * but its extent is never changed, so callers can reuse the same
 * buffer across calls without resizing; they only need to refill the
 * values.
 */
template <typename T>
T
reduceTree(std::span<T> buf)
{
    if (buf.empty())
        return RealTraits<T>::zero();
    size_t n = buf.size();
    while (n > 1) {
        const size_t half = n / 2;
        for (size_t i = 0; i < half; ++i)
            buf[i] = buf[2 * i] + buf[2 * i + 1];
        if (n % 2 != 0) {
            buf[half] = buf[n - 1];
            n = half + 1;
        } else {
            n = half;
        }
    }
    return buf[0];
}

/** Convenience overload: reduce a vector's contents as scratch. */
template <typename T>
T
reduceTree(std::vector<T> &buf)
{
    return reduceTree(std::span<T>(buf));
}

/**
 * Listing 1: iteratively multiply-accumulate alpha states and return
 * the total likelihood P(O | lambda).
 */
template <typename T>
ForwardOutcome<T>
forward(const Model &model, std::span<const int> obs,
        Reduction reduction = Reduction::Sequential)
{
    using RT = RealTraits<T>;
    const int h = model.num_states;
    ForwardOutcome<T> out;
    if (obs.empty())
        return out;

    // Convert inputs once, as an accelerator would at load time.
    std::vector<T> a(static_cast<size_t>(h) * h);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = RT::fromDouble(model.a[i]);
    std::vector<T> b(model.b.size());
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = RT::fromDouble(model.b[i]);

    std::vector<T> alpha(h);
    std::vector<T> alpha_prev(h);
    std::vector<T> terms(h);
    for (int q = 0; q < h; ++q) {
        alpha_prev[q] =
            RT::fromDouble(model.pi[q]) *
            b[static_cast<size_t>(q) * model.num_symbols + obs[0]];
    }

    // Sequential / Compensated accumulation of one state's path sums
    // (Tree is handled inline below, over the scratch buffer).
    const auto accumulate = [&](int q) {
        if (reduction == Reduction::Compensated) {
            if constexpr (Compensable<T>) {
                NeumaierSum<T> acc;
                for (int p = 0; p < h; ++p)
                    acc.add(alpha_prev[p] *
                            a[static_cast<size_t>(p) * h + q]);
                return acc.value();
            }
        }
        T path_sum = RT::zero();
        for (int p = 0; p < h; ++p) {
            path_sum = path_sum +
                       alpha_prev[p] *
                           a[static_cast<size_t>(p) * h + q];
        }
        return path_sum;
    };

    for (size_t t = 1; t < obs.size(); ++t) {
        const int ot = obs[t];
        for (int q = 0; q < h; ++q) {
            T path_sum = RT::zero();
            if (reduction == Reduction::Tree) {
                for (int p = 0; p < h; ++p) {
                    terms[p] = alpha_prev[p] *
                               a[static_cast<size_t>(p) * h + q];
                }
                path_sum = reduceTree(terms);
            } else {
                path_sum = accumulate(q);
            }
            alpha[q] =
                path_sum *
                b[static_cast<size_t>(q) * model.num_symbols + ot];
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

    if (reduction == Reduction::Tree) {
        out.likelihood = reduceTree(alpha_prev);
    } else if (reduction == Reduction::Compensated &&
               Compensable<T>) {
        if constexpr (Compensable<T>) {
            NeumaierSum<T> total;
            for (int q = 0; q < h; ++q)
                total.add(alpha_prev[q]);
            out.likelihood = total.value();
        }
    } else {
        T total = RealTraits<T>::zero();
        for (int q = 0; q < h; ++q)
            total = total + alpha_prev[q];
        out.likelihood = total;
    }
    return out;
}

/**
 * The ScaledDD oracle instantiation is compiled once, in forward.cc,
 * for the reason pbd.hh gives for the p-value oracle: the registry's
 * own copy would run with ScaledDD's arithmetic left as calls.
 */
extern template ForwardOutcome<ScaledDD>
forward<ScaledDD>(const Model &, std::span<const int>, Reduction);

/**
 * Listing 3: the forward algorithm in log space with the n-ary LSE
 * of Equation (3), the exact dataflow of the paper's log-based
 * accelerator PE (max tree, exponentials, adder tree, single log).
 * Every log value, exponential and adder-tree intermediate is held in
 * the carrier F: binary64 (LogDouble) by default, or binary32
 * (`forwardLogNary<float>`, the PE built from float function units).
 * Both carriers are compiled in forward.cc.
 */
template <std::floating_point F = double>
ForwardOutcome<LogSpace<F>> forwardLogNary(const Model &model,
                                           std::span<const int> obs);

/**
 * Oracle forward run (ScaledDD scalar, ~31 significant digits with
 * unbounded exponent). Optionally records the base-2 exponent of the
 * largest alpha state after every outer iteration (Figure 1).
 */
struct OracleForwardResult
{
    ScaledDD likelihood;
    std::vector<double> alpha_max_log2; //!< per-step, if requested
};
OracleForwardResult forwardOracle(const Model &model,
                                  std::span<const int> obs,
                                  bool track_exponents = false);

} // namespace pstat::hmm

#endif // PSTAT_HMM_FORWARD_HH
