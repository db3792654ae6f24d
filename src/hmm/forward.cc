#include "hmm/forward.hh"

#include <algorithm>
#include <cmath>

namespace pstat::hmm
{

template ForwardOutcome<ScaledDD>
forward<ScaledDD>(const Model &, std::span<const int>, Reduction);

template <std::floating_point F>
ForwardOutcome<LogSpace<F>>
forwardLogNary(const Model &model, std::span<const int> obs)
{
    ForwardOutcome<LogSpace<F>> out;
    if (obs.empty())
        return out;
    const int h = model.num_states;

    // Pre-computed logarithms, as LoFreq/VICAR-style software does
    // (ln_A and ln_B in Listing 3).
    std::vector<F> ln_a(model.a.size());
    for (size_t i = 0; i < ln_a.size(); ++i)
        ln_a[i] = static_cast<F>(std::log(model.a[i]));
    std::vector<F> ln_b(model.b.size());
    for (size_t i = 0; i < ln_b.size(); ++i)
        ln_b[i] = static_cast<F>(std::log(model.b[i]));

    std::vector<F> alpha(h);
    std::vector<F> alpha_prev(h);
    std::vector<F> terms(h);
    for (int q = 0; q < h; ++q) {
        alpha_prev[q] =
            static_cast<F>(std::log(model.pi[q])) +
            ln_b[static_cast<size_t>(q) * model.num_symbols + obs[0]];
    }

    for (size_t t = 1; t < obs.size(); ++t) {
        const int ot = obs[t];
        for (int q = 0; q < h; ++q) {
            for (int p = 0; p < h; ++p) {
                terms[p] = alpha_prev[p] +
                           ln_a[static_cast<size_t>(p) * h + q];
            }
            const F path_sum = logSumExp(std::span<const F>(terms));
            alpha[q] =
                path_sum +
                ln_b[static_cast<size_t>(q) * model.num_symbols + ot];
        }
        std::swap(alpha, alpha_prev);
    }

    out.likelihood = LogSpace<F>::fromLn(
        logSumExp(std::span<const F>(alpha_prev)));
    return out;
}

template ForwardOutcome<LogDouble>
forwardLogNary<double>(const Model &, std::span<const int>);
template ForwardOutcome<LogFloat>
forwardLogNary<float>(const Model &, std::span<const int>);

OracleForwardResult
forwardOracle(const Model &model, std::span<const int> obs,
              bool track_exponents)
{
    const int h = model.num_states;
    OracleForwardResult out;
    if (obs.empty())
        return out;

    std::vector<ScaledDD> alpha(h);
    std::vector<ScaledDD> alpha_prev(h);
    std::vector<ScaledDD> a(model.a.size());
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = ScaledDD(model.a[i]);
    std::vector<ScaledDD> b(model.b.size());
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = ScaledDD(model.b[i]);

    for (int q = 0; q < h; ++q) {
        alpha_prev[q] =
            ScaledDD(model.pi[q]) *
            b[static_cast<size_t>(q) * model.num_symbols + obs[0]];
    }

    auto record = [&]() {
        if (!track_exponents)
            return;
        double best = -HUGE_VAL;
        for (int q = 0; q < h; ++q) {
            if (!alpha_prev[q].isZero())
                best = std::max(best, alpha_prev[q].log2Abs());
        }
        out.alpha_max_log2.push_back(best);
    };
    record();

    for (size_t t = 1; t < obs.size(); ++t) {
        const int ot = obs[t];
        for (int q = 0; q < h; ++q) {
            ScaledDD path_sum;
            for (int p = 0; p < h; ++p) {
                path_sum = path_sum +
                           alpha_prev[p] *
                               a[static_cast<size_t>(p) * h + q];
            }
            alpha[q] =
                path_sum *
                b[static_cast<size_t>(q) * model.num_symbols + ot];
        }
        std::swap(alpha, alpha_prev);
        record();
    }

    ScaledDD total;
    for (int q = 0; q < h; ++q)
        total = total + alpha_prev[q];
    out.likelihood = total;
    return out;
}

} // namespace pstat::hmm
