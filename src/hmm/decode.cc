#include "hmm/decode.hh"

#include <cmath>

#include "core/logspace.hh"

namespace pstat::hmm
{

template BackwardOutcome<ScaledDD>
backward<ScaledDD>(const Model &, std::span<const int>, Reduction);
template PosteriorOutcome<ScaledDD>
posterior<ScaledDD>(const Model &, std::span<const int>, Reduction, bool);
template ViterbiOutcome<ScaledDD>
viterbi<ScaledDD>(const Model &, std::span<const int>);

template <std::floating_point F>
BackwardOutcome<LogSpace<F>>
backwardLogNary(const Model &model, std::span<const int> obs)
{
    BackwardOutcome<LogSpace<F>> out;
    if (obs.empty())
        return out;
    const int h = model.num_states;

    std::vector<F> ln_a(model.a.size());
    for (size_t i = 0; i < ln_a.size(); ++i)
        ln_a[i] = static_cast<F>(std::log(model.a[i]));
    std::vector<F> ln_b(model.b.size());
    for (size_t i = 0; i < ln_b.size(); ++i)
        ln_b[i] = static_cast<F>(std::log(model.b[i]));

    std::vector<F> beta(h);
    std::vector<F> beta_prev(h, F(0)); // ln 1
    std::vector<F> terms(h);

    for (size_t t = obs.size() - 1; t > 0; --t) {
        const int ot = obs[t];
        for (int p = 0; p < h; ++p) {
            for (int q = 0; q < h; ++q) {
                terms[q] =
                    ln_a[static_cast<size_t>(p) * h + q] +
                    ln_b[static_cast<size_t>(q) * model.num_symbols +
                         ot] +
                    beta_prev[q];
            }
            beta[p] = logSumExp(std::span<const F>(terms));
        }
        std::swap(beta, beta_prev);
    }

    for (int q = 0; q < h; ++q) {
        terms[q] =
            static_cast<F>(std::log(model.pi[q])) +
            ln_b[static_cast<size_t>(q) * model.num_symbols + obs[0]] +
            beta_prev[q];
    }
    out.likelihood =
        LogSpace<F>::fromLn(logSumExp(std::span<const F>(terms)));
    return out;
}

template BackwardOutcome<LogDouble>
backwardLogNary<double>(const Model &, std::span<const int>);
template BackwardOutcome<LogFloat>
backwardLogNary<float>(const Model &, std::span<const int>);

} // namespace pstat::hmm
