/**
 * @file
 * Hidden Markov Model definition.
 *
 * A model holds the transition matrix A (H x H, row-stochastic), the
 * emission matrix B (H x M), and the initial distribution pi (H).
 * Emission entries are per-state likelihoods of the observed symbol;
 * as in phylogenetics tools like VICAR, rows of B need not sum to 1
 * (each entry is the likelihood of an observed site pattern, not a
 * normalized emission distribution), but all entries must be in
 * (0, 1]. Inputs are stored in binary64, the interchange format every
 * number system under study starts from.
 */

#ifndef PSTAT_HMM_MODEL_HH
#define PSTAT_HMM_MODEL_HH

#include <cstdint>
#include <span>
#include <vector>

namespace pstat::hmm
{

/** An HMM lambda = (A, B, pi) with H states and M symbols. */
struct Model
{
    int num_states = 0;  //!< H
    int num_symbols = 0; //!< M

    std::vector<double> a;  //!< H*H row-major; a[i*H+j] = P(q_i -> q_j)
    std::vector<double> b;  //!< H*M row-major; b[q*M+s] = P(O_s | q)
    std::vector<double> pi; //!< H initial state probabilities

    double
    aAt(int from, int to) const
    {
        return a[static_cast<size_t>(from) * num_states + to];
    }

    double
    bAt(int state, int symbol) const
    {
        return b[static_cast<size_t>(state) * num_symbols + symbol];
    }
};

} // namespace pstat::hmm

#endif // PSTAT_HMM_MODEL_HH
