/**
 * @file
 * Sampling routines for workload synthesis.
 *
 * The paper's synthetic HMM inputs are Dirichlet-distributed rows and
 * the LoFreq column model needs lognormal coverage and Phred-style
 * error probabilities; everything here is built on stats::Rng so runs
 * are reproducible from a single seed.
 */

#ifndef PSTAT_STATS_DISTRIBUTIONS_HH
#define PSTAT_STATS_DISTRIBUTIONS_HH

#include <cstddef>
#include <vector>

#include "stats/rng.hh"

namespace pstat::stats
{

/** Standard normal variate (Box-Muller, polar-free variant). */
double sampleNormal(Rng &rng);

/** Normal with given mean and standard deviation. */
double sampleNormal(Rng &rng, double mean, double stddev);

/** Gamma(shape, 1) via Marsaglia-Tsang squeeze; shape > 0. */
double sampleGamma(Rng &rng, double shape);

/** Lognormal variate: exp(Normal(mu, sigma)). */
double sampleLognormal(Rng &rng, double mu, double sigma);

/**
 * Dirichlet sample of given dimension with symmetric concentration
 * alpha. Returns a probability vector (sums to 1).
 */
std::vector<double> sampleDirichlet(Rng &rng, size_t dim, double alpha);

/** Dirichlet sample with per-component concentrations. */
std::vector<double> sampleDirichlet(Rng &rng,
                                    const std::vector<double> &alpha);

/**
 * Sample an index from a discrete distribution given by non-negative
 * weights (need not be normalized).
 */
size_t sampleDiscrete(Rng &rng, const std::vector<double> &weights);

} // namespace pstat::stats

#endif // PSTAT_STATS_DISTRIBUTIONS_HH
