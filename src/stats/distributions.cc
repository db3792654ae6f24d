#include "stats/distributions.hh"

#include <cassert>
#include <cmath>

namespace pstat::stats
{

double
sampleNormal(Rng &rng)
{
    // Box-Muller. The log argument is in (0, 1]; uniform() can return
    // exactly 0, so flip to (0, 1] by subtracting from 1.
    const double u1 = 1.0 - rng.uniform();
    const double u2 = rng.uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * M_PI * u2);
}

double
sampleNormal(Rng &rng, double mean, double stddev)
{
    return mean + stddev * sampleNormal(rng);
}

double
sampleGamma(Rng &rng, double shape)
{
    assert(shape > 0.0);
    if (shape < 1.0) {
        // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
        const double u = 1.0 - rng.uniform();
        return sampleGamma(rng, shape + 1.0) *
               std::pow(u, 1.0 / shape);
    }

    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x = sampleNormal(rng);
        double v = 1.0 + c * x;
        if (v <= 0.0)
            continue;
        v = v * v * v;
        const double u = 1.0 - rng.uniform();
        if (u < 1.0 - 0.0331 * (x * x) * (x * x))
            return d * v;
        if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
            return d * v;
    }
}

double
sampleLognormal(Rng &rng, double mu, double sigma)
{
    return std::exp(sampleNormal(rng, mu, sigma));
}

std::vector<double>
sampleDirichlet(Rng &rng, size_t dim, double alpha)
{
    return sampleDirichlet(rng, std::vector<double>(dim, alpha));
}

std::vector<double>
sampleDirichlet(Rng &rng, const std::vector<double> &alpha)
{
    std::vector<double> out(alpha.size());
    double sum = 0.0;
    for (size_t i = 0; i < alpha.size(); ++i) {
        out[i] = sampleGamma(rng, alpha[i]);
        sum += out[i];
    }
    // A zero sum is (astronomically) unlikely but keep the output a
    // valid distribution regardless.
    if (sum <= 0.0) {
        const double uniform_mass = 1.0 / static_cast<double>(out.size());
        for (auto &x : out)
            x = uniform_mass;
        return out;
    }
    for (auto &x : out)
        x /= sum;
    return out;
}

size_t
sampleDiscrete(Rng &rng, const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double target = rng.uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace pstat::stats
