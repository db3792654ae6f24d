#include "pbd/dataset.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stats/distributions.hh"

namespace pstat::pbd
{

namespace
{

/** Per-read error probability from a Phred-style quality draw. */
double
phredToProb(double q)
{
    return std::pow(10.0, -q / 10.0);
}

/**
 * Construct a variant column whose p-value magnitude lands near
 * -target_bits. Inverts the dominant-term estimate
 *     log2 P(X>=K) ~= K * (log2(e*N/K) + log2(mean error prob)).
 */
Column
makeVariantColumn(stats::Rng &rng, double target_bits)
{
    Column col;

    // Realistic per-success information is at most ~12 bits (Phred
    // 36); beyond that we lower per-read probabilities instead of
    // inflating K, keeping N*K laptop-sized (see file comment).
    double k_trials = 0.0;
    double bits_per_success = rng.uniform(4.0, 12.0);
    if (target_bits / bits_per_success <= 900.0) {
        k_trials = std::max(40.0, target_bits / bits_per_success);
    } else {
        k_trials = rng.uniform(500.0, 1500.0);
        bits_per_success = target_bits / k_trials;
    }
    const int k = static_cast<int>(k_trials);
    const double m = rng.uniform(1.5, 4.0);
    const int n = static_cast<int>(k_trials * m) + 1;

    // log2(mean error) = -target/K - log2(e * N / K).
    const double log2_e_mean =
        -target_bits / k - std::log2(2.718281828 * m);
    col.k = k;
    col.success_probs.resize(n);
    for (int i = 0; i < n; ++i) {
        const double jitter = stats::sampleNormal(rng, 0.0, 0.5);
        double l2 = log2_e_mean + jitter;
        if (l2 > -0.2)
            l2 = -0.2;
        if (l2 < -1000.0)
            l2 = -1000.0; // keep inputs valid binary64
        col.success_probs[i] = std::pow(2.0, l2);
    }
    return col;
}

/** A realistic background column: Phred-quality reads, noise-only K. */
Column
makeBackgroundColumn(stats::Rng &rng, const DatasetConfig &config)
{
    Column col;
    const double cov = stats::sampleLognormal(
        rng, std::log(config.median_coverage), config.coverage_sigma);
    const int n = std::max(30, static_cast<int>(cov));
    col.success_probs.resize(n);
    int noise = 0;
    for (int i = 0; i < n; ++i) {
        double q = stats::sampleNormal(rng, config.mean_phred,
                                       config.phred_sigma);
        q = std::clamp(q, 8.0, 60.0);
        col.success_probs[i] = phredToProb(q);
        if (rng.chance(col.success_probs[i]))
            ++noise;
    }
    // The observed variant count of a non-variant column is whatever
    // sequencing noise produced (plus the occasional extra read).
    col.k = noise + (rng.chance(0.2) ? 1 : 0);
    return col;
}

} // namespace

double
drawTargetBits(stats::Rng &rng)
{
    // Four bands over "bits below 1.0" (p ~ 2^-bits; more bits =
    // deeper tail). The shallow-critical band [220, 1074) sits
    // *above* 2^-1074, so its 60% share leaves the documented 40%
    // of variant columns below 2^-1074; the deep bands then split
    // that 40% so 5% of columns land below 2^-10,000 (35% + 4.5% +
    // 0.5% = 40%), with the log-uniform top band ending near the
    // paper's deepest column, 2^-434,916. (An earlier comment here
    // read as if the 0.60 draw contradicted the "40% below 2^-1074"
    // headline; the bands below are the reconciliation, and the
    // seeded distribution test over them keeps the shares honest.)
    const double u = rng.uniform();
    if (u < 0.60) // 60%: shallow-critical, above 2^-1074
        return rng.uniform(220.0, 1074.0);
    if (u < 0.95) // 35%: below 2^-1074, above 2^-10000
        return rng.uniform(1074.0, 10000.0);
    if (u < 0.995) // 4.5%: log-uniform in [1e4, 1e5) bits
        return std::exp(rng.uniform(std::log(1.0e4), std::log(1.0e5)));
    // 0.5%: log-uniform in [1e5, 4.4e5] bits — the deepest columns.
    return std::exp(rng.uniform(std::log(1.0e5), std::log(4.4e5)));
}

Column
makeColumnWithTarget(stats::Rng &rng, double target_bits)
{
    return makeVariantColumn(rng, target_bits);
}

void
generateColumns(const DatasetConfig &config,
                const std::function<void(Column &&)> &sink)
{
    stats::Rng rng(config.seed);
    for (int i = 0; i < config.num_columns; ++i) {
        if (rng.uniform() < config.variant_fraction)
            sink(makeVariantColumn(rng, drawTargetBits(rng)));
        else
            sink(makeBackgroundColumn(rng, config));
    }
}

ColumnDataset
makeDataset(const DatasetConfig &config, const std::string &name)
{
    ColumnDataset out;
    out.name = name;
    out.columns.reserve(config.num_columns);
    generateColumns(config, [&](Column &&col) {
        out.columns.push_back(std::move(col));
    });
    return out;
}

ColumnDataset
makeScanDataset(const DatasetConfig &config,
                double min_allele_fraction, const std::string &name)
{
    stats::Rng rng(config.seed);
    ColumnDataset out;
    out.name = name;
    out.columns.reserve(config.num_columns);
    for (int i = 0; i < config.num_columns; ++i) {
        Column col = makeBackgroundColumn(rng, config);
        // The caller's detection threshold, not the observed noise:
        // K = ceil(min AF * coverage), floored at 2 so every column
        // runs a real (if tiny) tail DP.
        col.k = std::max(
            2, static_cast<int>(std::ceil(min_allele_fraction *
                                          col.coverage())));
        out.columns.push_back(std::move(col));
    }
    return out;
}

DatasetStats
makeDatasetStats(const DatasetConfig &config, const std::string &name)
{
    stats::Rng rng(config.seed);
    DatasetStats out;
    out.name = name;
    out.columns.reserve(config.num_columns);
    for (int i = 0; i < config.num_columns; ++i) {
        ColumnStats col;
        const double cov = stats::sampleLognormal(
            rng, std::log(config.median_coverage),
            config.coverage_sigma);
        col.n = std::max(50, static_cast<int>(cov));
        if (rng.uniform() < config.variant_fraction) {
            // Variant column: allele fraction sets K directly.
            // LoFreq targets low-frequency variants, so the allele
            // fraction mix concentrates well below 1%.
            const double af = std::exp(
                rng.uniform(std::log(3e-4), std::log(6e-3)));
            col.k = std::max(10, static_cast<int>(af * col.n));
        } else {
            // Background column: K is sequencing noise ~ Poisson
            // around N * mean-error-rate (normal approximation; the
            // value-scale generator draws true Bernoullis).
            const double q = std::clamp(
                stats::sampleNormal(rng, config.mean_phred,
                                    config.phred_sigma * 0.4),
                8.0, 60.0);
            const double lambda = col.n * phredToProb(q);
            const double draw =
                lambda + std::sqrt(lambda) *
                             stats::sampleNormal(rng, 0.0, 1.0);
            col.k = std::max(0, static_cast<int>(draw));
        }
        out.columns.push_back(col);
    }
    return out;
}

std::vector<DatasetStats>
makePaperDatasetStats(int columns_per_dataset, uint64_t seed)
{
    std::vector<DatasetStats> out;
    for (int d = 0; d < 8; ++d) {
        DatasetConfig config;
        config.num_columns = columns_per_dataset;
        // Full coverage scale: dataset means bracket the paper's
        // average N of 309,189, with diverse quality mixes giving
        // diverse K distributions.
        config.median_coverage = 200'000.0 + 28'000.0 * d;
        config.coverage_sigma = 0.50 + 0.04 * (d % 4);
        config.mean_phred = 33.0 + 1.0 * d;
        config.variant_fraction = 0.055 + 0.006 * d;
        config.seed = seed * 7919ULL + d;
        std::string name = "D";
        name += std::to_string(d);
        out.push_back(makeDatasetStats(config, name));
    }
    return out;
}

std::vector<ColumnDataset>
makePaperDatasets(int columns_per_dataset, uint64_t seed)
{
    std::vector<ColumnDataset> out;
    for (int d = 0; d < 8; ++d) {
        DatasetConfig config;
        config.num_columns = columns_per_dataset;
        // Coverage and quality mixes vary by dataset, mirroring the
        // diverse N / K distributions in the paper's eight inputs.
        config.median_coverage = 900.0 + 420.0 * d;
        config.coverage_sigma = 0.55 + 0.05 * (d % 4);
        config.mean_phred = 27.0 + 2.0 * (d % 3);
        config.variant_fraction = 0.055 + 0.006 * d;
        config.seed = seed * 1000003ULL + d;
        std::string name = "D";
        name += std::to_string(d);
        out.push_back(makeDataset(config, name));
    }
    return out;
}

} // namespace pstat::pbd
