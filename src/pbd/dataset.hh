/**
 * @file
 * SARS-CoV-2-style alignment-column datasets for the LoFreq workload.
 *
 * The paper evaluates eight real SARS-CoV-2 datasets: 222,131
 * columns total, average coverage N = 309,189, 16,205 "critical"
 * columns (p-value < 2^-200), with a p-value spectrum where 40% of
 * critical columns fall below 2^-1,074, 5% below 2^-10,000, and the
 * minimum near 2^-434,916.
 *
 * We cannot ship that proprietary alignment data, so this generator
 * synthesizes columns with the same *numeric* profile: per-read
 * error probabilities (Phred-style for the realistic bulk), coverage
 * N, observed variant count K, and — crucially — the same p-value
 * magnitude spectrum. Deep-tail columns use per-read probabilities
 * far below real sequencing quality so the paper's extreme
 * magnitudes (2^-30,000 ... 2^-440,000) are reached at laptop-scale
 * N*K cost; DESIGN.md §1 documents why this preserves the
 * number-format stress being measured. Coverage is scaled down by
 * `scale` (cycle counts in the performance model scale linearly, so
 * relative speedups are unaffected).
 */

#ifndef PSTAT_PBD_DATASET_HH
#define PSTAT_PBD_DATASET_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.hh"

namespace pstat::pbd
{

/**
 * A borrowed view of one alignment column: the per-read probability
 * span plus the observed variant count. This is the common currency
 * of the storage layer — mmap-backed shard readers (io/shard.hh)
 * hand out views into the mapped file, and owning Columns convert
 * via view() — so every kernel entry point that takes a span works
 * on either without copying.
 */
struct ColumnView
{
    std::span<const double> success_probs; //!< borrowed probabilities
    int k = 0;                             //!< observed variant count

    int coverage() const
    {
        return static_cast<int>(success_probs.size());
    }
};

/** One alignment column: N reads, observed variant count K. */
struct Column
{
    std::vector<double> success_probs; //!< per-read error probability
    int k = 0;                         //!< observed variant count

    int coverage() const
    {
        return static_cast<int>(success_probs.size());
    }

    /** A borrowed view of this column (valid while it lives). */
    ColumnView view() const
    {
        return {success_probs, k};
    }
};

/** A named dataset of columns (one of D0..D7). */
struct ColumnDataset
{
    std::string name;
    std::vector<Column> columns;
};

/**
 * Shape-only view of a column (coverage and variant count). The
 * performance model (Figures 7/8) needs only these, so full-scale
 * datasets (paper: average N = 309,189 over 222,131 columns) can be
 * generated without materializing billions of per-read
 * probabilities.
 */
struct ColumnStats
{
    int n = 0;
    int k = 0;
};

/** A dataset reduced to column shapes. */
struct DatasetStats
{
    std::string name;
    std::vector<ColumnStats> columns;

    uint64_t
    totalMulAdds() const
    {
        uint64_t total = 0;
        for (const auto &col : columns) {
            total += static_cast<uint64_t>(col.n) *
                     static_cast<uint64_t>(col.k > 0 ? col.k : 1);
        }
        return total;
    }
};

/** Generator configuration (defaults mirror the paper's profile). */
struct DatasetConfig
{
    int num_columns = 1000;
    /** Fraction of columns carrying a real variant (16205/222131). */
    double variant_fraction = 0.073;
    /** Median coverage (paper: 309,189; scaled for software runs). */
    double median_coverage = 1500.0;
    double coverage_sigma = 0.7; //!< lognormal sigma of coverage
    /** Mean Phred quality of the realistic read pool. */
    double mean_phred = 30.0;
    double phred_sigma = 5.0;
    uint64_t seed = 1;
};

/** Build one dataset with the paper's p-value magnitude spectrum. */
ColumnDataset makeDataset(const DatasetConfig &config,
                          const std::string &name);

/**
 * Stream-generate the columns of a dataset, invoking the sink once
 * per column in generation order. This is the serialization hook the
 * shard writer builds on: a full-size dataset can be written to disk
 * with O(column) — not O(dataset) — peak memory. makeDataset is this
 * generator with a vector-push sink, so the two produce identical
 * columns for identical configs.
 */
void generateColumns(const DatasetConfig &config,
                     const std::function<void(Column &&)> &sink);

/**
 * The eight evaluation datasets D0..D7 (Figure 7). Column counts are
 * scaled by `columns_per_dataset`; seeds differ per dataset so the
 * N / K mixes are "diversely distributed" as in the paper.
 */
std::vector<ColumnDataset> makePaperDatasets(int columns_per_dataset,
                                             uint64_t seed);

/**
 * Shape-only statistics of one dataset at the paper's real coverage
 * scale (median coverage defaults to ~220k reads so the dataset mean
 * lands near the reported 309,189). Used by the performance model.
 */
DatasetStats makeDatasetStats(const DatasetConfig &config,
                              const std::string &name);

/** Shape-only D0..D7 at full coverage scale. */
std::vector<DatasetStats> makePaperDatasetStats(int columns_per_dataset,
                                                uint64_t seed);

/**
 * An allele-fraction-threshold calling scan: every column is a
 * realistic background column (Phred-quality read pool, lognormal
 * coverage from `config`), but K is the caller's detection threshold
 * max(2, ceil of min_allele_fraction * N) instead of the observed
 * noise count. This is the LoFreq screening workload shape — "could
 * a variant at the minimum reportable fraction hide here?" asked of
 * every column in a region — and the multi-column regime the SoA
 * SIMD batch kernels target: thousands of columns whose K sits in a
 * handful of small classes. variant_fraction is ignored.
 */
ColumnDataset makeScanDataset(const DatasetConfig &config,
                              double min_allele_fraction,
                              const std::string &name);

/**
 * Target p-value magnitude (bits below 1.0, i.e. p ~ 2^-bits) of
 * one variant column, drawn to match the paper's critical-column
 * spectrum. The bands: 60% shallow-critical in [220, 1074) bits
 * (above 2^-1074), 35% in [1074, 10000), 4.5% log-uniform in
 * [1e4, 1e5), and 0.5% log-uniform in [1e5, 4.4e5] — which is
 * exactly "40% of variant columns below 2^-1,074 and 5% below
 * 2^-10,000, minimum near 2^-434,916" as the paper reports.
 */
double drawTargetBits(stats::Rng &rng);

/**
 * Synthesize a single variant column whose p-value magnitude lands
 * near 2^-target_bits. Used by the Figure 9 bench to guarantee
 * coverage of every magnitude bin.
 */
Column makeColumnWithTarget(stats::Rng &rng, double target_bits);

} // namespace pstat::pbd

#endif // PSTAT_PBD_DATASET_HH
