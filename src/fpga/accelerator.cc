#include "fpga/accelerator.hh"

#include <algorithm>
#include <cmath>

namespace pstat::fpga
{

namespace
{

/**
 * Shared accelerator infrastructure: DRAM prefetcher, AXI DMA, host
 * control, and the A/B/alpha (or success-prob/pr) buffering that
 * every build instantiates regardless of format. The log designs
 * carry a second fixed slab for the shared LSE tail (final n-ary
 * reduction, wide max network) that has no posit counterpart.
 */
Resource
sharedSubsystem(Format format)
{
    Resource r;
    r.lut = format == Format::Log ? 12'000 : 6'000;
    r.reg = format == Format::Log ? 12'000 : 6'000;
    r.dsp = format == Format::Log ? 54 : 13;
    return r;
}

/**
 * On-chip memory (36Kb BRAM tiles) for a forward unit: A matrix,
 * B matrix, alpha ping-pong buffers and prefetch FIFOs. Buffer
 * depths are design-point choices made per H in the paper's builds;
 * the table reproduces those four design points and interpolates
 * in between. Posit builds bank slightly wider internal words
 * (+~4 tiles), matching the small SRAM excess in Table III.
 */
double
forwardSram(int h)
{
    struct Point { int h; double sram; };
    constexpr Point points[] = {
        {13, 43.0}, {32, 98.0}, {64, 250.0}, {128, 1'406.0}};
    if (h <= points[0].h)
        return points[0].sram;
    for (size_t i = 1; i < std::size(points); ++i) {
        if (h <= points[i].h) {
            const double f =
                static_cast<double>(h - points[i - 1].h) /
                (points[i].h - points[i - 1].h);
            return points[i - 1].sram +
                   f * (points[i].sram - points[i - 1].sram);
        }
    }
    return points[3].sram * h / 128.0;
}

/**
 * Past H = 64 the builds are close to SLR capacity and the tools
 * synthesize under area pressure: DSP use is capped (surplus
 * multipliers retarget to fabric) and per-lane logic shrinks. These
 * factors reproduce the flattening visible in Table III's H = 128
 * row.
 */
constexpr double log_pressure_lut = 0.67;
constexpr double posit_pressure_lut = 0.59;
constexpr double pressure_reg = 0.62;
constexpr double log_dsp_cap = 1'040.0;
constexpr double posit_dsp_cap = 602.0;

} // namespace

Design
makeForwardUnit(Format format, int h, int es)
{
    Design d;
    d.format = format;
    d.es = format == Format::Posit ? es : 0;
    d.h = h;
    d.num_pes = 1;
    d.pe = format == Format::Log ? forwardPeLog(h)
                                 : forwardPePosit(h, es);
    d.name = (format == Format::Log
                  ? std::string("Logarithm")
                  : "posit(64," + std::to_string(es) + ")") +
             " forward unit H=" + std::to_string(h);

    d.res = d.pe.res + sharedSubsystem(format);
    if (h > 64) {
        d.res.lut *= format == Format::Log ? log_pressure_lut
                                           : posit_pressure_lut;
        d.res.reg *= pressure_reg;
    }
    d.res.dsp = std::min(
        d.res.dsp,
        format == Format::Log ? log_dsp_cap : posit_dsp_cap);
    // Posit builds bank slightly wider internal words from H = 32 up
    // (Table III shows parity at H = 13, then a small posit excess).
    d.res.sram =
        forwardSram(h) +
        (format == Format::Posit && h >= 32 ? 4.0 : 0.0);

    // Packing density improves with design size (larger designs give
    // placement more co-location opportunities); slopes measured from
    // the paper's CLB/LUT ratios across H.
    const int lg = clog2(h);
    if (format == Format::Log)
        d.packing = 1.70 - 0.13 * std::max(0, lg - 4);
    else
        d.packing = 1.80 - 0.08 * std::max(0, lg - 4);
    // Routed clock degrades slowly with H (congestion).
    const double base = format == Format::Log ? 348.0 : 333.0;
    d.fmax_mhz = base - 3.0 * std::max(0, clog2(h) - 4) -
                 (h > 64 ? 13.0 : 0.0);
    return d;
}

Design
makeColumnUnit(Format format, int num_pes, int es)
{
    Design d;
    d.format = format;
    d.es = format == Format::Posit ? es : 0;
    d.h = 0;
    d.num_pes = num_pes;
    d.pe = format == Format::Log ? columnPeLog() : columnPePosit(es);
    d.name = (format == Format::Log
                  ? std::string("Logarithm")
                  : "posit(64," + std::to_string(es) + ")") +
             " column unit (" + std::to_string(num_pes) + " PEs)";

    d.res = d.pe.res * num_pes + sharedSubsystem(format);
    // Per-PE pr[] ping-pong buffers plus shared prefetch FIFOs. The
    // posit PEs bank slightly more (wider internal accumulators).
    d.res.sram = (format == Format::Log ? 25.0 : 27.0) * num_pes +
                 (format == Format::Log ? 36.0 : 42.0);

    // The paper's posit column unit placed at low density (BRAM-bank
    // adjacency spreads its slices): CLB/LUT ratios measured from
    // Table IV.
    d.packing = format == Format::Log ? 1.63 : 2.53;
    d.fmax_mhz = format == Format::Log ? 341.0 : 330.0;
    return d;
}

double
forwardIssueCycles(Format format, int h)
{
    // Effective initiation interval: 1 below H = 64; above, BRAM
    // staging port sharing stretches it (more for the deeper log
    // pipeline whose staging volume is larger).
    const double kappa = format == Format::Log ? 1.0 : 0.79;
    double ii = 1.0;
    if (h > 64)
        ii += (h - 64) * (0.8 / 64.0) * kappa;
    constexpr double outer_overhead = 12.0; // drain/copy per iteration
    return h * ii + outer_overhead;
}

double
forwardCycles(Format format, int h, uint64_t t_len)
{
    const PeModel pe =
        format == Format::Log ? forwardPeLog(h) : forwardPePosit(h, 18);
    // Sequential outer loop (Figure 5): issue + PE latency per outer
    // iteration; the prefetcher binds only if slower.
    const double per_outer =
        std::max(forwardIssueCycles(format, h) + pe.latency,
                 static_cast<double>(dram_cycles_per_fetch));
    return per_outer * static_cast<double>(t_len);
}

double
forwardSeconds(Format format, int h, uint64_t t_len)
{
    return forwardCycles(format, h, t_len) / (eval_clock_mhz * 1e6);
}

double
columnCycles(Format format, int coverage, int k)
{
    const int latency = format == Format::Log
                            ? columnPeLog().latency
                            : columnPePosit(12).latency;
    const double per_outer =
        std::max(static_cast<double>(std::max(k, 1) + latency),
                 static_cast<double>(dram_cycles_per_fetch));
    return per_outer * static_cast<double>(coverage);
}

double
datasetSeconds(Format format, const pbd::ColumnDataset &dataset,
               int num_pes)
{
    double total_cycles = 0.0;
    for (const auto &column : dataset.columns)
        total_cycles += columnCycles(format, column.coverage(),
                                     column.k);
    // Columns are distributed across PEs; with thousands of columns
    // the makespan is close to the even split.
    return total_cycles / num_pes / (eval_clock_mhz * 1e6);
}

double
datasetSeconds(Format format, const pbd::DatasetStats &dataset,
               int num_pes)
{
    double total_cycles = 0.0;
    for (const auto &column : dataset.columns)
        total_cycles += columnCycles(format, column.n, column.k);
    return total_cycles / num_pes / (eval_clock_mhz * 1e6);
}

double
datasetMmaps(Format format, const pbd::DatasetStats &dataset,
             int num_pes)
{
    const double seconds = datasetSeconds(format, dataset, num_pes);
    if (seconds <= 0.0)
        return 0.0;
    return static_cast<double>(dataset.totalMulAdds()) / seconds / 1e6;
}

} // namespace pstat::fpga
