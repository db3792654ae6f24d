/**
 * @file
 * Full accelerator designs and their performance model.
 *
 * A forward-algorithm unit is one fully pipelined PE (hardwired for a
 * given H) plus the shared infrastructure: DRAM prefetcher, AXI/DMA,
 * on-chip buffers for A/B/alpha, and control. A column unit packs
 * 8 PEs. Resources compose from the PE models (pe.hh) plus a shared
 * subsystem term; the cycle model follows Figure 5:
 *
 *   cycles = outer_loop_bound * (pipeline latency + PE latency)
 *
 * where the outer bound is T (VICAR) or N (LoFreq) and the pipeline
 * latency is the inner-loop issue count (H or K). The outer loop is
 * inherently sequential (alpha/pr data dependency), so consecutive
 * outer iterations do not overlap; the prefetcher runs concurrently
 * and only binds when the compute period drops below the DRAM access
 * interval (Section V-C: posit shifts the bottleneck toward the
 * prefetcher at small H).
 */

#ifndef PSTAT_FPGA_ACCELERATOR_HH
#define PSTAT_FPGA_ACCELERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/pe.hh"
#include "fpga/resource.hh"
#include "pbd/dataset.hh"

namespace pstat::fpga
{

/** Number format of an accelerator build. */
enum class Format
{
    Log,  //!< binary64 log-space (LSE) datapath
    Posit //!< posit(64, es) datapath
};

/** Evaluation clock of Section VI (all designs run at 300 MHz). */
constexpr double eval_clock_mhz = 300.0;

/** DRAM access interval per outer iteration (prefetcher model). */
constexpr int dram_cycles_per_fetch = 64;

/** A placed-and-routed accelerator design point. */
struct Design
{
    std::string name;
    Format format;
    int es = 0;        //!< posit ES (0 for log designs)
    int h = 0;         //!< forward units: hardwired H
    int num_pes = 1;   //!< column units: PE count
    PeModel pe;
    Resource res;      //!< whole-accelerator resources
    double packing;    //!< CLB packing factor (placement density)
    double fmax_mhz;

    double clb() const { return clbCount(res, packing); }
};

/** @name Design generators */
/// @{
/** Forward-algorithm unit for given H (paper: 13/32/64/128). */
Design makeForwardUnit(Format format, int h, int es = 18);

/** Column unit with `num_pes` PEs (paper: 8). */
Design makeColumnUnit(Format format, int num_pes = 8, int es = 12);
/// @}

/** @name Cycle / wall-clock model (Figure 5) */
/// @{
/**
 * Per-outer-iteration issue interval in cycles: H inner iterations
 * at the effective initiation interval, plus loop overhead. The
 * initiation interval degrades past H = 64 where staging moves to
 * block RAM and ports are shared (stronger for the deeper log
 * pipeline).
 */
double forwardIssueCycles(Format format, int h);

/** Total cycles for a forward run of T outer iterations. */
double forwardCycles(Format format, int h, uint64_t t_len);

/** Wall-clock seconds at the 300 MHz evaluation clock. */
double forwardSeconds(Format format, int h, uint64_t t_len);

/** Cycles for one column (N outer iterations, K-deep inner loop). */
double columnCycles(Format format, int coverage, int k);

/**
 * Wall-clock seconds for a whole dataset on a column unit with
 * `num_pes` PEs (columns are distributed across PEs).
 */
double datasetSeconds(Format format, const pbd::ColumnDataset &dataset,
                      int num_pes = 8);

/** Shape-only overload for full-coverage-scale datasets. */
double datasetSeconds(Format format, const pbd::DatasetStats &dataset,
                      int num_pes = 8);

/**
 * MMAPS: million multiply-and-add operations per second for a
 * dataset run (the paper's Figure 8 numerator), from its shape.
 */
double datasetMmaps(Format format, const pbd::DatasetStats &dataset,
                    int num_pes = 8);
/// @}

} // namespace pstat::fpga

#endif // PSTAT_FPGA_ACCELERATOR_HH
