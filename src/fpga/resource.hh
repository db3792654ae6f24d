/**
 * @file
 * FPGA resource vectors and the CLB packing model.
 *
 * Resources are counted in the units Xilinx Vivado reports for the
 * UltraScale+ family (the paper's Alveo U250): LUTs, registers
 * (FFs), DSP48E2 slices, and 36Kb block-RAM tiles ("SRAM" in the
 * paper's tables). CLBs are a derived quantity: each UltraScale+ CLB
 * slice holds 8 LUTs and 16 FFs, and placed designs never pack
 * slices perfectly, so CLB usage is max(lut/8, reg/16) times an
 * empirically calibrated packing factor (per design, see
 * accelerator.cc).
 */

#ifndef PSTAT_FPGA_RESOURCE_HH
#define PSTAT_FPGA_RESOURCE_HH

#include <algorithm>
#include <cstdint>

namespace pstat::fpga
{

/** A bundle of FPGA resources (fractional during composition). */
struct Resource
{
    double lut = 0.0;
    double reg = 0.0;
    double dsp = 0.0;
    double sram = 0.0; //!< 36Kb BRAM tiles

    Resource &
    operator+=(const Resource &o)
    {
        lut += o.lut;
        reg += o.reg;
        dsp += o.dsp;
        sram += o.sram;
        return *this;
    }

    friend Resource
    operator+(Resource a, const Resource &b)
    {
        a += b;
        return a;
    }

    friend Resource
    operator*(Resource a, double k)
    {
        a.lut *= k;
        a.reg *= k;
        a.dsp *= k;
        a.sram *= k;
        return a;
    }

    friend Resource
    operator*(double k, Resource a)
    {
        return a * k;
    }
};

/** CLB slices on UltraScale+: 8 LUTs / 16 FFs per slice. */
constexpr double luts_per_clb = 8.0;
constexpr double regs_per_clb = 16.0;

/**
 * CLB usage of a placed design. packing > 1 models the slices that
 * placement cannot fill (routing congestion, control sets).
 */
inline double
clbCount(const Resource &r, double packing)
{
    return packing *
           std::max(r.lut / luts_per_clb, r.reg / regs_per_clb);
}

/**
 * Resources available to the dynamic region of one U250 SLR (die
 * slice) after the shell: ~88k usable slices, ~315k LUTs, 1,700
 * DSPs, and ~2,600 18Kb BRAM tiles (URAM-backed FIFOs included).
 */
struct SlrBudget
{
    double clb = 88'000;
    double lut = 315'000;
    double reg = 700'000;
    double dsp = 1'700;
    double sram = 2'600;
};

/** How many copies of a design fit in one SLR (CLB-dominated). */
int unitsPerSlr(const Resource &unit, double packing,
                const SlrBudget &budget = SlrBudget());

} // namespace pstat::fpga

#endif // PSTAT_FPGA_RESOURCE_HH
