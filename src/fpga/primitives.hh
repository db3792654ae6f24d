/**
 * @file
 * Resource cost model for FPGA logic primitives.
 *
 * Each function estimates the post-routing LUT/FF/DSP cost of a
 * datapath building block on UltraScale+, as produced by Vivado
 * 2020.2 for HLS-generated RTL. The coefficients are calibrated once
 * (see the calibration note in primitives.cc) so that the composed
 * arithmetic units of arith_units.cc land on the paper's Table II
 * post-routing numbers; the same primitives then *predict* the PE
 * and accelerator costs of Tables III/IV.
 */

#ifndef PSTAT_FPGA_PRIMITIVES_HH
#define PSTAT_FPGA_PRIMITIVES_HH

#include "fpga/resource.hh"

namespace pstat::fpga
{

/** Logarithmic barrel shifter (width w): ~w*log2(w) 2:1 muxes. */
Resource barrelShifter(int width);

/** Leading-zero / leading-one counter over w bits. */
Resource leadingZeroCounter(int width);

/** Ripple/carry-chain integer adder or subtractor, w bits. */
Resource adderInt(int width);

/** Magnitude comparator, w bits. */
Resource comparator(int width);

/** Two-input mux of w bits. */
Resource mux2(int width);

/**
 * Pipelined multiplier tiled onto DSP48E2 slices (27x18 signed
 * cores) with LUT glue for partial-product stitching.
 */
Resource multiplierDsp(int a_bits, int b_bits);

/**
 * Delay line of `depth` cycles for a w-bit value, implemented in
 * SRL32 shift-register LUTs (how HLS balances dataflow paths).
 */
Resource delayLine(int width, int depth);

/**
 * Double-precision exponential core in the LogiCORE style:
 * range reduction, polynomial evaluation on DSPs, table lookup,
 * reconstruction shift.
 */
Resource expUnitB64();

/**
 * Double-precision natural-log core (table + polynomial, LUT-heavy,
 * no DSP in the configuration the paper's numbers imply).
 */
Resource logUnitB64();

} // namespace pstat::fpga

#endif // PSTAT_FPGA_PRIMITIVES_HH
