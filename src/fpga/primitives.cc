#include "fpga/primitives.hh"

#include <cmath>

namespace pstat::fpga
{

namespace
{

/**
 * Calibration note
 * ----------------
 * The coefficients below are the model's only free parameters. They
 * were fitted once so that the *composed* arithmetic units in
 * arith_units.cc reproduce the post-routing LUT/FF/DSP counts that
 * the paper reports in Table II for Vivado 2020.2 (LogiCORE IP v7.1
 * for binary64/LSE, MArTo for posits). Everything downstream — PE
 * costs (Figure 4), accelerator costs (Tables III/IV), units-per-SLR
 * packing — is *predicted* by composing these same primitives, not
 * re-fitted. The unit tests pin the composed units to Table II
 * within a tolerance band so the calibration cannot silently drift.
 */
constexpr double lut_per_shift_mux = 0.62; //!< barrel shifter stage cost
constexpr double lut_per_lzc_bit = 0.75;
constexpr double lut_per_add_bit = 1.0;
constexpr double lut_per_cmp_bit = 0.5;
constexpr double lut_per_mux_bit = 0.5;
constexpr double lut_mul_glue_per_bit = 1.0; //!< DSP stitching

int
clog2(int x)
{
    int bits = 0;
    while ((1 << bits) < x)
        ++bits;
    return bits;
}

} // namespace

Resource
barrelShifter(int width)
{
    Resource r;
    r.lut = lut_per_shift_mux * width * clog2(width);
    return r;
}

Resource
leadingZeroCounter(int width)
{
    Resource r;
    r.lut = lut_per_lzc_bit * width;
    return r;
}

Resource
adderInt(int width)
{
    Resource r;
    r.lut = lut_per_add_bit * width;
    return r;
}

Resource
comparator(int width)
{
    Resource r;
    r.lut = lut_per_cmp_bit * width;
    return r;
}

Resource
mux2(int width)
{
    Resource r;
    r.lut = lut_per_mux_bit * width;
    return r;
}

Resource
multiplierDsp(int a_bits, int b_bits)
{
    Resource r;
    // DSP48E2 offers a 27x18 signed multiplier; products tile.
    const int tiles_a = (a_bits + 26) / 27;
    const int tiles_b = (b_bits + 17) / 18;
    r.dsp = static_cast<double>(tiles_a) * tiles_b;
    r.lut = lut_mul_glue_per_bit * (a_bits + b_bits);
    return r;
}

Resource
delayLine(int width, int depth)
{
    Resource r;
    // SRL32: one LUT delays one bit by up to 32 cycles.
    r.lut = static_cast<double>(width) * ((depth + 31) / 32);
    r.reg = width; // output register
    return r;
}

Resource
expUnitB64()
{
    // LogiCORE-style double exp: range reduction multiply, polynomial
    // on DSPs, exponent reconstruction. Anchored so that the composed
    // LSE (2x exp + log + 3 adders + max) hits Table II.
    Resource r;
    r.lut = 900;
    r.reg = 1300;
    r.dsp = 17;
    return r;
}

Resource
logUnitB64()
{
    // Double ln: table + polynomial in LUT fabric (no DSP in the
    // configuration implied by Table II's LSE DSP count).
    Resource r;
    r.lut = 1040;
    r.reg = 900;
    r.dsp = 0;
    return r;
}

int
unitsPerSlr(const Resource &unit, double packing,
            const SlrBudget &budget)
{
    const double clb = clbCount(unit, packing);
    int fit = static_cast<int>(budget.clb / clb);
    auto cap = [&fit](double have, double need) {
        if (need > 0.0)
            fit = std::min(fit, static_cast<int>(have / need));
    };
    cap(budget.lut, unit.lut);
    cap(budget.reg, unit.reg);
    cap(budget.dsp, unit.dsp);
    cap(budget.sram, unit.sram);
    return fit;
}

} // namespace pstat::fpga
