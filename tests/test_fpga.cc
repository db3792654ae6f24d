/**
 * @file
 * FPGA model tests: Table II anchors, PE latency formulas (Figure 4),
 * accelerator resources (Tables III/IV) and the paper's headline
 * reduction bands, the cycle model (Figures 5-7), MMAPS per CLB
 * (Figure 8), and the discrete-event timeline cross-check.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "fpga/accelerator.hh"
#include "fpga/arith_units.hh"
#include "fpga/pe.hh"
#include "fpga/primitives.hh"
#include "fpga/timeline.hh"

namespace
{

using namespace pstat::fpga;

void
expectWithin(double got, double want, double tol_frac,
             const std::string &what)
{
    EXPECT_NEAR(got, want, std::fabs(want) * tol_frac) << what;
}

TEST(Table2, CalibratedAnchors)
{
    // The composed units must stay on the paper's post-routing
    // numbers (tolerance band guards against calibration drift).
    struct Want
    {
        const char *name;
        double lut, reg, dsp;
        int cycles;
    };
    const Want want[] = {
        {"binary64 add", 679, 587, 0, 6},
        {"Log add (binary64 LSE)", 5076, 5287, 34, 64},
        {"posit(64,12) add", 1064, 1005, 0, 8},
        {"posit(64,18) add", 1012, 974, 0, 8},
        {"binary64 mul", 213, 484, 6, 8},
        {"Log mul (binary64 add)", 679, 587, 0, 6},
        {"posit(64,12) mul", 618, 1004, 9, 12},
        {"posit(64,18) mul", 558, 969, 10, 12},
    };
    const auto units = table2Units();
    ASSERT_EQ(units.size(), 8u);
    for (size_t i = 0; i < units.size(); ++i) {
        EXPECT_EQ(units[i].name, want[i].name);
        expectWithin(units[i].res.lut, want[i].lut, 0.08,
                     units[i].name + " lut");
        expectWithin(units[i].res.reg, want[i].reg, 0.08,
                     units[i].name + " reg");
        EXPECT_NEAR(units[i].res.dsp, want[i].dsp, 0.5)
            << units[i].name;
        EXPECT_EQ(units[i].cycles, want[i].cycles) << units[i].name;
        EXPECT_GT(units[i].fmax_mhz, 300.0);
    }
}

TEST(Table2, HeadlineRatios)
{
    // "log-space addition is 10x slower and requires 8x as many LUTs
    // and FFs" (Section I).
    const auto lse = makeUnit(UnitKind::LseAdd);
    const auto add = makeUnit(UnitKind::B64Add);
    EXPECT_NEAR(static_cast<double>(lse.cycles) / add.cycles, 10.0,
                1.0);
    EXPECT_NEAR(lse.res.lut / add.res.lut, 8.0, 1.2);
    EXPECT_NEAR(lse.res.reg / add.res.reg, 8.0, 1.6);

    // Posit adders cost more than binary64 adders (~70% more LUTs
    // for ES=12) but far less than the LSE.
    const auto padd = makeUnit(UnitKind::PositAdd, 12);
    EXPECT_NEAR(padd.res.lut / add.res.lut, 1.703, 0.15);
    EXPECT_LT(padd.res.lut, lse.res.lut / 3.0);
}

TEST(Figure4, PeLatencyFormulas)
{
    for (int h : {13, 32, 64, 128}) {
        const int lg = clog2(h);
        EXPECT_EQ(forwardPeLog(h).latency, 62 + 9 * lg) << h;
        EXPECT_EQ(forwardPePosit(h, 18).latency, 24 + 8 * lg) << h;
        // Reduction of 38 + log2(H) cycles (Section V-C).
        EXPECT_EQ(forwardPeLog(h).latency -
                      forwardPePosit(h, 18).latency,
                  38 + lg)
            << h;
    }
    EXPECT_EQ(columnPeLog().latency, 73);
    EXPECT_EQ(columnPePosit(12).latency, 30);
}

TEST(Figure4, StageBreakdownSumsToLatency)
{
    for (int h : {13, 32, 64, 128}) {
        for (const auto &pe :
             {forwardPeLog(h), forwardPePosit(h, 18)}) {
            int sum = 0;
            for (const auto &stage : pe.stages)
                sum += stage.cycles;
            EXPECT_EQ(sum, pe.latency) << pe.name;
        }
    }
    for (const auto &pe : {columnPeLog(), columnPePosit(12)}) {
        int sum = 0;
        for (const auto &stage : pe.stages)
            sum += stage.cycles;
        EXPECT_EQ(sum, pe.latency) << pe.name;
    }
}

TEST(Table3, ForwardUnitResources)
{
    struct Row
    {
        int h;
        double log_clb, log_lut, log_reg, log_dsp, log_sram;
        double pos_clb, pos_lut, pos_reg, pos_dsp, pos_sram;
    };
    const Row rows[] = {
        {13, 14308, 68966, 61720, 275, 43, 6272, 26093, 32271, 143,
         43},
        {32, 27264, 145300, 119435, 560, 98, 12090, 55910, 67906,
         314, 102},
        {64, 47058, 273525, 216083, 1021, 250, 23187, 103948, 125875,
         602, 258},
        {128, 50690, 308719, 258834, 1040, 1406, 23775, 123011,
         157696, 602, 1410},
    };
    for (const auto &row : rows) {
        const Design log_unit = makeForwardUnit(Format::Log, row.h);
        const Design posit_unit =
            makeForwardUnit(Format::Posit, row.h, 18);
        const std::string tag = "H=" + std::to_string(row.h);
        expectWithin(log_unit.clb(), row.log_clb, 0.15, tag + " log clb");
        expectWithin(log_unit.res.lut, row.log_lut, 0.12,
                     tag + " log lut");
        expectWithin(log_unit.res.reg, row.log_reg, 0.15,
                     tag + " log reg");
        expectWithin(log_unit.res.dsp, row.log_dsp, 0.12,
                     tag + " log dsp");
        expectWithin(log_unit.res.sram, row.log_sram, 0.10,
                     tag + " log sram");
        expectWithin(posit_unit.clb(), row.pos_clb, 0.15,
                     tag + " posit clb");
        expectWithin(posit_unit.res.lut, row.pos_lut, 0.12,
                     tag + " posit lut");
        expectWithin(posit_unit.res.reg, row.pos_reg, 0.15,
                     tag + " posit reg");
        expectWithin(posit_unit.res.dsp, row.pos_dsp, 0.12,
                     tag + " posit dsp");
        expectWithin(posit_unit.res.sram, row.pos_sram, 0.10,
                     tag + " posit sram");
    }
}

TEST(Table3, ReductionBands)
{
    // The paper's reductions: CLB 50-57%, LUT 60-63%, registers
    // 39-48%, DSP 41-48%; SRAM near parity (0 to -5%).
    for (int h : {13, 32, 64, 128}) {
        const Design log_unit = makeForwardUnit(Format::Log, h);
        const Design posit_unit = makeForwardUnit(Format::Posit, h, 18);
        const double clb_red = 1.0 - posit_unit.clb() / log_unit.clb();
        const double lut_red =
            1.0 - posit_unit.res.lut / log_unit.res.lut;
        const double reg_red =
            1.0 - posit_unit.res.reg / log_unit.res.reg;
        const double dsp_red =
            1.0 - posit_unit.res.dsp / log_unit.res.dsp;
        EXPECT_GT(clb_red, 0.44) << h;
        EXPECT_LT(clb_red, 0.64) << h;
        EXPECT_GT(lut_red, 0.52) << h;
        EXPECT_LT(lut_red, 0.68) << h;
        EXPECT_GT(reg_red, 0.33) << h;
        EXPECT_LT(reg_red, 0.54) << h;
        EXPECT_GT(dsp_red, 0.35) << h;
        EXPECT_LT(dsp_red, 0.54) << h;
        EXPECT_NEAR(posit_unit.res.sram, log_unit.res.sram,
                    log_unit.res.sram * 0.06)
            << h;
    }
}

TEST(Table4, ColumnUnitResources)
{
    const Design log_unit = makeColumnUnit(Format::Log);
    const Design posit_unit = makeColumnUnit(Format::Posit);
    expectWithin(log_unit.clb(), 15476, 0.12, "log clb");
    expectWithin(log_unit.res.lut, 75894, 0.10, "log lut");
    expectWithin(log_unit.res.reg, 76300, 0.10, "log reg");
    expectWithin(log_unit.res.dsp, 386, 0.10, "log dsp");
    expectWithin(log_unit.res.sram, 236, 0.05, "log sram");
    expectWithin(posit_unit.clb(), 8619, 0.12, "posit clb");
    expectWithin(posit_unit.res.lut, 27270, 0.10, "posit lut");
    expectWithin(posit_unit.res.reg, 37963, 0.10, "posit reg");
    expectWithin(posit_unit.res.dsp, 153, 0.10, "posit dsp");
    expectWithin(posit_unit.res.sram, 258, 0.05, "posit sram");

    // Headline reductions: CLB 44%, LUT 64%, REG 50%, DSP 60%.
    EXPECT_NEAR(1.0 - posit_unit.res.lut / log_unit.res.lut, 0.641,
                0.05);
    EXPECT_NEAR(1.0 - posit_unit.res.dsp / log_unit.res.dsp, 0.604,
                0.07);
}

TEST(SlrPacking, MoreositUnitsFit)
{
    // Section VI-C: one SLR fits at most 4 log column units but can
    // easily fit 10 posit-based ones.
    const Design log_unit = makeColumnUnit(Format::Log);
    const Design posit_unit = makeColumnUnit(Format::Posit);
    const int log_fit =
        unitsPerSlr(log_unit.res, log_unit.packing);
    const int posit_fit =
        unitsPerSlr(posit_unit.res, posit_unit.packing);
    EXPECT_EQ(log_fit, 4);
    EXPECT_EQ(posit_fit, 10);
}

TEST(Figure6, ForwardPerformance)
{
    // Paper values at 300 MHz, T = 500,000:
    //   posit: 0.14 0.17 0.25 0.55 ; log: 0.21 0.25 0.32 0.66.
    const double want_posit[] = {0.14, 0.17, 0.25, 0.55};
    const double want_log[] = {0.21, 0.25, 0.32, 0.66};
    const int hs[] = {13, 32, 64, 128};
    for (int i = 0; i < 4; ++i) {
        const double tp =
            forwardSeconds(Format::Posit, hs[i], 500000);
        const double tl = forwardSeconds(Format::Log, hs[i], 500000);
        expectWithin(tp, want_posit[i], 0.12,
                     "posit H=" + std::to_string(hs[i]));
        expectWithin(tl, want_log[i], 0.12,
                     "log H=" + std::to_string(hs[i]));
    }
}

TEST(Figure6, ImprovementShrinksWithH)
{
    // 15-33% improvement, decreasing with H (Section VI-B).
    double prev = 1.0;
    for (int h : {13, 32, 64, 128}) {
        const double tp = forwardSeconds(Format::Posit, h, 500000);
        const double tl = forwardSeconds(Format::Log, h, 500000);
        const double improvement = 1.0 - tp / tl;
        EXPECT_GT(improvement, 0.15) << h;
        EXPECT_LT(improvement, 0.36) << h;
        EXPECT_LT(improvement, prev) << h;
        prev = improvement;
    }
}

TEST(Figure7, ColumnUnitsFasterWithPosit)
{
    // Full-coverage-scale shapes: the paper's 15-25% improvements.
    const auto datasets = pstat::pbd::makePaperDatasetStats(4000, 9);
    for (const auto &ds : datasets) {
        const double tp = datasetSeconds(Format::Posit, ds);
        const double tl = datasetSeconds(Format::Log, ds);
        const double improvement = 1.0 - tp / tl;
        EXPECT_GT(improvement, 0.12) << ds.name;
        EXPECT_LT(improvement, 0.28) << ds.name;
    }
}

TEST(Figure8, MmapsPerClbRoughlyDoubles)
{
    const auto datasets = pstat::pbd::makePaperDatasetStats(4000, 9);
    const Design log_unit = makeColumnUnit(Format::Log);
    const Design posit_unit = makeColumnUnit(Format::Posit);
    for (const auto &ds : datasets) {
        const double log_metric =
            datasetMmaps(Format::Log, ds) / log_unit.clb();
        const double posit_metric =
            datasetMmaps(Format::Posit, ds) / posit_unit.clb();
        const double ratio = posit_metric / log_metric;
        EXPECT_GT(ratio, 1.7) << ds.name;
        EXPECT_LT(ratio, 2.4) << ds.name;
    }
}

TEST(Timeline, MatchesClosedFormForward)
{
    for (int h : {13, 32, 64, 128}) {
        for (Format f : {Format::Log, Format::Posit}) {
            const uint64_t t_len = 10000;
            const auto sim = simulateForwardRun(f, h, t_len);
            const double formula = forwardCycles(f, h, t_len);
            // Agreement within the fill transient (first fetch).
            EXPECT_NEAR(static_cast<double>(sim.total_cycles),
                        formula, dram_cycles_per_fetch + 2)
                << "H=" << h;
        }
    }
}

TEST(Timeline, MatchesClosedFormColumn)
{
    for (int k : {1, 8, 60, 300}) {
        for (Format f : {Format::Log, Format::Posit}) {
            const auto sim = simulateColumnRun(f, 5000, k);
            const double formula = columnCycles(f, 5000, k);
            EXPECT_NEAR(static_cast<double>(sim.total_cycles),
                        formula, dram_cycles_per_fetch + 2)
                << "k=" << k;
        }
    }
}

TEST(Timeline, PrefetcherBindsTinyInnerLoops)
{
    // With K + latency below the DRAM interval, the prefetcher is
    // the bottleneck (Section V-C's observation about small H/K),
    // and posit hits this regime while log does not.
    const auto posit_sim = simulateColumnRun(Format::Posit, 2000, 20);
    EXPECT_GT(posit_sim.compute_stall_cycles, 0u);
    const auto log_sim = simulateColumnRun(Format::Log, 2000, 20);
    EXPECT_EQ(log_sim.compute_stall_cycles, 0u);
}

TEST(Designs, ResourcesMonotoneInH)
{
    for (Format f : {Format::Log, Format::Posit}) {
        double prev_lut = 0.0;
        double prev_sram = 0.0;
        for (int h : {8, 13, 16, 24, 32, 48, 64}) {
            const Design d = makeForwardUnit(f, h);
            EXPECT_GT(d.res.lut, prev_lut) << h;
            EXPECT_GE(d.res.sram, prev_sram) << h;
            prev_lut = d.res.lut;
            prev_sram = d.res.sram;
        }
    }
}

TEST(Designs, ColumnUnitScalesWithPeCount)
{
    for (Format f : {Format::Log, Format::Posit}) {
        const Design four = makeColumnUnit(f, 4);
        const Design eight = makeColumnUnit(f, 8);
        // Doubling PEs roughly doubles PE-bound resources but the
        // shared subsystem is amortized: between 1.5x and 2.0x.
        const double ratio = eight.res.lut / four.res.lut;
        EXPECT_GT(ratio, 1.5);
        EXPECT_LT(ratio, 2.05);
        // Throughput (dataset seconds) halves exactly in the model.
        pstat::pbd::DatasetStats ds;
        ds.columns = {{10000, 100}, {20000, 50}, {5000, 400}};
        EXPECT_NEAR(datasetSeconds(f, ds, 8) * 2.0,
                    datasetSeconds(f, ds, 4), 1e-9);
    }
}

TEST(Designs, MoreUnitsFitWhenSmaller)
{
    // unitsPerSlr is antitone in per-unit cost.
    const Design big = makeColumnUnit(Format::Log, 8);
    const Design small = makeColumnUnit(Format::Log, 4);
    EXPECT_GE(unitsPerSlr(small.res, small.packing),
              unitsPerSlr(big.res, big.packing));
}

TEST(Primitives, MonotoneCosts)
{
    EXPECT_GT(barrelShifter(64).lut, barrelShifter(32).lut);
    EXPECT_GT(adderInt(64).lut, adderInt(32).lut);
    EXPECT_GT(multiplierDsp(53, 53).dsp, multiplierDsp(27, 18).dsp);
    EXPECT_EQ(multiplierDsp(27, 18).dsp, 1.0);
    EXPECT_GT(delayLine(64, 100).lut, delayLine(64, 10).lut);
}

TEST(Primitives, ClbModel)
{
    Resource r;
    r.lut = 800;
    r.reg = 800;
    // LUT-dominated: 800/8 = 100 slices x packing.
    EXPECT_NEAR(clbCount(r, 1.7), 170.0, 1e-9);
    r.reg = 3200; // now register-dominated: 3200/16 = 200.
    EXPECT_NEAR(clbCount(r, 1.7), 340.0, 1e-9);
}

TEST(Designs, FmaxAboveEvalClock)
{
    // Every design must close timing at the 300 MHz evaluation clock.
    for (int h : {13, 32, 64, 128}) {
        EXPECT_GE(makeForwardUnit(Format::Log, h).fmax_mhz, 300.0);
        EXPECT_GE(makeForwardUnit(Format::Posit, h).fmax_mhz, 300.0);
    }
    EXPECT_GE(makeColumnUnit(Format::Log).fmax_mhz, 300.0);
    EXPECT_GE(makeColumnUnit(Format::Posit).fmax_mhz, 300.0);
}

} // namespace
