/**
 * @file
 * Tests for the exhibit grids (bench/exhibits.hh): a sample keeps the
 * values it names, in its own order, and rejects any value that is
 * not on the exhibit's axis, so a calibration cell is always one of
 * the exhibit's own cells.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/exhibits.hh"

namespace spk
{
namespace
{

TEST(ExhibitGrids, SampleKeepsItsValuesInItsOrder)
{
    const bench::Grid grid = bench::sampleGrid(
        "fig17", bench::fig17Grid(),
        {.traces = {"64", "4"}, .variants = {"64-GC"}});
    EXPECT_EQ(grid.axes.traces, (std::vector<std::string>{"64", "4"}));
    EXPECT_EQ(grid.axes.variants, std::vector<std::string>{"64-GC"});
    // An axis the sample leaves empty stays whole.
    EXPECT_EQ(grid.axes.schedulers, bench::fig17Grid().axes.schedulers);
}

TEST(ExhibitGrids, SampledCellIsTheExhibitsCellAtFewerIos)
{
    const auto cell = [](const bench::Grid &grid) {
        SweepPoint p;
        p.trace = "64";
        p.scheduler = SchedulerKind::PAS;
        p.seed = grid.axes.seeds.front();
        p.variant = "64-GC";
        return grid.build(p);
    };
    DeviceJob full = cell(bench::fig17Grid());
    DeviceJob sample = cell(bench::fig17Grid(bench::bytesBudget(2ull << 20)));
    EXPECT_EQ(full.trace.size(), 128u); // 8 MB of 64 KB I/Os
    EXPECT_EQ(sample.trace.size(), 32u);
    EXPECT_EQ(sample.trace[0].sizeBytes, 64u << 10);
    EXPECT_EQ(full.trace[0].offsetBytes, sample.trace[0].offsetBytes);
    // Everything else the cell cache keys a cell by is the same.
    full.trace = {};
    sample.trace = {};
    EXPECT_TRUE(full.preconditionGc);
    EXPECT_EQ(CellCache::keyOf(full), CellCache::keyOf(sample));
}

TEST(ExhibitGrids, SampleRejectsAValueOffTheExhibitsAxis)
{
    EXPECT_EXIT(bench::sampleGrid("fig16", bench::fig16Grid(),
                                  {.variants = {"256"}}),
                testing::ExitedWithCode(1),
                "fig16: 256 is not on the variant axis");
    EXPECT_EXIT(bench::sampleGrid("fig13", bench::fig13Grid(),
                                  {.schedulers = {SchedulerKind::SPK1}}),
                testing::ExitedWithCode(1),
                "fig13: SPK1 is not on the scheduler axis");
    EXPECT_EXIT(bench::sampleGrid("fig19", bench::fig19Grid(),
                                  {.faults = {0.5}}),
                testing::ExitedWithCode(1),
                "fig19: 0.5 is not on the fault axis");
}

} // namespace
} // namespace spk
