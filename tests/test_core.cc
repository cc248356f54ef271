/**
 * @file
 * Core trace-driver tests: accounting and warmup isolation.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "hw/core.hh"

namespace ctg
{
namespace
{

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : kernel(makeConfig()), tables(kernel)
    {
        // One code page, one data page.
        EXPECT_TRUE(tables.map(0x10, 0x100, 0));
        EXPECT_TRUE(tables.map(0x20, 0x200, 0));
    }

    static KernelConfig
    makeConfig()
    {
        KernelConfig config;
        config.memBytes = 256_MiB;
        config.kernelTextBytes = 2_MiB;
        return config;
    }

    Core::TraceFn
    fixedTrace()
    {
        return [] {
            Core::Op op;
            op.codeAddr = Addr{0x10} << pageShift;
            op.dataAddr = Addr{0x20} << pageShift;
            return op;
        };
    }

    Kernel kernel;
    PageTables tables;
    HwSystem hw;
};

TEST_F(CoreTest, AccountsOpsAndCycles)
{
    Core core(hw, 0, tables, 10);
    core.run(fixedTrace(), 100);
    EXPECT_EQ(core.stats().ops, 100u);
    // At minimum the compute cost accrues per op.
    EXPECT_GE(core.stats().totalCycles, 100u * 10u);
    EXPECT_GT(core.stats().cyclesPerOp(), 10.0);
}

TEST_F(CoreTest, FirstOpWalksThenTlbHits)
{
    Core core(hw, 0, tables, 10);
    core.run(fixedTrace(), 50);
    // Exactly one walk each for the code and data pages.
    EXPECT_EQ(core.stats().instrWalks, 1u);
    EXPECT_EQ(core.stats().dataWalks, 1u);
    EXPECT_GT(core.stats().instrWalkCycles, 0u);
}

TEST_F(CoreTest, WarmupDoesNotCount)
{
    Core core(hw, 0, tables, 10);
    core.warmup(fixedTrace(), 20);
    EXPECT_EQ(core.stats().ops, 0u);
    core.run(fixedTrace(), 10);
    EXPECT_EQ(core.stats().ops, 10u);
    // Walks happened during warmup; none during the measured run.
    EXPECT_EQ(core.stats().instrWalks, 0u);
    EXPECT_EQ(core.stats().dataWalks, 0u);
}

TEST_F(CoreTest, StoresPropagateValues)
{
    Core core(hw, 0, tables, 1);
    std::uint64_t counter = 0;
    const Core::TraceFn trace = [&counter] {
        Core::Op op;
        op.codeAddr = Addr{0x10} << pageShift;
        op.dataAddr = Addr{0x20} << pageShift;
        op.isWrite = true;
        op.writeValue = ++counter;
        return op;
    };
    core.run(trace, 5);
    EXPECT_EQ(hw.mem().authoritativeValue(Addr{0x200} << pageShift),
              5u);
}

} // namespace
} // namespace ctg
