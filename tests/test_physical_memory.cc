/**
 * @file
 * Unit tests for the physical frame allocator.
 */

#include <gtest/gtest.h>

#include <set>

#include "vm/physical_memory.hh"

using namespace gpummu;

TEST(PhysicalMemory, SequentialWithoutScramble)
{
    PhysicalMemory phys(100, /*scramble=*/false);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(phys.allocFrame(), i);
}

class ScrambleTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ScrambleTest, FramesAreUniqueAndInRange)
{
    const std::uint64_t n = GetParam();
    PhysicalMemory phys(n, /*scramble=*/true);
    std::set<Ppn> seen;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Ppn p = phys.allocFrame();
        ASSERT_LT(p, n);
        ASSERT_TRUE(seen.insert(p).second)
            << "duplicate frame " << p << " at allocation " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScrambleTest,
                         ::testing::Values(1, 2, 5, 6, 127, 128, 1000,
                                           4096, 10000));

TEST(PhysicalMemory, ScrambleActuallyPermutes)
{
    PhysicalMemory phys(1024, /*scramble=*/true);
    int in_place = 0;
    for (std::uint64_t i = 0; i < 1024; ++i)
        in_place += (phys.allocFrame() == i);
    EXPECT_LT(in_place, 64); // a real permutation moves nearly all
}

TEST(PhysicalMemory, SeedChangesPermutation)
{
    PhysicalMemory a(256, true, 1), b(256, true, 2);
    int same = 0;
    for (int i = 0; i < 256; ++i)
        same += (a.allocFrame() == b.allocFrame());
    EXPECT_LT(same, 32);
}

TEST(PhysicalMemory, LargeFrameIsAligned)
{
    PhysicalMemory phys(1 << 20, /*scramble=*/true);
    phys.allocFrame(); // misalign the bump pointer
    const std::uint64_t per_large = kPageSize2M / kPageSize4K;
    for (int i = 0; i < 4; ++i) {
        const Ppn base = phys.allocLargeFrame();
        EXPECT_EQ(base % per_large, 0u);
    }
}

TEST(PhysicalMemory, LargeFramesDoNotOverlap)
{
    PhysicalMemory phys(1 << 20, /*scramble=*/true);
    const std::uint64_t per_large = kPageSize2M / kPageSize4K;
    std::set<Ppn> bases;
    for (int i = 0; i < 8; ++i) {
        const Ppn base = phys.allocLargeFrame();
        EXPECT_TRUE(bases.insert(base / per_large).second);
    }
}

TEST(PhysicalMemoryDeathTest, ExhaustionPanics)
{
    // An input error (the workload outgrew the frame budget), not a
    // simulator bug: a one-line fatal with exit code 1.
    PhysicalMemory phys(2, false);
    phys.allocFrame();
    phys.allocFrame();
    EXPECT_EXIT(phys.allocFrame(), ::testing::ExitedWithCode(1),
                "out of physical memory");
    PhysicalMemory large(600, false);
    EXPECT_EXIT(
        {
            large.allocLargeFrame();
            large.allocLargeFrame();
        },
        ::testing::ExitedWithCode(1), "out of physical memory for a 2MB");
}
