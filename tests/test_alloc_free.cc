/**
 * @file
 * Steady-state allocation test for the memory-instruction path.
 *
 * Global operator new is replaced by a counting version. A MemoryStage
 * plus Mmu on the augmented preset (scheduled walker, overlapped cache
 * access, hit-under-miss), and a MemoryStage in IOMMU mode, are driven
 * by a seeded stream of warp memory instructions. After a warm-up, a
 * further stream that includes TLB hits, misses, TLB-busy bounces and
 * drains must perform no heap allocation at all: coalescing, walk
 * batches, completion records and the in-flight tables all reuse
 * their storage.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/presets.hh"
#include "gpu/memory_stage.hh"
#include "mmu/iommu.hh"
#include "sim/rng.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

// GCC pairs the inlined malloc above with these frees and misreads
// them as mismatched; they are the matching deallocators.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

using namespace gpummu;

namespace {

constexpr int kWarps = 8;
constexpr std::uint64_t kPages = 2048;

/** One warp slot of the driver: at most one instruction in flight. */
struct DriverWarp
{
    enum class State { Ready, WaitingMem, WaitingDrain };
    State state = State::Ready;
    Cycle readyAt = 0;
    CoalescedAccess access;
    bool hasAccess = false;
    std::uint64_t drains = 0;
};

/** Totals the window checks move. */
struct Counts
{
    std::uint64_t issued = 0;
    std::uint64_t bounces = 0;
    std::uint64_t hits = 0;
    std::uint64_t walks = 0;
    std::uint64_t drains = 0;
};

struct Rig
{
    Rig() : phys(1 << 20, false), as(phys), mem(MemorySystemConfig{})
    {
        region = as.mmap("d", kPages * kPageSize4K);
        lanes.reserve(kWarpWidth);
    }

    /**
     * Lane addresses of one instruction: mostly a hot set of pages
     * (TLB hits), sometimes a page anywhere in the region (misses),
     * one to four pages per instruction, lanes in line-sized runs.
     */
    void
    genLanes()
    {
        lanes.clear();
        const unsigned pages = 1 + static_cast<unsigned>(rng.next() % 4);
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
            if (lane % (kWarpWidth / pages) == 0) {
                const bool far = rng.next() % 100 < 12;
                page = far ? rng.next() % kPages : rng.next() % 24;
            }
            lanes.push_back(region.base + page * kPageSize4K +
                            (lane * 8 + (rng.next() % 4) * 256) %
                                kPageSize4K);
        }
    }

    /**
     * Drive @p stage for @p instrs issued instructions. Each cycle
     * every ready warp issues; a bounced warp waits for the MMU to
     * drain (when @p mmu is non-null).
     */
    void
    drive(MemoryStage &stage, Mmu *mmu, std::uint64_t instrs)
    {
        const std::uint64_t target = issued + instrs;
        while (issued < target) {
            for (DriverWarp &w : warps) {
                if (w.state != DriverWarp::State::Ready ||
                    w.readyAt > now)
                    continue;
                if (!w.hasAccess) {
                    genLanes();
                    stage.coalesce(w.access, lanes);
                    w.hasAccess = true;
                }
                DriverWarp *wp = &w;
                w.state = DriverWarp::State::WaitingMem;
                const MemIssueResult res = stage.issue(
                    static_cast<int>(&w - warps), false, w.access, now,
                    [wp](Cycle ready) {
                        wp->state = DriverWarp::State::Ready;
                        wp->readyAt = ready;
                    });
                if (res == MemIssueResult::BlockedTlbBusy) {
                    w.state = DriverWarp::State::WaitingDrain;
                    mmu->onDrain([wp]() {
                        ++wp->drains;
                        wp->state = DriverWarp::State::Ready;
                    });
                    continue;
                }
                w.hasAccess = false;
                ++issued;
            }
            eq.runUntil(now);
            ++now;
        }
    }

    PhysicalMemory phys;
    AddressSpace as;
    MemorySystem mem;
    EventQueue eq;
    VmRegion region;
    Rng rng{42};
    std::uint64_t page = 0;
    std::vector<VirtAddr> lanes;
    DriverWarp warps[kWarps];
    std::uint64_t issued = 0;
    Cycle now = 0;
};

/** Allocations made by @p fn. */
template <typename F>
std::size_t
allocationsDuring(F &&fn)
{
    g_allocs.store(0);
    g_counting.store(true);
    fn();
    g_counting.store(false);
    return g_allocs.load();
}

} // namespace

TEST(AllocFree, CountingOperatorNewSeesAllocations)
{
    const std::size_t n = allocationsDuring([] {
        std::vector<int> v(100);
        EXPECT_EQ(v.size(), 100u);
    });
    EXPECT_EQ(n, 1u);
}

TEST(AllocFree, MmuMissPathSteadyStateAllocatesNothing)
{
    Rig rig;
    const CoreConfig core = presets::augmentedTlb().core;
    ASSERT_TRUE(core.mmu.hitUnderMiss);
    ASSERT_TRUE(core.mmu.cacheOverlap);
    ASSERT_TRUE(core.mmu.ptw.scheduling);
    Mmu mmu(core.mmu, rig.as, rig.mem, rig.eq);
    L1Cache l1(core.l1, rig.mem);
    MemoryStage stage(mmu, l1, rig.eq);

    rig.drive(stage, &mmu, 6000);

    auto snapshot = [&] {
        Counts c;
        c.issued = stage.memInstructions();
        c.bounces = stage.tlbBusyBounces();
        c.hits = mmu.tlb().hits();
        c.walks = mmu.walkers().walksCompleted();
        for (const DriverWarp &w : rig.warps)
            c.drains += w.drains;
        return c;
    };
    const Counts before = snapshot();
    const std::size_t allocs =
        allocationsDuring([&] { rig.drive(stage, &mmu, 1500); });
    const Counts after = snapshot();

    EXPECT_GE(after.issued - before.issued, 1000u);
    EXPECT_GT(after.hits, before.hits);
    EXPECT_GT(after.walks, before.walks);
    EXPECT_GT(after.bounces, before.bounces);
    EXPECT_GT(after.drains, before.drains);
    EXPECT_EQ(allocs, 0u);

    // Let the last instructions finish before teardown.
    rig.eq.runUntil(rig.now + 1'000'000);
}

TEST(AllocFree, IommuPathSteadyStateAllocatesNothing)
{
    Rig rig;
    MmuConfig off;
    off.enabled = false;
    Mmu mmu(off, rig.as, rig.mem, rig.eq);
    Iommu iommu(IommuConfig{}, rig.as, rig.mem, rig.eq);
    L1Cache l1(L1CacheConfig{}, rig.mem);
    MemoryStage stage(mmu, l1, rig.eq);
    stage.setIommu(&iommu);

    rig.drive(stage, nullptr, 6000);

    const std::uint64_t issued0 = stage.memInstructions();
    const std::uint64_t hits0 = iommu.hits();
    const std::uint64_t walks0 = iommu.walkers().walksCompleted();
    const std::size_t allocs =
        allocationsDuring([&] { rig.drive(stage, nullptr, 1500); });

    EXPECT_GE(stage.memInstructions() - issued0, 1000u);
    EXPECT_GT(iommu.hits(), hits0);
    EXPECT_GT(iommu.walkers().walksCompleted(), walks0);
    EXPECT_EQ(allocs, 0u);

    rig.eq.runUntil(rig.now + 1'000'000);
}
