/**
 * @file
 * Unit tests for the memory access coalescer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "gpu/coalescer.hh"
#include "mem/request.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

using namespace gpummu;

TEST(Coalescer, AdjacentLanesShareOneLine)
{
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(0x10000 + i * 4);
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    EXPECT_EQ(acc.pageDivergence(), 1u);
    EXPECT_EQ(acc.totalLines, 1u);
}

TEST(Coalescer, StridedLanesSplitLinesSamePage)
{
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(0x10000 + i * kLineSize);
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    EXPECT_EQ(acc.pageDivergence(), 1u);
    EXPECT_EQ(acc.totalLines, 8u);
}

TEST(Coalescer, PageDivergenceCountsDistinctPages)
{
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 4; ++i)
        addrs.push_back(0x10000 + i * kPageSize4K);
    addrs.push_back(0x10000); // duplicate page
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    EXPECT_EQ(acc.pageDivergence(), 4u);
}

TEST(Coalescer, LinesGroupedUnderTheirPage)
{
    std::vector<VirtAddr> addrs = {
        0x1000, 0x1100, 0x2000, 0x2200, 0x2200,
    };
    auto acc = coalesce(addrs, kLineShift, 12);
    ASSERT_EQ(acc.pages.size(), 2u);
    EXPECT_EQ(acc.pages[0].vpn, 0x1u);
    EXPECT_EQ(acc.pages[0].vlines.size(), 2u);
    EXPECT_EQ(acc.pages[1].vpn, 0x2u);
    EXPECT_EQ(acc.pages[1].vlines.size(), 2u);
    EXPECT_EQ(acc.totalLines, 4u);
}

TEST(Coalescer, MaxDivergenceOneLanePerPage)
{
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(static_cast<VirtAddr>(i) * 16 * kPageSize4K);
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    EXPECT_EQ(acc.pageDivergence(), 32u);
    EXPECT_EQ(acc.totalLines, 32u);
}

TEST(Coalescer, LargePageGranularityMergesPages)
{
    // Two 4KB pages inside the same 2MB page coalesce to one PTE.
    std::vector<VirtAddr> addrs = {0x10000, 0x10000 + kPageSize4K};
    auto small = coalesce(addrs, kLineShift, kPageShift4K);
    auto large = coalesce(addrs, kLineShift, kPageShift2M);
    EXPECT_EQ(small.pageDivergence(), 2u);
    EXPECT_EQ(large.pageDivergence(), 1u);
}

TEST(Coalescer, LineNeverSpansPages)
{
    // Every vline must belong to exactly the page it is grouped under.
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 64; ++i)
        addrs.push_back(0x40000 + static_cast<VirtAddr>(i) * 733);
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    for (const auto &pg : acc.pages) {
        for (auto vline : pg.vlines) {
            EXPECT_EQ((vline << kLineShift) >> kPageShift4K, pg.vpn);
        }
    }
}

namespace {

/** The nested-vector coalescer the flat one replaced: the reference. */
struct RefPage
{
    Vpn vpn;
    std::vector<std::uint64_t> vlines;
};

std::vector<RefPage>
referenceCoalesce(const std::vector<VirtAddr> &lane_addrs,
                  unsigned line_shift, unsigned page_shift)
{
    std::vector<RefPage> pages;
    for (VirtAddr va : lane_addrs) {
        const Vpn vpn = va >> page_shift;
        const std::uint64_t vline = va >> line_shift;
        auto pg = std::find_if(pages.begin(), pages.end(),
                               [vpn](const RefPage &p) {
                                   return p.vpn == vpn;
                               });
        if (pg == pages.end()) {
            pages.push_back({vpn, {vline}});
            continue;
        }
        if (std::find(pg->vlines.begin(), pg->vlines.end(), vline) ==
            pg->vlines.end())
            pg->vlines.push_back(vline);
    }
    return pages;
}

/** @p acc equals the reference in page order, per-page line order,
 *  and totals; its line views cover `lines` exactly. */
void
expectMatchesReference(const CoalescedAccess &acc,
                       const std::vector<VirtAddr> &lanes,
                       unsigned page_shift, const std::string &what)
{
    SCOPED_TRACE(what);
    const auto ref = referenceCoalesce(lanes, kLineShift, page_shift);
    ASSERT_EQ(acc.pages.size(), ref.size());
    std::size_t total = 0;
    const std::uint64_t *next = acc.lines.data();
    for (std::size_t p = 0; p < ref.size(); ++p) {
        EXPECT_EQ(acc.pages[p].vpn, ref[p].vpn);
        const auto &view = acc.pages[p].vlines;
        ASSERT_EQ(view.size(), ref[p].vlines.size());
        EXPECT_EQ(view.data(), next) << "views must tile `lines`";
        for (std::size_t l = 0; l < view.size(); ++l)
            EXPECT_EQ(view[l], ref[p].vlines[l]);
        next += view.size();
        total += ref[p].vlines.size();
    }
    EXPECT_EQ(acc.totalLines, total);
    EXPECT_EQ(acc.lines.size(), total);
}

/** Named lane-set generators over one seeded stream. */
std::vector<std::pair<std::string, std::vector<VirtAddr>>>
laneSets(Rng &rng, unsigned page_shift)
{
    const VirtAddr base = 0x7f0000000000ULL;
    const std::uint64_t page = 1ULL << page_shift;
    std::vector<std::pair<std::string, std::vector<VirtAddr>>> sets;

    const unsigned n = 1 + static_cast<unsigned>(rng.next() % 32);
    std::vector<VirtAddr> random;
    for (unsigned i = 0; i < n; ++i)
        random.push_back(base + rng.next() % (8 * page));
    sets.emplace_back("random " + std::to_string(n) + " lanes", random);

    std::vector<VirtAddr> one_line;
    const VirtAddr line = base + (rng.next() % page) / kLineSize * kLineSize;
    for (unsigned i = 0; i < 32; ++i)
        one_line.push_back(line + (rng.next() % kLineSize));
    sets.emplace_back("all lanes on one line", one_line);

    std::vector<VirtAddr> distinct;
    for (unsigned i = 0; i < 32; ++i)
        distinct.push_back(base + i * page + rng.next() % page);
    for (std::size_t i = distinct.size(); i > 1; --i)
        std::swap(distinct[i - 1], distinct[rng.next() % i]);
    sets.emplace_back("32 distinct pages", distinct);

    std::vector<VirtAddr> sequential;
    const VirtAddr start = base + rng.next() % (2 * page);
    for (unsigned i = 0; i < 32; ++i)
        sequential.push_back(start + i * 4);
    sets.emplace_back("sequential", sequential);

    std::vector<VirtAddr> strided;
    const std::uint64_t stride = 1 + rng.next() % 4096;
    for (unsigned i = 0; i < 32; ++i)
        strided.push_back(base + i * stride);
    sets.emplace_back("stride " + std::to_string(stride), strided);

    std::vector<VirtAddr> interleaved;
    const unsigned ways = 2 + static_cast<unsigned>(rng.next() % 4);
    for (unsigned i = 0; i < 32; ++i)
        interleaved.push_back(base + (i % ways) * 3 * page +
                              (i / ways) * kLineSize / 2);
    sets.emplace_back("interleaved " + std::to_string(ways) + " pages",
                      interleaved);
    return sets;
}

} // namespace

TEST(CoalescerProperty, FlatMatchesNestedReference)
{
    Rng rng(2024);
    // One CoalescedAccess reused across calls that shrink and grow:
    // a stale page->line view would show up as a mismatch.
    CoalescedAccess reused;
    for (unsigned page_shift : {kPageShift4K, kPageShift2M}) {
        for (int round = 0; round < 300; ++round) {
            for (const auto &[what, lanes] : laneSets(rng, page_shift)) {
                coalesceInto(reused, lanes, kLineShift, page_shift);
                expectMatchesReference(reused, lanes, page_shift,
                                       what + " (reused)");
                const CoalescedAccess fresh =
                    coalesce(lanes, kLineShift, page_shift);
                expectMatchesReference(fresh, lanes, page_shift, what);
            }
        }
    }
}

TEST(CoalescerProperty, MovedAccessKeepsItsViews)
{
    const std::vector<VirtAddr> lanes = {0x1000, 0x2000, 0x1080, 0x2100};
    CoalescedAccess a = coalesce(lanes, kLineShift, kPageShift4K);
    CoalescedAccess b = std::move(a);
    expectMatchesReference(b, lanes, kPageShift4K, "moved");
}
