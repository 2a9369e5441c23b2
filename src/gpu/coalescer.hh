/**
 * @file
 * Memory access coalescer.
 *
 * The address generator's lane addresses are reduced to (1) unique
 * cache-line references and (2) unique page (PTE) references, exactly
 * the two sets the paper presents in parallel to the L1 and the TLB.
 * The per-page grouping of lines is kept so that overlapped cache
 * access can release a page's lines as soon as its walk finishes.
 *
 * The result is flat: one line array, grouped by page, plus one
 * {vpn, line view} record per page. Pages and each page's lines keep
 * their order of first appearance among the lanes. A warm
 * CoalescedAccess is refilled without heap allocation.
 */

#ifndef GPU_COALESCER_HH
#define GPU_COALESCER_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hh"

namespace gpummu {

struct CoalescedAccess
{
    struct PageGroup
    {
        Vpn vpn;
        /** Unique virtual line addresses (byte addr >> line shift):
         *  a view into CoalescedAccess::lines. */
        std::span<const std::uint64_t> vlines;
    };

    CoalescedAccess() = default;
    /** The page views point into `lines`: a copy would alias the
     *  source's storage, so only moves (which keep it) are allowed. */
    CoalescedAccess(const CoalescedAccess &) = delete;
    CoalescedAccess &operator=(const CoalescedAccess &) = delete;
    CoalescedAccess(CoalescedAccess &&) = default;
    CoalescedAccess &operator=(CoalescedAccess &&) = default;

    std::vector<PageGroup> pages;
    /** Every unique line, page by page. */
    std::vector<std::uint64_t> lines;
    std::size_t totalLines = 0;

    /** Page divergence: distinct translations the warp needs. */
    std::size_t pageDivergence() const { return pages.size(); }
};

/**
 * Coalesce @p lane_addrs into the reused @p out. @p line_shift is the
 * cache line shift and @p page_shift the translation granularity
 * (12 or 21).
 */
inline void
coalesceInto(CoalescedAccess &out, const std::vector<VirtAddr> &lane_addrs,
             unsigned line_shift, unsigned page_shift)
{
    out.pages.clear();
    out.lines.clear();
    // At most one line per lane: with this capacity the inserts
    // below never reallocate, so the page views stay valid as they
    // are built.
    out.lines.reserve(lane_addrs.size());
    const std::uint64_t *base = out.lines.data();
    std::size_t page = 0; // index of the previous lane's page
    bool have_line = false;
    std::uint64_t last_line = 0;
    for (VirtAddr va : lane_addrs) {
        const std::uint64_t vline = va >> line_shift;
        if (have_line && vline == last_line)
            continue; // adjacent lanes usually share a line
        have_line = true;
        last_line = vline;
        const Vpn vpn = va >> page_shift;
        if (out.pages.empty() || out.pages[page].vpn != vpn) {
            page = 0;
            while (page < out.pages.size() && out.pages[page].vpn != vpn)
                ++page;
        }
        if (page == out.pages.size()) {
            out.lines.push_back(vline);
            out.pages.push_back({vpn, {base + out.lines.size() - 1, 1}});
            continue;
        }
        auto &own = out.pages[page].vlines;
        if (std::find(own.begin(), own.end(), vline) != own.end())
            continue;
        // Append to this page's run; later pages shift up by one.
        const auto at = static_cast<std::ptrdiff_t>(own.data() - base) +
                        static_cast<std::ptrdiff_t>(own.size());
        out.lines.insert(out.lines.begin() + at, vline);
        own = {own.data(), own.size() + 1};
        for (std::size_t p = page + 1; p < out.pages.size(); ++p) {
            auto &v = out.pages[p].vlines;
            v = {v.data() + 1, v.size()};
        }
    }
    out.totalLines = out.lines.size();
}

/**
 * Legacy signature with a retired spare-buffer list, which the flat
 * layout no longer needs. Its only caller is the layer benchmark
 * (perfbench/drivers.cc).
 */
inline void
coalesceInto(CoalescedAccess &out,
             std::vector<std::vector<std::uint64_t>> &,
             const std::vector<VirtAddr> &lane_addrs,
             unsigned line_shift, unsigned page_shift)
{
    coalesceInto(out, lane_addrs, line_shift, page_shift);
}

/** Coalesce into a fresh CoalescedAccess. */
inline CoalescedAccess
coalesce(const std::vector<VirtAddr> &lane_addrs, unsigned line_shift,
         unsigned page_shift)
{
    CoalescedAccess out;
    coalesceInto(out, lane_addrs, line_shift, page_shift);
    return out;
}

} // namespace gpummu

#endif // GPU_COALESCER_HH
