#include "vm/address_space.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gpummu {

namespace {
constexpr std::uint64_t kFramesPer2M = kPageSize2M / kPageSize4K;
} // namespace

AddressSpace::AddressSpace(PhysicalMemory &phys, bool use_large,
                           VirtAddr base, Asid asid)
    : phys_(phys), pt_(phys), useLarge_(use_large),
      next_(alignBase(base, use_large)), asid_(asid)
{
}

VirtAddr
AddressSpace::alignBase(VirtAddr base, bool use_large)
{
    const std::uint64_t page = use_large ? kPageSize2M : kPageSize4K;
    return (base + page - 1) & ~(page - 1);
}

VmRegion
AddressSpace::carve(VirtAddr &next, std::uint64_t bytes, bool use_large)
{
    const std::uint64_t page = use_large ? kPageSize2M : kPageSize4K;
    VmRegion region;
    region.base = next;
    region.bytes = (bytes + page - 1) & ~(page - 1);
    // Guard page between regions.
    next = region.end() + page;
    return region;
}

VmRegion
AddressSpace::mmap(const std::string &name, std::uint64_t bytes)
{
    GPUMMU_ASSERT(bytes > 0, "mmap of zero bytes: ", name);
    VmRegion region = carve(next_, bytes, useLarge_);
    region.name = name;
    region.lazy = lazyBacking_;

    if (lazyBacking_) {
        // Reserve only; frames arrive one minor fault at a time.
        GPUMMU_ASSERT(!useLarge_,
                      "lazy backing demand-pages at 4KB granularity; "
                      "2MB mappings emerge via coalescing");
    } else if (useLarge_) {
        for (VirtAddr va = region.base; va < region.end();
             va += kPageSize2M) {
            pt_.map2M(va >> kPageShift2M, phys_.allocLargeFrame());
        }
    } else {
        for (VirtAddr va = region.base; va < region.end();
             va += kPageSize4K) {
            pt_.map4K(va >> kPageShift4K, phys_.allocFrame());
        }
    }

    mappedBytes_ += region.bytes;
    regions_.push_back(region);
    return region;
}

bool
AddressSpace::dropPage(Vpn vpn)
{
    const auto tr = pt_.translate(vpn);
    if (!tr)
        return false;
    GPUMMU_ASSERT(!tr->isLarge,
                  "dropPage under a 2MB leaf; splinter or unmap2M first");
    pt_.unmap4K(vpn);
    auto it = lazyChunks_.find(vpn / kFramesPer2M);
    if (it != lazyChunks_.end() && it->second.populated > 0)
        --it->second.populated;
    return true;
}

std::uint64_t
AddressSpace::munmap(const VmRegion &region)
{
    const std::uint64_t removed =
        munmapRange(region.base, region.bytes);
    auto it = std::find_if(regions_.begin(), regions_.end(),
                           [&](const VmRegion &r) {
                               return r.base == region.base &&
                                      r.bytes == region.bytes;
                           });
    GPUMMU_ASSERT(it != regions_.end(), "munmap of unknown region ",
                  region.name);
    mappedBytes_ -= it->bytes;
    regions_.erase(it);
    return removed;
}

std::uint64_t
AddressSpace::munmapRange(VirtAddr base, std::uint64_t bytes)
{
    GPUMMU_ASSERT((base & (kPageSize4K - 1)) == 0 &&
                      (bytes & (kPageSize4K - 1)) == 0,
                  "munmapRange must be 4KB aligned");
    std::uint64_t removed = 0;
    const Vpn lo = base >> kPageShift4K;
    const Vpn hi = (base + bytes) >> kPageShift4K; // exclusive
    for (Vpn vpn = lo; vpn < hi;) {
        const std::uint64_t chunk = vpn / kFramesPer2M;
        const Vpn chunk_end = (chunk + 1) * kFramesPer2M;
        if (pt_.isLargeMapped(chunk)) {
            if (vpn == chunk * kFramesPer2M && chunk_end <= hi) {
                // Fully covered 2MB leaf: unmap whole.
                pt_.unmap2M(chunk);
                lazyChunks_.erase(chunk);
                removed += kFramesPer2M;
                vpn = chunk_end;
                continue;
            }
            // Partial unmap of a 2MB leaf: shootdown-splintering.
            pt_.splinter2M(chunk);
            if (auto it = lazyChunks_.find(chunk);
                it != lazyChunks_.end())
                it->second.populated = kFramesPer2M;
            if (listener_)
                listener_->onSplinter(asid_, chunk);
        }
        const Vpn stop = std::min(hi, chunk_end);
        for (; vpn < stop; ++vpn)
            if (dropPage(vpn))
                ++removed;
    }
    return removed;
}

bool
AddressSpace::isReserved(Vpn vpn) const
{
    const VirtAddr va = vpn << kPageShift4K;
    for (const auto &r : regions_)
        if (r.contains(va))
            return true;
    return false;
}

void
AddressSpace::faultIn(Vpn vpn)
{
    if (pt_.translate(vpn))
        return; // racing fault already serviced
    GPUMMU_ASSERT(isReserved(vpn), "fault on unreserved VPN ", vpn,
                  " (asid ", asid_, ")");
    const std::uint64_t chunk = vpn / kFramesPer2M;
    auto &c = lazyChunks_[chunk];
    if (c.populated == 0 && c.base == 0) {
        // First touch in this 2MB-aligned chunk: grab one contiguous
        // aligned 512-frame run so the chunk can later coalesce.
        c.base = phys_.allocLargeFrame();
        GPUMMU_ASSERT(c.base != 0, "frame 0 backs the root table");
    }
    pt_.map4K(vpn, c.base + (vpn % kFramesPer2M));
    ++c.populated;
    if (listener_)
        listener_->onDemandFault(asid_, vpn);
    if (c.populated == kFramesPer2M && pt_.coalesce2M(chunk)) {
        if (listener_)
            listener_->onCoalesce(asid_, chunk);
    }
}

} // namespace gpummu
