/**
 * @file
 * Process address space: virtual region allocation over a private
 * page table. Regions are eagerly backed by default (workloads premap
 * their footprints, as the paper's do — page faults essentially never
 * fire there); lazy-backing mode reserves the range and populates
 * frames on first touch via faultIn() (minor-fault demand paging),
 * with Mosaic-style promotion of fully populated 2MB chunks.
 *
 * The shape mirrors the nouveau driver's nvkm_vm (one per-process GPU
 * address space owning its page-table tree and a list of nvkm_as
 * region nodes); our VmRegion plays the nvkm_as role.
 */

#ifndef VM_ADDRESS_SPACE_HH
#define VM_ADDRESS_SPACE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "vm/page_table.hh"
#include "vm/physical_memory.hh"

namespace gpummu {

/** A named mapped virtual region (one data structure of a workload). */
struct VmRegion
{
    std::string name;
    VirtAddr base = 0;
    std::uint64_t bytes = 0;
    /** Reserved but demand-paged: frames arrive via faultIn(). */
    bool lazy = false;

    VirtAddr end() const { return base + bytes; }
    bool
    contains(VirtAddr a) const
    {
        return a >= base && a < end();
    }
};

/**
 * Observer for OS-visible address-space events (demand faults,
 * large-page coalescing/splintering). ProcessManager implements this
 * to account stats; null means no observer.
 */
class VmEventListener
{
  public:
    virtual ~VmEventListener() = default;
    virtual void onDemandFault(Asid asid, Vpn vpn) = 0;
    virtual void onCoalesce(Asid asid, std::uint64_t vpn2m) = 0;
    virtual void onSplinter(Asid asid, std::uint64_t vpn2m) = 0;
};

class AddressSpace
{
  public:
    /**
     * @param phys        backing frame allocator
     * @param use_large   back regions with 2MB pages when true
     * @param base        first virtual address handed out
     * @param asid        owning address-space id (0 = legacy single
     *                    process; TLB keys stay uncomposed)
     */
    AddressSpace(PhysicalMemory &phys, bool use_large = false,
                 VirtAddr base = kDefaultBase, Asid asid = 0);

    /** First virtual address a space hands out by default. */
    static constexpr VirtAddr kDefaultBase = 0x10000000ULL;

    /** @p base rounded up to the page size: a fresh space's first
     *  free address. */
    static VirtAddr alignBase(VirtAddr base, bool use_large);

    /**
     * The span mmap() gives a region of @p bytes when the space's next
     * free address is @p next: page-rounded, with @p next advanced
     * past it and a guard page. Starting from alignBase() and carving
     * the regions in mmap order predicts a space's layout without
     * building it (the memtrace loader checks addresses this way).
     */
    static VmRegion carve(VirtAddr &next, std::uint64_t bytes,
                          bool use_large);

    /**
     * Allocate and eagerly back a region. The base is page aligned
     * (2MB aligned in large-page mode) and regions are separated by a
     * guard page so workload bugs trip the unmapped-walk assertion.
     * In lazy mode (setLazyBacking) the range is only reserved;
     * frames are populated by faultIn().
     */
    VmRegion mmap(const std::string &name, std::uint64_t bytes);

    /**
     * Tear down a whole region: unmap every present page (2MB leaves
     * whole, lazy holes skipped) and drop it from regions().
     * Returns the number of 4KB-page translations removed, for
     * shootdown accounting. The caller (ProcessManager) owns the TLB
     * shootdown that must accompany this.
     */
    std::uint64_t munmap(const VmRegion &region);

    /**
     * Unmap an arbitrary page-aligned subrange. 2MB leaves only
     * partially covered by the range are splintered first
     * (shootdown-splintering), fully covered ones are unmapped whole.
     * Returns the number of 4KB-page translations removed.
     */
    std::uint64_t munmapRange(VirtAddr base, std::uint64_t bytes);

    /** Reserve-only regions: subsequent mmaps demand-page via faultIn. */
    void setLazyBacking(bool lazy) { lazyBacking_ = lazy; }

    /** Is @p vpn inside a mapped-or-reserved region? */
    bool isReserved(Vpn vpn) const;

    /**
     * Service a minor fault on a reserved-but-unmapped 4KB page:
     * allocate backing and map it. Frames within one 2MB-aligned
     * chunk come from one contiguous 512-frame allocation, placed at
     * chunk-relative offsets, so a fully touched aligned chunk
     * coalesces into a 2MB mapping automatically (Mosaic). No-op when
     * the page is already mapped (two cores can race to fault).
     */
    void faultIn(Vpn vpn);

    void setEventListener(VmEventListener *l) { listener_ = l; }

    Asid asid() const { return asid_; }

    const PageTable &pageTable() const { return pt_; }
    PageTable &pageTable() { return pt_; }

    bool usesLargePages() const { return useLarge_; }

    const std::vector<VmRegion> &regions() const { return regions_; }

    /** Total bytes mapped so far. */
    std::uint64_t mappedBytes() const { return mappedBytes_; }

  private:
    /** Per-2MB-chunk demand-paging state (lazy regions only). */
    struct LazyChunk
    {
        Ppn base = 0;           ///< contiguous 512-frame allocation
        unsigned populated = 0; ///< 4KB pages mapped so far
    };

    /** Unmap the 4KB leaf at @p vpn if present; true when removed. */
    bool dropPage(Vpn vpn);

    PhysicalMemory &phys_;
    PageTable pt_;
    bool useLarge_;
    VirtAddr next_;
    Asid asid_;
    bool lazyBacking_ = false;
    std::uint64_t mappedBytes_ = 0;
    std::vector<VmRegion> regions_;
    std::unordered_map<std::uint64_t, LazyChunk> lazyChunks_;
    VmEventListener *listener_ = nullptr;
};

} // namespace gpummu

#endif // VM_ADDRESS_SPACE_HH
