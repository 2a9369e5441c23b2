/**
 * @file
 * IOMMU-style translation: the pre-unified-address-space alternative
 * the paper describes in Section 2.2.
 *
 * Today's discrete designs put one large TLB plus walkers *at the
 * memory controller* (Intel VT-d / AMD IOMMU), which leaves the GPU's
 * own caches virtually addressed. Translation therefore sits on the
 * L1-miss path instead of beside the L1: hits in the (virtual) L1
 * never translate, but every L1 miss from every core funnels through
 * this one shared structure.
 *
 * The paper argues against this organisation on programmability
 * grounds (synonyms/homonyms, context switches, coherence); this
 * model makes the *performance* side of that comparison measurable.
 */

#ifndef MMU_IOMMU_HH
#define MMU_IOMMU_HH

#include <concepts>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.hh"
#include "mmu/ptw.hh"
#include "mmu/tlb.hh"
#include "sim/arena.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "vm/address_space.hh"

namespace gpummu {

struct IommuConfig
{
    /** IOMMUs afford much larger TLBs than L1-parallel designs. */
    TlbConfig tlb{.entries = 1024, .ways = 8, .ports = 2,
                  .historyLength = 0};
    PtwConfig ptw{.numWalkers = 4, .scheduling = false};
    /** Lookup occupancy: one request per interval (pipelined CAM). */
    Cycle lookupInterval = 1;
    /** Fixed pipeline latency of a lookup at the controller. */
    Cycle lookupLatency = 8;
    /** Arm the differential reference checker (see MmuConfig). */
    bool checkInvariants = false;
};

class ProcessManager;

/**
 * One IOMMU shared by every shader core of the GPU.
 */
class Iommu
{
  public:
    /** Completion record of one translate() request: (frame base in
     *  4KB pages, cycle the translation is ready). */
    using DoneFn = RawCallback<std::uint64_t, Cycle>;

    Iommu(const IommuConfig &cfg, AddressSpace &as, MemorySystem &mem,
          EventQueue &eq);

    /**
     * Translate @p key for a request arriving at the controller at
     * @p now. The key is an ASID-composed 4KB VPN (plain VPN in
     * single-process runs, where the ASID half is 0). The callback
     * fires synchronously on a TLB hit and at walk completion
     * otherwise. In multi-process mode a touch of an
     * unmapped-but-reserved page raises a minor fault: the OS
     * handler's service latency elapses, the page is faulted in, and
     * the walk then proceeds (the retry).
     */
    void translate(Vpn key, Cycle now, DoneFn done);

    /** Callable form: @p done takes DoneFn's arguments. */
    template <NotRaw<DoneFn> F>
        requires std::invocable<F &, std::uint64_t, Cycle>
    void
    translate(Vpn key, Cycle now, F &&done)
    {
        translate(key, now, callables_.bind(std::forward<F>(done), 1));
    }

    /**
     * Enter multi-process mode: translate() keys may carry any ASID
     * registered with @p pm, each resolved against the owning
     * process's page table, and demand faults are serviced through
     * pm's OS cost model. The armed checker learns every process's
     * reference walker.
     */
    void attachProcesses(ProcessManager *pm);

    Tlb &tlb() { return tlb_; }
    PageWalkers &walkers() { return walkers_; }

    /** Kernel-end invariant check (no-op unarmed); see Mmu. */
    void checkEndOfKernel() const;

    /** The armed checker, or nullptr. */
    const InvariantChecker *checker() const { return checker_.get(); }

    /**
     * Arm the observers (observation-only); @p tid labels this unit.
     * The shared TLB gets the trace only: for spans, each requesting
     * core's memory stage opens the span when the request departs for
     * the controller, and this unit stamps the lookup / hit / merge /
     * fault / fill stages onto it (translate() keys already are span
     * keys). Walker stages ride the pool's own hooks at key shift 0.
     */
    void
    observe(const Probes &probes, int tid)
    {
        tlb_.observe(Probes{probes.trace, nullptr, nullptr}, tid);
        walkers_.observe(probes, tid);
        probes_ = probes;
        tid_ = tid;
    }

    void regStats(StatRegistry &reg, const std::string &prefix);

    std::uint64_t lookups() const { return tlb_.accesses(); }
    std::uint64_t hits() const { return tlb_.hits(); }

  private:
    /** The address space owning @p asid (as_ or one of pm_'s). */
    AddressSpace &spaceFor(Asid asid);

    /** Issue the page walk for @p key (post-lookup, post-fault). */
    void issueWalk(Vpn key, Cycle at);

    /** Walk-pool completion (ctx = this). */
    static void onWalkDone(void *ctx, Vpn vpn, Asid asid, Cycle finish);

    /** A minor fault's service time has elapsed (ctx = FaultRetry). */
    static void onFaultServiced(void *ctx, Cycle now);

    /** One key being translated. */
    struct Outstanding
    {
        Vpn key = 0;
        /** Cycle translate() saw the miss (miss-latency sample). */
        Cycle started = 0;
    };

    /** Arena-pooled minor-fault retry event payload. */
    struct FaultRetry
    {
        Iommu *iommu = nullptr;
        Vpn key = 0;
    };

    IommuConfig cfg_;
    AddressSpace &as_;
    EventQueue &eq_;
    ProcessManager *pm_ = nullptr;
    std::unique_ptr<InvariantChecker> checker_;
    Tlb tlb_;
    PageWalkers walkers_;
    Probes probes_;
    int tid_ = 0;
    Cycle portFreeAt_ = 0;

    /** Waiters for in-flight walks, merged per composed key. */
    WaitTable<Outstanding, DoneFn> outstanding_;
    CallableRecords<std::uint64_t, Cycle> callables_;
    Arena<FaultRetry> faultArena_;
    /** issueWalk() scratch: the one VPN of a walk request. */
    std::vector<Vpn> walkVpn_ = std::vector<Vpn>(1);

    Counter mergedWalks_;
    Histogram missLatency_;
};

} // namespace gpummu

#endif // MMU_IOMMU_HH
