/**
 * @file
 * Shared second-level TLB with translation MSHRs.
 *
 * One L2 TLB serves every shader core's L1 TLB miss path, sitting
 * between the per-core TLBs and the per-core page walker pools (the
 * shared-L2 design point of the heterogeneous-MMU studies the paper's
 * related work explores; see PAPERS.md). Three behaviours matter:
 *
 *  - a resident translation is returned after a port reservation plus
 *    the array hit latency, avoiding the page walk entirely;
 *  - a miss allocates a per-VPN translation MSHR; concurrent misses
 *    on the same VPN from *other* cores merge into that MSHR and are
 *    all woken by the single walk's fill (N misses -> 1 walk -> N
 *    wakeups, which the invariant checker verifies);
 *  - when the MSHR file is full the requester bypasses the L2: it
 *    walks on its own, and the completed translation is still
 *    installed so later requesters hit.
 *
 * The structure is a passive lookup/fill engine: it owns no walkers.
 * The Mmu that takes a miss issues the walk through its own pool and
 * calls fill() on completion, which wakes every registered waiter.
 * Like the Tlb, fills are cross-checked against the reference
 * translator when invariant checking is armed, and armed runs are
 * bit-identical to unarmed ones.
 */

#ifndef MMU_L2_TLB_HH
#define MMU_L2_TLB_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.hh"
#include "mem/set_assoc.hh"
#include "sim/arena.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/probes.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/page_table.hh"

namespace gpummu {

struct L2TlbConfig
{
    /** Off by default: the baseline design points have no L2 TLB. */
    bool enabled = false;
    /** Shared capacity (Kim et al. explore 512-8K shared entries). */
    std::size_t entries = 4096;
    std::size_t ways = 8;
    /** Concurrent lookups; cores contend for these. */
    unsigned ports = 2;
    /** Array access latency on a hit (larger + farther than an L1
     *  TLB, smaller than a page walk). */
    Cycle hitLatency = 8;
    /** Cycles one lookup occupies its port. */
    Cycle lookupInterval = 1;
    /** Translation MSHRs: distinct VPNs that may be in flight. */
    unsigned mshrs = 32;
    /** Arm the differential checker on fills and MSHR conservation. */
    bool checkInvariants = false;
};

class L2Tlb
{
  public:
    /** How one miss-path access was disposed. */
    enum class Outcome
    {
        Hit,      ///< resident; the callback is scheduled
        Merged,   ///< joined an in-flight MSHR; fill will wake it
        NeedWalk, ///< MSHR allocated; caller must walk, then fill()
        Bypass,   ///< MSHR file full; caller walks and fillBypass()es
    };

    struct AccessResult
    {
        Outcome outcome = Outcome::NeedWalk;
        /** Port-arbitrated cycle the lookup itself resolves; walks
         *  for NeedWalk/Bypass outcomes start no earlier. */
        Cycle ready = 0;
    };

    /** Wakeup: (tag, frame base in page units, large flag, cycle). */
    using WakeFn = RawCallback<Vpn, std::uint64_t, bool, Cycle>;

    /**
     * @param page_shift translation granularity of the run (12 or
     *        21); tags and frame bases are in this unit, matching the
     *        per-core L1 TLBs.
     */
    L2Tlb(const L2TlbConfig &cfg, const PageTable &pt, EventQueue &eq,
          unsigned page_shift);

    /**
     * One L1-TLB miss enters the shared L2. On a hit @p done is
     * scheduled at the returned ready cycle; on a merge it fires with
     * the owning walk's fill; otherwise the caller walks (starting no
     * earlier than the returned ready cycle) and completes the
     * protocol with fill() / fillBypass().
     */
    AccessResult access(Vpn tag, Cycle now, WakeFn done);

    /** Callable form of access(): @p done takes WakeFn's arguments. */
    template <NotRaw<WakeFn> F>
        requires std::invocable<F &, Vpn, std::uint64_t, bool, Cycle>
    AccessResult
    access(Vpn tag, Cycle now, F &&done)
    {
        const WakeFn raw = callables_.bind(std::forward<F>(done), 1);
        const AccessResult res = access(tag, now, raw);
        if (res.outcome == Outcome::Bypass)
            callables_.discard(raw); // a bypass registers no waiter
        return res;
    }

    /**
     * Walk completion for a NeedWalk outcome: install the
     * translation, retire the MSHR and wake every waiter at
     * @p ready.
     */
    void fill(Vpn tag, const Translation &t, Cycle ready);

    /** Walk completion for a Bypass outcome: install only (the
     *  walker's own requester completes itself). A concurrent MSHR
     *  for the tag - allocated after the bypass was granted - is
     *  untouched; its own fill() wakes its waiters. */
    void fillBypass(Vpn tag, const Translation &t, Cycle ready);

    /** Non-mutating residency probe (stall attribution, tests). */
    bool probe(Vpn tag) const { return array_.peek(tag) != nullptr; }

    /** Is a walk for @p tag in flight behind an MSHR? */
    bool mshrActive(Vpn tag) const { return mshrs_.find(tag) != nullptr; }

    std::size_t mshrsInUse() const { return mshrs_.size(); }

    /** Drop every resident translation (host shootdown). In-flight
     *  MSHRs are unaffected; their walks re-derive fresh entries. */
    void flush();

    /**
     * Targeted shootdown: drop every resident entry whose composed
     * tag matches @p pred, and *poison* matching in-flight MSHRs —
     * their walk read the page table before the unmap, so its fill()
     * still wakes the waiters (the translation was valid when the
     * walk was issued) but must not install a now-stale entry.
     * Returns the number of resident entries invalidated.
     */
    std::size_t invalidateMatching(
        const std::function<bool(std::uint64_t)> &pred);

    /** Tags poisoned by a shootdown whose fill has not landed yet. */
    std::size_t poisonedMshrs() const;

    /**
     * Register another process's page table with the armed checker
     * (multi-process runs fill with ASID-composed tags). No-op
     * unarmed.
     */
    void addCheckedSpace(Asid asid, const PageTable &pt);

    /** (evicted VPN tag, unused) - mirrors Tlb's listener shape. */
    using EvictionListener = std::function<void(Vpn)>;
    void
    setEvictionListener(EvictionListener fn)
    {
        onEvict_ = std::move(fn);
    }

    /** Arm the observers (trace, spans); @p tid labels this instance
     *  (-1 marks the GPU-wide shared structure). Each access stamps
     *  the requesting span with its port-arbitrated issue cycle and
     *  disposition (hit / merge / bypass / walk). */
    void
    observe(const Probes &probes, int tid)
    {
        probes_ = probes;
        tid_ = tid;
    }

    /**
     * Kernel-end invariants (no-op unarmed): every MSHR retired,
     * every waiter woken exactly once, every resident entry still
     * equal to its reference walk.
     */
    void checkEndOfKernel() const;

    /** The armed checker, or nullptr (tests assert check volumes). */
    const InvariantChecker *checker() const { return checker_.get(); }

    const L2TlbConfig &config() const { return cfg_; }
    unsigned pageShift() const { return pageShift_; }

    void regStats(StatRegistry &reg, const std::string &prefix);

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t mshrMerges() const { return mshrMerges_.value(); }
    std::uint64_t mshrBypasses() const
    {
        return mshrBypasses_.value();
    }
    std::uint64_t fills() const { return fills_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t flushes() const { return flushes_.value(); }

  private:
    /** Arbitrate the least-loaded lookup port at @p now. */
    Cycle reservePort(Cycle now);

    /** Install @p t, reporting eviction + running the armed sweep. */
    void install(Vpn tag, const Translation &t);

    /** Arena-pooled hit-completion event payload (scheduleRaw). */
    struct HitWake
    {
        L2Tlb *tlb = nullptr;
        Vpn tag = 0;
        Translation t;
        Cycle ready = 0;
        WakeFn done;
    };

    /** One translation MSHR. */
    struct Mshr
    {
        Vpn key = 0;
        /** Hit by a shootdown mid-walk: fill() wakes but does not
         *  install. */
        bool poisoned = false;
    };

    static void fireHitWake(void *ctx, Cycle now);

    L2TlbConfig cfg_;
    unsigned pageShift_;
    EventQueue &eq_;
    /** Before every member a pending HitWake could reference. */
    Arena<HitWake> hitArena_;
    std::unique_ptr<InvariantChecker> checker_;
    SetAssocArray<Translation> array_;
    std::vector<Cycle> portFreeAt_;

    /** In-flight translation MSHRs and their wakeup lists, at most
     *  cfg_.mshrs. The first waiter's Mmu owns the walk. */
    WaitTable<Mshr, WakeFn> mshrs_;
    CallableRecords<Vpn, std::uint64_t, bool, Cycle> callables_;

    EvictionListener onEvict_;
    Probes probes_;
    int tid_ = 0;

    Counter lookups_;
    Counter hits_;
    Counter mshrMerges_;
    Counter mshrBypasses_;
    Counter fills_;
    Counter evictions_;
    Counter flushes_;
    Histogram wakeupsPerFill_;
};

} // namespace gpummu

#endif // MMU_L2_TLB_HH
