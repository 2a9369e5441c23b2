/**
 * @file
 * Per-shader-core translation lookaside buffer.
 *
 * One TLB per shader core, shared by all SIMD lanes (the paper's
 * power/area-frugal choice). Set associative with true LRU; lookups
 * report the LRU depth of the hit, which TLB-conscious warp
 * scheduling (TCWS) weights into its lost-locality scores. Entries
 * carry a short warp-access history used by TLB-aware thread block
 * compaction's common page matrix.
 */

#ifndef MMU_TLB_HH
#define MMU_TLB_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "mem/set_assoc.hh"
#include "sim/probes.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/page_table.hh"

namespace gpummu {

class InvariantChecker;

struct TlbConfig
{
    std::size_t entries = 128; ///< paper baseline
    std::size_t ways = 4;
    unsigned ports = 4;        ///< lookups per cycle
    /** History length for the common page matrix (paper: 2). */
    unsigned historyLength = 2;
};

/** Payload stored per TLB entry. */
struct TlbEntryInfo
{
    Ppn ppn = 0;
    bool isLarge = false;
    /** Warp whose miss allocated this entry (TCWS victim tagging). */
    int allocWarp = -1;
    /** Last warps that hit this entry, most recent first; -1 empty. */
    std::array<int, 4> warpHistory{-1, -1, -1, -1};
    unsigned historyUsed = 0;
};

class Tlb
{
  public:
    struct LookupResult
    {
        bool hit = false;
        unsigned depth = 0; ///< LRU depth of the hit (0 = MRU)
        Ppn ppn = 0;
        bool isLarge = false;
        /** Warp history snapshot prior to this access. */
        std::array<int, 4> history{-1, -1, -1, -1};
        unsigned historyUsed = 0;
    };

    explicit Tlb(const TlbConfig &cfg);

    /**
     * Look up one VPN on behalf of a warp. Updates LRU and the warp
     * history on hits. Does not update hit/miss statistics for
     * re-probes after a walk (use @p record=false for those).
     */
    LookupResult lookup(Vpn vpn, int warp_id, bool record = true);

    /** Probe without any state change (scheduler what-if queries). */
    bool probe(Vpn vpn) const;

    /** Install a translation (walk completion). */
    void fill(Vpn vpn, const Translation &t, int alloc_warp = -1);

    /** Full flush (shootdown from the host CPU). Every discarded
     *  entry is reported through the eviction listener, exactly like
     *  a capacity eviction. */
    void flush();

    /**
     * Targeted shootdown: drop every entry whose (tag, payload)
     * matches @p pred, reporting each through the eviction listener.
     * Returns the number of entries invalidated (the per-entry
     * shootdown cost multiplier). Tags are ASID-composed keys in
     * multi-process runs.
     */
    std::size_t invalidateMatching(
        const std::function<bool(std::uint64_t,
                                 const TlbEntryInfo &)> &pred);

    /** (evicted VPN, warp that allocated the entry). */
    using EvictionListener = std::function<void(Vpn, int)>;

    /** Install the TCWS victim-tag hook (may be empty). */
    void
    setEvictionListener(EvictionListener fn)
    {
        onEvict_ = std::move(fn);
    }

    /**
     * Arm invariant checking: every fill is verified against the
     * reference translator and followed by a full-array sweep.
     * @p page_shift is the tag granularity (12 or 21).
     */
    void
    setChecker(InvariantChecker *chk, unsigned page_shift)
    {
        checker_ = chk;
        checkShift_ = page_shift;
    }

    /** One reference-equality + duplicate-tag sweep (no-op unarmed). */
    void checkSweep() const;

    /**
     * Arm the observers (trace, spans); @p tid labels this instance.
     * Every recorded lookup opens a span keyed by the composed tag;
     * hits close it immediately, misses leave it open for the walk
     * machinery's hooks downstream.
     */
    void
    observe(const Probes &probes, int tid)
    {
        probes_ = probes;
        tid_ = tid;
    }

    const TlbConfig &config() const { return cfg_; }

    void regStats(StatRegistry &reg, const std::string &prefix);

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const
    {
        return accesses_.value() - hits_.value();
    }
    std::uint64_t flushes() const { return flushes_.value(); }

  private:
    TlbConfig cfg_;
    SetAssocArray<TlbEntryInfo> array_;
    EvictionListener onEvict_;
    InvariantChecker *checker_ = nullptr;
    unsigned checkShift_ = kPageShift4K;
    Probes probes_;
    int tid_ = 0;

    Counter accesses_;
    Counter hits_;
    Counter flushes_;
};

} // namespace gpummu

#endif // MMU_TLB_HH
