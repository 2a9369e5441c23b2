/**
 * @file
 * Shared memory system: interconnect, L2 partitions and DRAM channels.
 *
 * The layout mirrors GPGPU-Sim's memory partitions as used by the
 * paper: the line address selects one of N partitions, each owning a
 * slice of the unified L2 and one DRAM channel. Timing is modelled as
 * fixed latencies plus busy-until queueing at the L2 slice and the
 * DRAM channel, so extra page-walk traffic visibly loads the system.
 */

#ifndef MEM_MEMORY_SYSTEM_HH
#define MEM_MEMORY_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/request.hh"
#include "mem/set_assoc.hh"
#include "sim/probes.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpummu {

struct MemorySystemConfig
{
    unsigned numPartitions = 8;       ///< memory channels (paper: 8)
    std::size_t l2BytesPerPartition = 128 * 1024; ///< paper: 128KB
    std::size_t l2Ways = 8;
    /** One-way shader-to-partition interconnect latency. */
    Cycle icntLatency = 12;
    /** L2 slice array access latency. */
    Cycle l2HitLatency = 24;
    /** DRAM access latency beyond the L2 (row mix folded in). */
    Cycle dramLatency = 140;
    /** L2 slice occupancy per request (bandwidth model). */
    Cycle l2ServiceInterval = 2;
    /** DRAM channel occupancy per request. */
    Cycle dramServiceInterval = 8;
    /**
     * Arbitrate page-walk traffic ahead of demand data (translation
     * responses unblock far more work per byte, so memory
     * controllers prioritize them). Walks still queue against other
     * walks, and can jump at most walkQueueCap cycles of the demand
     * backlog, so a saturated channel still slows them.
     */
    bool prioritizeWalks = true;
    Cycle l2WalkQueueCap = 48;
    Cycle dramWalkQueueCap = 120;
};

/**
 * The shared side of the hierarchy. Thread-unsafe by design; the
 * simulator is single threaded.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemorySystemConfig &cfg);

    /**
     * Timed access for one cache line from a shader core or PTW.
     *
     * @param line_addr line (not byte) address
     * @param is_write  write-through store when true
     * @param now       issue cycle
     * @param source    demand data vs. page walk, for stats
     * @return completion outcome; hit reflects the L2 slice.
     */
    AccessOutcome access(PhysAddr line_addr, bool is_write, Cycle now,
                         AccessSource source);

    /** Drop all cached lines (tests / kernel boundaries). */
    void flushL2();

    /** Register statistics under the given prefix. */
    void regStats(StatRegistry &reg, const std::string &prefix);

    /** Arm the observers (trace; observation-only). */
    void observe(const Probes &probes) { probes_ = probes; }

    // Aggregate statistics, exposed for experiment reports.
    std::uint64_t l2Accesses() const { return l2Accesses_.value(); }
    std::uint64_t l2Hits() const { return l2Hits_.value(); }
    std::uint64_t dramAccesses() const { return dramAccesses_.value(); }
    std::uint64_t walkAccesses() const { return walkAccesses_.value(); }
    std::uint64_t walkL2Hits() const { return walkL2Hits_.value(); }

  private:
    struct Partition
    {
        explicit Partition(const MemorySystemConfig &cfg)
            : l2(cfg.l2BytesPerPartition / kLineSize, cfg.l2Ways)
        {}

        SetAssocArray<char> l2;
        Cycle l2BusyUntil = 0;
        Cycle dramBusyUntil = 0;
        Cycle l2BusyUntilWalk = 0;
        Cycle dramBusyUntilWalk = 0;
    };

    std::size_t partitionIndex(PhysAddr line_addr) const;

    MemorySystemConfig cfg_;
    std::vector<Partition> partitions_;
    Probes probes_;

    Counter l2Accesses_;
    Counter l2Hits_;
    Counter dramAccesses_;
    Counter walkAccesses_;
    Counter walkL2Hits_;
    Counter writes_;
};

} // namespace gpummu

#endif // MEM_MEMORY_SYSTEM_HH
