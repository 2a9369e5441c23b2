/**
 * @file
 * Host-speed reference: a fixed amount of simulator-shaped work, timed
 * between the simulated points so that host time can be reported at a
 * fixed host speed.
 *
 * The host this benchmark runs on is shared: its speed drifts by 20-60%
 * over minutes (README.md, "Noise"), which no statistic over one run
 * removes. The engine times reference chunks in the same process and
 * thread, between the measured stretches of the same run, so they see
 * the same host speed; run.py divides host times by the mean chunk
 * time (README.md, "Host times are at a fixed reference speed").
 *
 * The kernel lives in this directory, not in src/, so that a change to
 * the simulator cannot change it. It mimics the simulator's inner
 * loops: per-warp lane address generation, page and line coalescing, a
 * linear fully-associative TLB scan, a hash-map page table, a
 * set-associative cache with LRU ages and a binary-heap event queue.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

class HostReference
{
  public:
    /** Builds the page table (not timed). */
    HostReference();

    /** Run one chunk of fixed work; returns its wall seconds. Every
     *  chunk does identical work from identical state. */
    double run();

    /** Result of the last chunk; equal for every chunk. */
    std::uint64_t checksum() const { return checksum_; }

  private:
    void step(std::uint64_t &rng, std::uint64_t &now);

    std::unordered_map<std::uint64_t, std::uint64_t> pageTable_;
    std::vector<std::uint64_t> tlb_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> age_;
    std::vector<std::uint64_t> warpBase_;
    std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                        std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                        std::greater<>>
        events_;
    std::uint64_t checksum_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
