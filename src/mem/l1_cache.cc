#include "mem/l1_cache.hh"

#include <algorithm>

#include "trace/trace.hh"

namespace gpummu {

L1Cache::L1Cache(const L1CacheConfig &cfg, MemorySystem &mem)
    : cfg_(cfg), mem_(mem), array_(cfg.bytes / kLineSize, cfg.ways)
{
    mshrs_.reserve(cfg.numMshrs);
}

std::vector<L1Cache::Mshr>::iterator
L1Cache::findMshr(PhysAddr line)
{
    auto it = std::lower_bound(mshrs_.begin(), mshrs_.end(), line,
                               [](const Mshr &m, PhysAddr l) {
                                   return m.line < l;
                               });
    if (it != mshrs_.end() && it->line == line)
        return it;
    return mshrs_.end();
}

void
L1Cache::reapMshrs(Cycle now)
{
    // remove_if is stable, so the vector stays sorted by line.
    mshrs_.erase(std::remove_if(mshrs_.begin(), mshrs_.end(),
                                [now](const Mshr &m) {
                                    return m.readyAt <= now;
                                }),
                 mshrs_.end());
}

Cycle
L1Cache::earliestMshrFree() const
{
    Cycle earliest = kCycleNever;
    for (const Mshr &m : mshrs_)
        earliest = std::min(earliest, m.readyAt);
    return earliest;
}

AccessOutcome
L1Cache::access(PhysAddr line_addr, bool is_write, Cycle now, int warp_id)
{
    AccessOutcome out;

    if (is_write) {
        accesses_.inc();
        // Write-through no-allocate: forward to the shared system and
        // invalidate any local copy so later loads refetch.
        array_.invalidate(line_addr);
        auto shared = mem_.access(line_addr, true, now + cfg_.hitLatency,
                                  AccessSource::Data);
        // Stores retire into the memory system; the warp does not
        // wait on the response, so report store latency as the local
        // hand-off only.
        out.hit = true;
        out.readyAt = now + cfg_.hitLatency;
        (void)shared;
        return out;
    }

    auto res = array_.lookup(line_addr);
    if (res.hit) {
        accesses_.inc();
        // Tags are allocated at miss time; if the fill is still in
        // flight this is an MSHR merge, not a data hit.
        if (auto it = findMshr(line_addr);
            it != mshrs_.end() && it->readyAt > now) {
            mshrMerges_.inc();
            out.hit = false;
            out.mshrMerged = true;
            out.readyAt = it->readyAt;
            return out;
        }
        hits_.inc();
        if (probes_.trace)
            probes_.trace->instantAt(TraceCat::L1, "l1_hit", tid_, now,
                                     "line", line_addr, "warp",
                                     static_cast<std::uint64_t>(warp_id));
        out.hit = true;
        out.readyAt = now + cfg_.hitLatency;
        return out;
    }

    // The tag was evicted while its fill is outstanding: merge.
    if (auto it = findMshr(line_addr); it != mshrs_.end()) {
        if (it->readyAt > now) {
            accesses_.inc();
            mshrMerges_.inc();
            out.hit = false;
            out.mshrMerged = true;
            out.readyAt = it->readyAt;
            return out;
        }
        mshrs_.erase(it);
    }

    if (mshrs_.size() >= cfg_.numMshrs) {
        reapMshrs(now);
        if (mshrs_.size() >= cfg_.numMshrs) {
            // Structural stall: the caller must retry once an
            // outstanding fill returns. Not counted as an access.
            mshrStalls_.inc();
            out.needRetry = true;
            out.readyAt = std::max(now + 1, earliestMshrFree());
            return out;
        }
    }

    accesses_.inc();
    if (probes_.trace)
        probes_.trace->instantAt(TraceCat::L1, "l1_miss", tid_, now,
                                 "line", line_addr, "warp",
                                 static_cast<std::uint64_t>(warp_id));
    auto shared = mem_.access(line_addr, false, now + cfg_.hitLatency,
                              AccessSource::Data);
    mshrs_.insert(std::lower_bound(mshrs_.begin(), mshrs_.end(),
                                   line_addr,
                                   [](const Mshr &m, PhysAddr l) {
                                       return m.line < l;
                                   }),
                  Mshr{line_addr, shared.readyAt});
    missLatency_.sample(shared.readyAt - now);

    // Allocate the tag now (fetch-on-miss with immediate allocation);
    // the evicted victim is reported to the CCWS hook.
    auto victim = array_.insert(line_addr, LineInfo{warp_id});
    if (victim) {
        evictions_.inc();
        if (onEvict_)
            onEvict_(victim->tag, victim->payload.allocWarp);
    }

    out.hit = false;
    out.dram = shared.dram;
    out.readyAt = shared.readyAt;
    return out;
}

void
L1Cache::flush()
{
    array_.flush();
    mshrs_.clear();
}

void
L1Cache::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".accesses", &accesses_);
    reg.addCounter(prefix + ".hits", &hits_);
    reg.addCounter(prefix + ".mshr_merges", &mshrMerges_);
    reg.addCounter(prefix + ".mshr_stalls", &mshrStalls_);
    reg.addCounter(prefix + ".evictions", &evictions_);
    reg.addHistogram(prefix + ".miss_latency", &missLatency_);
}

} // namespace gpummu
