#include "reference.hh"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

constexpr std::uint64_t kPages = 1u << 18;
constexpr std::uint64_t kPageShift = 12;
constexpr std::uint64_t kLineShift = 7;
constexpr std::size_t kTlbEntries = 64;
constexpr std::size_t kSets = 1u << 15;
constexpr std::size_t kWays = 4;
constexpr std::size_t kWarps = 48;
constexpr unsigned kLanes = 32;
/** Warp memory instructions per chunk. */
constexpr unsigned kSteps = 3000;
constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

std::uint64_t
next(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

HostReference::HostReference()
    : tlb_(kTlbEntries), tags_(kSets * kWays), age_(kSets * kWays),
      warpBase_(kWarps)
{
    pageTable_.reserve(kPages);
    std::uint64_t s = 0x2545f4914f6cdd1dull;
    for (std::uint64_t p = 0; p < kPages; ++p)
        pageTable_.emplace(p, next(s) >> 20);
}

void
HostReference::step(std::uint64_t &rng, std::uint64_t &now)
{
    const std::uint64_t r = next(rng);
    const std::size_t w = r % kWarps;
    const unsigned mode = (r >> 8) & 3;
    const std::uint64_t span = kPages << kPageShift;
    std::uint64_t addr[kLanes];
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        if (mode == 0)
            addr[lane] = warpBase_[w] + lane * 4;
        else if (mode == 1)
            addr[lane] = warpBase_[w] + lane * (4096u << ((r >> 16) & 1));
        else
            addr[lane] = next(rng);
        addr[lane] %= span;
    }
    warpBase_[w] = (warpBase_[w] + 128) % span;

    // Coalesce into distinct pages and lines.
    std::uint64_t pages[kLanes];
    std::uint64_t lines[kLanes];
    unsigned np = 0;
    unsigned nl = 0;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        const std::uint64_t p = addr[lane] >> kPageShift;
        const std::uint64_t l = addr[lane] >> kLineShift;
        unsigned j = 0;
        while (j < np && pages[j] != p)
            ++j;
        if (j == np)
            pages[np++] = p;
        j = 0;
        while (j < nl && lines[j] != l)
            ++j;
        if (j == nl)
            lines[nl++] = l;
    }

    // Translate: linear TLB scan, page-table lookup and a fill event
    // on a miss.
    for (unsigned i = 0; i < np; ++i) {
        std::size_t e = 0;
        while (e < kTlbEntries && tlb_[e] != pages[i])
            ++e;
        if (e < kTlbEntries) {
            checksum_ += e;
            continue;
        }
        const std::uint64_t frame = pageTable_.find(pages[i])->second;
        tlb_[(now + i) % kTlbEntries] = pages[i];
        events_.emplace(now + 20 + (frame & 63),
                        static_cast<std::uint32_t>(frame));
    }

    // Set-associative cache with LRU ages.
    for (unsigned i = 0; i < nl; ++i) {
        const std::size_t base = (lines[i] % kSets) * kWays;
        std::size_t hit = kWays;
        std::size_t victim = 0;
        for (std::size_t way = 0; way < kWays; ++way) {
            if (tags_[base + way] == lines[i])
                hit = way;
            if (age_[base + way] > age_[base + victim])
                victim = way;
        }
        const std::size_t use = hit < kWays ? hit : victim;
        if (hit == kWays)
            tags_[base + use] = lines[i];
        for (std::size_t way = 0; way < kWays; ++way)
            age_[base + way] += age_[base + way] < 255;
        age_[base + use] = 0;
        checksum_ += hit;
    }

    now += 1 + np;
    while (!events_.empty() && events_.top().first <= now) {
        checksum_ = checksum_ * 31 + events_.top().second;
        events_.pop();
    }
}

double
HostReference::run()
{
    const auto t0 = std::chrono::steady_clock::now();
    std::fill(tlb_.begin(), tlb_.end(), kEmpty);
    std::fill(tags_.begin(), tags_.end(), kEmpty);
    std::fill(age_.begin(), age_.end(), 0);
    for (std::size_t w = 0; w < kWarps; ++w)
        warpBase_[w] = w << 20;
    events_ = {};
    checksum_ = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    std::uint64_t now = 0;
    for (unsigned s = 0; s < kSteps; ++s)
        step(rng, now);
    while (!events_.empty()) {
        checksum_ = checksum_ * 31 + events_.top().second;
        events_.pop();
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace perfbench
