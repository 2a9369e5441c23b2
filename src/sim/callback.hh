/**
 * @file
 * Allocation-free completion records for the translation miss path.
 *
 * A request that completes later (a page walk, an L2-TLB MSHR wakeup,
 * an IOMMU translation) carries one RawCallback: a plain function
 * pointer plus a context pointer, the same idiom as
 * EventQueue::scheduleRaw. Copying one is two word stores, so a
 * request spanning N VPNs holds one record referenced N times instead
 * of N std::function copies.
 *
 * Callers that hold an arbitrary callable (tests, the layer
 * benchmark, examples) go through CallableRecords: the callable is
 * stored once per request in a recycled record and reached through a
 * RawCallback. RecyclePool keeps retired objects constructed, so
 * their vectors keep their capacity and a warm steady state performs
 * no heap allocation.
 */

#ifndef SIM_CALLBACK_HH
#define SIM_CALLBACK_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace gpummu {

/** A function pointer plus the context it is called with. */
template <typename... Args>
struct RawCallback
{
    using Fn = void (*)(void *ctx, Args...);

    Fn fn = nullptr;
    void *ctx = nullptr;

    void operator()(Args... args) const { fn(ctx, args...); }
    explicit operator bool() const { return fn != nullptr; }
};

/** Is @p F something other than @p Raw (selects callable overloads)? */
template <typename F, typename Raw>
concept NotRaw = !std::is_same_v<std::remove_cvref_t<F>, Raw>;

/**
 * Free list of objects that stay constructed while retired, so
 * whatever storage they own is reused by the next acquire(). Objects
 * never move; the pool owns them until it is destroyed.
 */
template <typename T>
class RecyclePool
{
  public:
    /** A retired object (state as left by its last user) or a new
     *  default-constructed one. */
    T *
    acquire()
    {
        if (free_.empty()) {
            all_.push_back(std::make_unique<T>());
            free_.reserve(all_.size());
            return all_.back().get();
        }
        T *obj = free_.back();
        free_.pop_back();
        return obj;
    }

    void release(T *obj) { free_.push_back(obj); }

    /** Objects handed out and not yet released. */
    std::size_t live() const { return all_.size() - free_.size(); }

  private:
    std::vector<std::unique_ptr<T>> all_;
    std::vector<T *> free_;
};

/**
 * Adapter from a callable to a RawCallback: one record per request,
 * fired @p uses times and then recycled.
 */
template <typename... Args>
class CallableRecords
{
  public:
    using Raw = RawCallback<Args...>;

    template <typename F>
    Raw
    bind(F &&fn, std::size_t uses)
    {
        GPUMMU_ASSERT(uses > 0, "a record that never fires");
        Record *r = pool_.acquire();
        r->owner = this;
        r->fn = std::forward<F>(fn);
        r->uses = uses;
        return Raw{&CallableRecords::fire, r};
    }

    /** Recycle a bound record that will not fire after all. */
    void
    discard(Raw raw)
    {
        auto *r = static_cast<Record *>(raw.ctx);
        r->fn = nullptr;
        r->uses = 0;
        pool_.release(r);
    }

  private:
    struct Record
    {
        CallableRecords *owner = nullptr;
        std::function<void(Args...)> fn;
        std::size_t uses = 0;
    };

    static void
    fire(void *ctx, Args... args)
    {
        auto *r = static_cast<Record *>(ctx);
        GPUMMU_ASSERT(r->uses > 0, "completion record fired too often");
        if (--r->uses > 0) {
            r->fn(args...);
            return;
        }
        // Last use: recycle first, the callable may bind again.
        std::function<void(Args...)> fn = std::move(r->fn);
        r->fn = nullptr;
        r->owner->pool_.release(r);
        fn(args...);
    }

    RecyclePool<Record> pool_;
};

/**
 * In-flight requests keyed by VPN, each with the waiters registered
 * on it. Waiters of one key fire in registration order. Storage is
 * flat and keeps its capacity: dense entries, an open-addressed index
 * over them, and a free-listed pool of waiter nodes chained per
 * entry. Sized by reserve() for the structure's bound (an MSHR
 * count); deeper backlogs (a shared IOMMU's queued walks) grow it.
 *
 * @tparam Entry  per-key state with a `std::uint64_t key` member
 * @tparam Waiter what a completion calls (a RawCallback)
 */
template <typename Entry, typename Waiter>
class WaitTable
{
  public:
    void
    reserve(std::size_t n)
    {
        slots_.reserve(n);
        nodes_.reserve(n);
        firing_.reserve(n);
        if (index_.size() < 2 * n)
            rehash(2 * n);
    }

    bool empty() const { return slots_.empty(); }
    std::size_t size() const { return slots_.size(); }

    /** Visit every entry (in no particular order). */
    template <typename F>
    void
    forEach(F &&visit)
    {
        for (Slot &s : slots_)
            visit(s.entry);
    }

    template <typename F>
    void
    forEach(F &&visit) const
    {
        for (const Slot &s : slots_)
            visit(s.entry);
    }

    Entry *
    find(std::uint64_t key)
    {
        const std::size_t pos = position(key);
        return pos == kAbsent ? nullptr : &slots_[index_[pos] - 1].entry;
    }

    const Entry *
    find(std::uint64_t key) const
    {
        return const_cast<WaitTable *>(this)->find(key);
    }

    /** Open the entry for a key not yet in the table. */
    Entry &
    open(const Entry &e)
    {
        GPUMMU_ASSERT(find(e.key) == nullptr, "key ", e.key,
                      " already in flight");
        if (2 * (slots_.size() + 1) > index_.size())
            rehash(std::max<std::size_t>(16, 2 * index_.size()));
        slots_.push_back(Slot{e, kNone, kNone});
        place(e.key, static_cast<std::uint32_t>(slots_.size()));
        return slots_.back().entry;
    }

    /** Register @p w on @p key's (open) entry. */
    void
    wait(std::uint64_t key, Waiter w)
    {
        const std::size_t pos = position(key);
        GPUMMU_ASSERT(pos != kAbsent, "wait on key ", key,
                      " with no entry");
        Slot &s = slots_[index_[pos] - 1];
        std::uint32_t n;
        if (freeNode_ != kNone) {
            n = freeNode_;
            freeNode_ = nodes_[n].next;
            nodes_[n] = Node{w, kNone};
        } else {
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{w, kNone});
        }
        if (s.tail == kNone)
            s.head = n;
        else
            nodes_[s.tail].next = n;
        s.tail = n;
    }

    /**
     * Retire @p key: remove its entry (copied to @p out) and queue its
     * waiters for fire(batch). Returns false when the key is absent.
     */
    bool
    close(std::uint64_t key, Entry &out, std::size_t &batch)
    {
        const std::size_t pos = position(key);
        if (pos == kAbsent)
            return false;
        const std::uint32_t si = index_[pos] - 1;
        out = slots_[si].entry;
        batch = firing_.size();
        for (std::uint32_t n = slots_[si].head; n != kNone;) {
            firing_.push_back(nodes_[n].w);
            const std::uint32_t next = nodes_[n].next;
            nodes_[n].next = freeNode_;
            freeNode_ = n;
            n = next;
        }
        unplace(pos);
        const std::uint32_t last =
            static_cast<std::uint32_t>(slots_.size() - 1);
        if (si != last) {
            slots_[si] = slots_[last];
            index_[position(slots_[si].entry.key)] = si + 1;
        }
        slots_.pop_back();
        return true;
    }

    /** Number of waiters a close() queued. */
    std::size_t batchSize(std::size_t batch) const
    {
        return firing_.size() - batch;
    }

    /**
     * Call @p call on each waiter close() queued, in registration
     * order. Calls may open, wait on and close entries (nested
     * batches stack on top of this one).
     */
    template <typename F>
    void
    fire(std::size_t batch, F &&call)
    {
        const std::size_t end = firing_.size();
        for (std::size_t i = batch; i < end; ++i) {
            const Waiter w = firing_[i];
            call(w);
        }
        firing_.resize(batch);
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    struct Slot
    {
        Entry entry;
        /** The entry's waiters: a node chain, oldest first. */
        std::uint32_t head;
        std::uint32_t tail;
    };

    struct Node
    {
        Waiter w;
        std::uint32_t next;
    };

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        32) &
               (index_.size() - 1);
    }

    /** Index position holding @p key, or kAbsent. */
    std::size_t
    position(std::uint64_t key) const
    {
        if (index_.empty())
            return kAbsent;
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = home(key); index_[i] != 0; i = (i + 1) & mask) {
            if (slots_[index_[i] - 1].entry.key == key)
                return i;
        }
        return kAbsent;
    }

    /** Record slot @p ref (1-based) for @p key in the index. */
    void
    place(std::uint64_t key, std::uint32_t ref)
    {
        const std::size_t mask = index_.size() - 1;
        std::size_t i = home(key);
        while (index_[i] != 0)
            i = (i + 1) & mask;
        index_[i] = ref;
    }

    /** Empty index position @p pos, shifting its probe run back. */
    void
    unplace(std::size_t pos)
    {
        const std::size_t mask = index_.size() - 1;
        std::size_t hole = pos;
        for (std::size_t j = (pos + 1) & mask; index_[j] != 0;
             j = (j + 1) & mask) {
            const std::size_t want = home(slots_[index_[j] - 1].entry.key);
            // Entry j may fill the hole unless its home lies
            // cyclically in (hole, j].
            const bool stays = hole <= j ? (hole < want && want <= j)
                                         : (hole < want || want <= j);
            if (!stays) {
                index_[hole] = index_[j];
                hole = j;
            }
        }
        index_[hole] = 0;
    }

    void
    rehash(std::size_t want)
    {
        std::size_t cap = 16;
        while (cap < want)
            cap *= 2;
        index_.assign(cap, 0);
        for (std::uint32_t s = 0; s < slots_.size(); ++s)
            place(slots_[s].entry.key, s + 1);
    }

    std::vector<Slot> slots_;
    /** Open-addressed (linear probing) slot references, 1-based;
     *  0 is empty. At most half full. */
    std::vector<std::uint32_t> index_;
    std::vector<Node> nodes_;
    std::uint32_t freeNode_ = kNone;
    std::vector<Waiter> firing_;
};

} // namespace gpummu

#endif // SIM_CALLBACK_HH
