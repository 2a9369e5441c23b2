/**
 * @file
 * Unit tests for the slab/freelist Arena plus the whole-GPU
 * differential check: arenas-on vs the plain-heap fallback must be
 * bit-identical on every paper workload with the invariant checker
 * armed. The hot-path rewrite (PR 6) is only allowed to change how
 * fast the simulator runs, never what it computes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "sim/arena.hh"
#include "sim/callback.hh"

using namespace gpummu;

namespace {

struct Payload
{
    explicit Payload(int v = 0) : value(v) { vec.assign(4, v); }
    int value;
    std::vector<int> vec;
};

/** Restore the process-wide pooling switch on scope exit so test
 *  order cannot leak a fallback mode into unrelated tests. */
struct PoolingGuard
{
    explicit PoolingGuard(bool pooled) { setArenaPooling(pooled); }
    ~PoolingGuard() { setArenaPooling(true); }
};

} // namespace

TEST(Arena, FreshSlabAllocatesInAscendingAddressOrder)
{
    PoolingGuard guard(true);
    Arena<Payload> arena(8);
    std::vector<Payload *> objs;
    objs.push_back(arena.create(0));
    for (int i = 1; i < 8; ++i) {
        Payload *p = arena.create(i);
        EXPECT_LT(objs.back(), p)
            << "slab must be consumed front to back";
        objs.push_back(p);
    }
    EXPECT_EQ(arena.slabCount(), 1u);
    EXPECT_EQ(arena.live(), 8u);
    for (Payload *p : objs)
        arena.destroy(p);
    EXPECT_EQ(arena.live(), 0u);
}

TEST(Arena, ReuseIsDeterministicLifo)
{
    PoolingGuard guard(true);
    Arena<Payload> arena(8);
    Payload *a = arena.create(1);
    Payload *b = arena.create(2);
    Payload *c = arena.create(3);
    arena.destroy(b);
    arena.destroy(a);
    // LIFO: the most recently freed slot comes back first.
    Payload *r1 = arena.create(4);
    Payload *r2 = arena.create(5);
    EXPECT_EQ(r1, a);
    EXPECT_EQ(r2, b);
    arena.destroy(r1);
    arena.destroy(r2);
    arena.destroy(c);
    EXPECT_EQ(arena.live(), 0u);
}

TEST(Arena, SlabGrowthPreservesLiveObjects)
{
    PoolingGuard guard(true);
    Arena<Payload> arena(4);
    std::vector<Payload *> live;
    for (int i = 0; i < 13; ++i)
        live.push_back(arena.create(i));
    EXPECT_GE(arena.slabCount(), 4u);
    EXPECT_EQ(arena.capacity(), arena.slabCount() * 4);
    for (int i = 0; i < 13; ++i) {
        EXPECT_EQ(live[static_cast<std::size_t>(i)]->value, i)
            << "slab growth must not move or corrupt live objects";
        EXPECT_EQ(live[static_cast<std::size_t>(i)]->vec,
                  std::vector<int>(4, i));
    }
    for (Payload *p : live)
        arena.destroy(p);
    EXPECT_EQ(arena.live(), 0u);
}

TEST(Arena, ArenaRcSharesAndReleasesOnce)
{
    PoolingGuard guard(true);
    Arena<Payload> arena(4);
    ArenaRc<Payload> h1 = arena.createRc(7);
    {
        ArenaRc<Payload> h2 = h1; // copy: refcount 2
        EXPECT_EQ(h2->value, 7);
        EXPECT_EQ(arena.live(), 1u);
    }
    EXPECT_EQ(arena.live(), 1u) << "inner copy must not release";
    h1.reset();
    EXPECT_EQ(arena.live(), 0u);
}

TEST(ArenaDeathTest, DoubleFreePanics)
{
    PoolingGuard guard(true);
    Arena<Payload> arena(4);
    Payload *p = arena.create(1);
    arena.destroy(p);
    EXPECT_DEATH(arena.destroy(p), "double-free");
    // The slot is back on the freelist; reallocate and release it so
    // teardown sees zero live objects in the parent process.
    Payload *q = arena.create(2);
    arena.destroy(q);
}

TEST(ArenaDeathTest, DestroyWithLiveHandlePanics)
{
    PoolingGuard guard(true);
    Arena<Payload> arena(4);
    ArenaRc<Payload> h = arena.createRc(1);
    EXPECT_DEATH(arena.destroy(h.get()), "live ArenaRc");
    h.reset();
}

TEST(ArenaDeathTest, LeakedObjectPanicsAtArenaTeardown)
{
    PoolingGuard guard(true);
    EXPECT_DEATH(
        {
            Arena<Payload> arena(4);
            arena.create(1); // never destroyed
        },
        "still live");
}

TEST(Arena, HeapFallbackMatchesPooledSemantics)
{
    PoolingGuard guard(false);
    Arena<Payload> arena(4);
    EXPECT_FALSE(arena.pooled());
    EXPECT_EQ(arena.capacity(), 0u);
    Payload *p = arena.create(3);
    ArenaRc<Payload> h = arena.createRc(9);
    EXPECT_EQ(p->value, 3);
    EXPECT_EQ(h->value, 9);
    EXPECT_EQ(arena.live(), 2u);
    arena.destroy(p);
    h.reset();
    EXPECT_EQ(arena.live(), 0u);
}

/**
 * The PR's contract, end to end: with the reference invariant
 * checker armed, a full GPU simulation of every paper workload is
 * bit-identical (aggregate stats AND the full registry JSON dump)
 * whether the hot-path descriptors live in arenas or on the plain
 * heap. Any arena bug that changed ordering or lifetimes would either
 * panic the checker or break this byte comparison.
 */
TEST(Arena, FullGpuRunsAreBitIdenticalPooledVsHeap)
{
    WorkloadParams params;
    params.scale = 0.1;
    params.seed = 7;
    SystemConfig cfg = presets::augmentedTlb();
    cfg.checkInvariants = true;

    for (BenchmarkId id : allBenchmarks()) {
        RunOutput pooled;
        RunOutput heap;
        {
            PoolingGuard guard(true);
            pooled = runConfigFull(id, cfg, params);
        }
        {
            PoolingGuard guard(false);
            heap = runConfigFull(id, cfg, params);
        }
        EXPECT_TRUE(pooled.stats == heap.stats)
            << benchmarkName(id) << ": aggregate stats diverge";
        EXPECT_EQ(pooled.statsJson, heap.statsJson)
            << benchmarkName(id) << ": registry dump diverges";
    }
}

// --- Completion records and in-flight tables (sim/callback.hh) ---

TEST(RecyclePool, ReusesRetiredObjectsWithTheirStorage)
{
    RecyclePool<std::vector<int>> pool;
    std::vector<int> *a = pool.acquire();
    a->assign(64, 7);
    pool.release(a);
    std::vector<int> *b = pool.acquire();
    EXPECT_EQ(b, a);
    EXPECT_GE(b->capacity(), 64u);
    EXPECT_EQ(pool.live(), 1u);
}

TEST(CallableRecords, FiresTheCallableOncePerUseThenRecycles)
{
    CallableRecords<int> records;
    std::vector<int> seen;
    auto raw = records.bind([&seen](int v) { seen.push_back(v); }, 3);
    raw(1);
    raw(2);
    raw(3);
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
    // The recycled record serves the next binding.
    auto again = records.bind([&seen](int v) { seen.push_back(-v); }, 1);
    EXPECT_EQ(again.ctx, raw.ctx);
    again(4);
    EXPECT_EQ(seen.back(), -4);
}

namespace {

struct KeyEntry
{
    std::uint64_t key = 0;
    int tag = 0;
};

void
pushTag(void *ctx, int v)
{
    static_cast<std::vector<int> *>(ctx)->push_back(v);
}

/** Waiters identified by their context: (serial as ctx) -> g_fired. */
std::vector<int> g_fired;

void
pushSerial(void *ctx, int)
{
    g_fired.push_back(static_cast<int>(reinterpret_cast<std::intptr_t>(ctx)));
}

} // namespace

TEST(WaitTable, WaitersFireInRegistrationOrderPerKey)
{
    WaitTable<KeyEntry, RawCallback<int>> table;
    table.reserve(4);
    std::vector<int> a, b;
    table.open({10, 1});
    table.open({20, 2});
    table.wait(10, {&pushTag, &a});
    table.wait(20, {&pushTag, &b});
    table.wait(10, {&pushTag, &b});
    table.wait(10, {&pushTag, &a});

    KeyEntry out;
    std::size_t batch = 0;
    ASSERT_TRUE(table.close(10, out, batch));
    EXPECT_EQ(out.tag, 1);
    EXPECT_EQ(table.batchSize(batch), 3u);
    int n = 0;
    table.fire(batch, [&](const RawCallback<int> &w) { w(++n); });
    EXPECT_EQ(a, (std::vector<int>{1, 3}));
    EXPECT_EQ(b, (std::vector<int>{2}));
    EXPECT_EQ(table.size(), 1u);
    EXPECT_FALSE(table.close(10, out, batch));
    ASSERT_NE(table.find(20), nullptr);
    EXPECT_EQ(table.find(20)->tag, 2);
}

TEST(WaitTable, MatchesAMapUnderRandomOpenCloseAndGrowth)
{
    // Keys that collide in a small index, growth past reserve(), and
    // removals from the middle of probe runs: every lookup and every
    // closed batch must agree with a std::map model.
    WaitTable<KeyEntry, RawCallback<int>> table;
    table.reserve(2);
    std::map<std::uint64_t, std::vector<int>> model;
    std::uint64_t state = 12345;
    auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };
    int serial = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = (next() % 300) << 32 | (next() % 4);
        const bool open = model.count(key) != 0;
        if (!open && next() % 3 != 0) {
            table.open({key, static_cast<int>(key % 1000)});
            model[key] = {};
        }
        if (model.count(key) != 0 && next() % 2 == 0) {
            ++serial;
            table.wait(key, {&pushSerial,
                             reinterpret_cast<void *>(
                                 static_cast<std::intptr_t>(serial))});
            model[key].push_back(serial);
            continue;
        }
        if (model.count(key) != 0 && next() % 4 == 0) {
            KeyEntry out;
            std::size_t batch = 0;
            ASSERT_TRUE(table.close(key, out, batch));
            EXPECT_EQ(out.key, key);
            g_fired.clear();
            table.fire(batch, [](const RawCallback<int> &w) { w(0); });
            EXPECT_EQ(g_fired, model[key]);
            model.erase(key);
        }
        ASSERT_EQ(table.size(), model.size());
    }
    for (const auto &[key, waiters] : model) {
        ASSERT_NE(table.find(key), nullptr);
        EXPECT_EQ(table.find(key)->key, key);
    }
    EXPECT_EQ(table.find(~std::uint64_t{0}), nullptr);
}
