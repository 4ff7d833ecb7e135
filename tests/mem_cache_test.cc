/**
 * @file
 * Unit and property tests for the cache, TLB and RDRAM models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

#include "MemReference.hh"
#include "mem/Cache.hh"
#include "mem/MemorySystem.hh"
#include "mem/Rdram.hh"
#include "mem/Tlb.hh"
#include "sim/Random.hh"

namespace {

using namespace san::mem;
using namespace san::sim;
using san::test::RefCache;
using san::test::RefTlb;

CacheParams
tiny(unsigned size, unsigned assoc, unsigned line, bool classify = true)
{
    return CacheParams{"tiny", size, assoc, line, classify};
}

TEST(Cache, FirstTouchIsColdMissThenHit)
{
    Cache c(tiny(1024, 2, 64));
    auto first = c.access(0x1000, false);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.missClass, MissClass::Cold);
    auto second = c.access(0x1000 + 63, false); // same line
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsedWay)
{
    // 2-way, 64 B lines, 2 sets (256 B total).
    Cache c(tiny(256, 2, 64));
    // Three lines mapping to set 0: line addresses 0, 2, 4.
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    c.access(0 * 64, false);   // refresh line 0; line 2 is now LRU
    c.access(4 * 64, false);   // evicts line 2
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(2 * 64));
    EXPECT_TRUE(c.contains(4 * 64));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(tiny(128, 1, 64)); // direct-mapped, 2 sets
    c.access(0, true);          // dirty line 0 in set 0
    auto res = c.access(2 * 64, false); // same set, evicts dirty line
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, ConflictVsCapacityClassification)
{
    // Direct-mapped 2-set cache: lines 0 and 2 conflict while the
    // total working set (2 lines) fits in capacity.
    Cache c(tiny(128, 1, 64));
    c.access(0 * 64, false);  // cold
    c.access(2 * 64, false);  // cold, evicts 0
    c.access(0 * 64, false);  // miss again: conflict (fits FA shadow)
    EXPECT_EQ(c.coldMisses(), 2u);
    EXPECT_EQ(c.conflictMisses(), 1u);
    EXPECT_EQ(c.capacityMisses(), 0u);
}

TEST(Cache, CapacityMissWhenWorkingSetExceedsSize)
{
    // Fully-associative 2-line cache; stream 3 lines cyclically.
    Cache c(tiny(128, 2, 64));
    for (int round = 0; round < 2; ++round)
        for (Addr line = 0; line < 3; ++line)
            c.access(line * 64, false);
    EXPECT_EQ(c.coldMisses(), 3u);
    EXPECT_GT(c.capacityMisses(), 0u);
    EXPECT_EQ(c.conflictMisses(), 0u);
}

TEST(Cache, InvalidateAllEmptiesCache)
{
    Cache c(tiny(1024, 2, 64));
    c.access(0x40, false);
    EXPECT_TRUE(c.contains(0x40));
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, SequentialStreamMissesOncePerLine)
{
    Cache c(tiny(32 * 1024, 2, 128, false));
    const std::uint64_t bytes = 64 * 1024;
    for (Addr a = 0; a < bytes; a += 8)
        c.access(a, false);
    EXPECT_EQ(c.misses(), bytes / 128);
    EXPECT_EQ(c.hits(), bytes / 8 - bytes / 128);
}

/** Property: hits + misses == accesses, misses >= distinct lines. */
class CacheProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned,
                                                 unsigned>>
{};

TEST_P(CacheProperty, AccountingInvariants)
{
    auto [size, assoc, line] = GetParam();
    Cache c(tiny(size, assoc, line));
    Random rng(size * 31 + assoc * 7 + line);
    const int n = 5000;
    std::uint64_t accesses = 0;
    for (int i = 0; i < n; ++i) {
        c.access(rng.below(64 * 1024), rng.chance(0.3));
        ++accesses;
    }
    EXPECT_EQ(c.hits() + c.misses(), accesses);
    EXPECT_EQ(c.coldMisses() + c.capacityMisses() + c.conflictMisses(),
              c.misses());
    EXPECT_LE(c.writebacks(), c.misses());
    EXPECT_GE(c.missRate(), 0.0);
    EXPECT_LE(c.missRate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(std::tuple{1024u, 1u, 32u},
                      std::tuple{1024u, 2u, 32u},
                      std::tuple{4096u, 2u, 64u},
                      std::tuple{8192u, 4u, 128u},
                      std::tuple{512u, 8u, 64u}));

TEST(Tlb, HitAfterFillAndLruEviction)
{
    Tlb tlb(2, 4096);
    EXPECT_FALSE(tlb.access(0x0000));      // page 0 miss
    EXPECT_TRUE(tlb.access(0x0800));       // page 0 hit
    EXPECT_FALSE(tlb.access(0x1000));      // page 1 miss
    EXPECT_FALSE(tlb.access(0x2000));      // page 2 miss, evicts page 0
    EXPECT_FALSE(tlb.access(0x0000));      // page 0 again: miss
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 4u);
}

TEST(Tlb, FlushForgetsEverything)
{
    Tlb tlb(64, 4096);
    tlb.access(0);
    tlb.flush();
    EXPECT_FALSE(tlb.access(0));
}

/** Address-stream shapes the differential tests drive. */
enum class Stream { Random, Strided, Mixed };

/**
 * Seeded address generator over a working set of @p ws bytes.
 * Strided walks a prime number of lines per step so it visits every
 * set; Mixed sends most accesses to a hot region a sixteenth of the
 * working set and strides through the rest.
 */
class StreamGen
{
  public:
    StreamGen(Stream kind, std::uint64_t ws, unsigned line,
              std::uint64_t seed)
        : kind_(kind), ws_(ws), stride_(7ull * line), rng_(seed)
    {}

    Addr
    next()
    {
        switch (kind_) {
          case Stream::Random:
            return base + rng_.below(ws_);
          case Stream::Strided:
            return base + stride();
          case Stream::Mixed:
            if (rng_.chance(0.8))
                return base + rng_.below(std::max<std::uint64_t>(
                                  ws_ / 16, 1));
            return base + stride();
        }
        return base;
    }

  private:
    static constexpr Addr base = 0x10000000;

    Addr
    stride()
    {
        pos_ = (pos_ + stride_) % ws_;
        return pos_ + rng_.below(8);
    }

    Stream kind_;
    std::uint64_t ws_;
    std::uint64_t stride_;
    std::uint64_t pos_ = 0;
    Random rng_;
};

const char *
streamName(Stream s)
{
    switch (s) {
      case Stream::Random: return "random";
      case Stream::Strided: return "strided";
      case Stream::Mixed: return "mixed";
    }
    return "?";
}

/** Accesses per differential run. */
constexpr int oracleAccesses = 40000;

/**
 * Drive Cache and RefCache with one seeded stream over @p ws bytes,
 * invalidating both at access @p reset_at, and require every access
 * result, every counter and a probe of the final contents to agree.
 */
void
cacheMatchesReference(const CacheParams &p, Stream s, std::uint64_t ws,
                      std::uint64_t seed, int reset_at)
{
    Cache model(p);
    RefCache ref(p);
    StreamGen gen(s, ws, p.lineSize, seed);
    Random writes(ws + p.lineSize);
    for (int i = 0; i < oracleAccesses; ++i) {
        if (i == reset_at) {
            model.invalidateAll();
            ref.invalidateAll();
        }
        const Addr a = gen.next();
        const bool w = writes.chance(0.3);
        const CacheAccess got = model.access(a, w);
        const CacheAccess want = ref.access(a, w);
        if (got.hit != want.hit || got.missClass != want.missClass ||
            got.writeback != want.writeback) {
            ADD_FAILURE() << "access " << i << " addr " << a << ": hit "
                          << got.hit << "/" << want.hit << " class "
                          << int(got.missClass) << "/"
                          << int(want.missClass) << " wb "
                          << got.writeback << "/" << want.writeback;
            return;
        }
    }
    EXPECT_EQ(model.hits(), ref.hits_);
    EXPECT_EQ(model.misses(), ref.misses_);
    EXPECT_EQ(model.coldMisses(), ref.cold_);
    EXPECT_EQ(model.capacityMisses(), ref.capacity_);
    EXPECT_EQ(model.conflictMisses(), ref.conflict_);
    EXPECT_EQ(model.writebacks(), ref.writebacks_);
    StreamGen probe(s, ws, p.lineSize, ws + 17);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = probe.next();
        ASSERT_EQ(model.contains(a), ref.contains(a)) << "addr " << a;
    }
}

/**
 * Differential oracle: drive Cache and RefCache with the same seeded
 * streams and require every access result and every counter to agree.
 * Each (working set, stream) run invalidates the cache halfway, so
 * refills after a reset are compared too. The growth runs then cover
 * the model's storage, which grows with the lines it has seen: 10,
 * 1,000 and 5,000 distinct lines (below, across and past the
 * shadow's growth steps for the larger geometries) and a 16 KB set,
 * each invalidated once about half its lines have been seen.
 */
class CacheOracle
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned,
                                                 unsigned>>
{};

TEST_P(CacheOracle, MatchesReferenceAccessForAccess)
{
    const auto [size, assoc, line] = GetParam();
    const std::uint64_t workingSets[] = {4 * 1024, 64 * 1024,
                                         1024 * 1024,
                                         64ull * 1024 * 1024};
    const std::uint64_t growthSets[] = {10ull * line, 16 * 1024,
                                        1000ull * line, 5000ull * line};
    for (bool classify : {true, false}) {
        const CacheParams p = tiny(size, assoc, line, classify);
        const std::string how = classify ? " classified" : " unclassified";
        for (std::uint64_t ws : workingSets) {
            for (Stream s :
                 {Stream::Random, Stream::Strided, Stream::Mixed}) {
                SCOPED_TRACE(std::to_string(ws) + " B " + streamName(s) +
                             how);
                cacheMatchesReference(p, s, ws, ws * 131 + size + assoc,
                                      oracleAccesses / 2);
            }
        }
        for (std::uint64_t ws : growthSets) {
            const std::uint64_t lines = ws / line;
            for (Stream s :
                 {Stream::Random, Stream::Strided, Stream::Mixed}) {
                SCOPED_TRACE(std::to_string(lines) + " lines " +
                             streamName(s) + how);
                cacheMatchesReference(p, s, ws, lines * 7 + size + assoc,
                                      static_cast<int>(lines / 2));
            }
        }
    }
}

// The switch D$, the scaled host L1D and L2, a highly associative and
// a direct-mapped geometry, and the full-size host L2.
INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracle,
    ::testing::Values(std::tuple{1024u, 2u, 32u},
                      std::tuple{8192u, 2u, 128u},
                      std::tuple{65536u, 2u, 128u},
                      std::tuple{512u, 8u, 64u},
                      std::tuple{4096u, 1u, 64u},
                      std::tuple{524288u, 2u, 128u}));

/**
 * Drive Tlb and RefTlb with one seeded stream over @p ws bytes,
 * flushing both at access @p reset_at; every result and both
 * counters must agree.
 */
void
tlbMatchesReference(unsigned entries, Stream s, std::uint64_t ws,
                    std::uint64_t seed, int reset_at)
{
    const unsigned page = 4096;
    Tlb model(entries, page);
    RefTlb ref(entries, page);
    StreamGen gen(s, ws, page / 8, seed);
    for (int i = 0; i < oracleAccesses; ++i) {
        if (i == reset_at) {
            model.flush();
            ref.flush();
        }
        const Addr a = gen.next();
        const bool got = model.access(a);
        const bool want = ref.access(a);
        if (got != want) {
            ADD_FAILURE() << "access " << i << " addr " << a << ": hit "
                          << got << "/" << want;
            return;
        }
    }
    EXPECT_EQ(model.hits(), ref.hits_);
    EXPECT_EQ(model.misses(), ref.misses_);
}

/**
 * The TLB oracle: the working-set runs flush halfway; the growth runs
 * touch exactly 10, 1,000 and 5,000 distinct pages and flush once
 * about half of them have been seen, so a large TLB is flushed while
 * its storage is still growing and then refilled past its capacity.
 */
class TlbOracle : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TlbOracle, MatchesReferenceAccessForAccess)
{
    const unsigned entries = GetParam();
    const std::uint64_t page = 4096;
    const std::uint64_t workingSets[] = {16 * 1024, 1024 * 1024,
                                         64ull * 1024 * 1024};
    for (std::uint64_t ws : workingSets) {
        for (Stream s : {Stream::Random, Stream::Strided, Stream::Mixed}) {
            SCOPED_TRACE(std::to_string(ws) + " B " + streamName(s));
            tlbMatchesReference(entries, s, ws, ws + entries,
                                oracleAccesses / 2);
        }
    }
    for (std::uint64_t pages : {10, 1000, 5000}) {
        for (Stream s : {Stream::Random, Stream::Strided, Stream::Mixed}) {
            SCOPED_TRACE(std::to_string(pages) + " pages " +
                         streamName(s));
            tlbMatchesReference(entries, s, pages * page, pages + entries,
                                static_cast<int>(pages / 2));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbOracle,
                         ::testing::Values(1u, 2u, 3u, 64u, 100u, 4096u));

TEST(Rdram, PageHitFasterThanMiss)
{
    Rdram mem;
    auto miss = mem.access(0, 128, 0);
    EXPECT_FALSE(miss.pageHit);
    auto hit = mem.access(128, 128, miss.complete);
    EXPECT_TRUE(hit.pageHit);
    EXPECT_EQ(miss.complete - miss.start, ns(122) + ns(80));
    EXPECT_EQ(hit.complete - hit.start, ns(100) + ns(80));
}

TEST(Rdram, ChannelOccupancySerializesAccesses)
{
    Rdram mem;
    auto a = mem.access(0, 128, 0);
    auto b = mem.access(1 * san::sim::MiB, 128, 0); // different bank
    // Second access cannot start before the first releases the bus.
    EXPECT_EQ(b.start, a.start + ns(80));
}

TEST(Rdram, BandwidthBoundStreaming)
{
    // 1 MB of pipelined 128 B line fills (all issued immediately)
    // completes at channel bandwidth: ~1MB / 1.6GB/s plus one access
    // latency at the tail.
    Rdram mem;
    Tick done = 0;
    for (Addr a = 0; a < MiB; a += 128)
        done = std::max(done, mem.access(a, 128, 0).complete);
    const double seconds = toSeconds(done);
    EXPECT_GE(seconds, 1.0 * MiB / 1.6e9);
    EXPECT_LE(seconds, 1.0 * MiB / 1.6e9 + 200e-9);
    EXPECT_EQ(mem.bytesTransferred(), MiB);
}

TEST(Rdram, DistinctBanksTrackDistinctPages)
{
    RdramParams p;
    p.banks = 2;
    p.pageBytes = 1024;
    Rdram mem(p);
    Tick t = 0;
    t = mem.access(0, 64, t).complete;        // bank 0, page 0
    t = mem.access(1024, 64, t).complete;     // bank 1, page 1
    auto again0 = mem.access(64, 64, t);      // bank 0 page 0: hit
    auto again1 = mem.access(1024 + 64, 64, again0.complete);
    EXPECT_TRUE(again0.pageHit);
    EXPECT_TRUE(again1.pageHit);
}

/**
 * Every model steps lines, sets, pages and banks with shifts and
 * masks, so its constructor refuses a geometry a shift cannot model,
 * naming the model and the field; the presets and every geometry the
 * suites above build are accepted.
 */
TEST(MemoryGeometry, RejectsWhatShiftsCannotModel)
{
    EXPECT_THROW(Cache(tiny(1536, 2, 48)), std::invalid_argument);
    EXPECT_THROW(Cache(tiny(1024, 2, 0)), std::invalid_argument);
    EXPECT_THROW(Cache(tiny(1000, 2, 64)), std::invalid_argument);
    EXPECT_THROW(Cache(tiny(1024, 0, 64)), std::invalid_argument);
    EXPECT_THROW(Cache(tiny(768, 2, 128)), std::invalid_argument);
    EXPECT_THROW(Cache(tiny(0, 2, 64)), std::invalid_argument);
    EXPECT_THROW(Tlb(64, 3000), std::invalid_argument);
    EXPECT_THROW(Tlb(64, 0), std::invalid_argument);
    RdramParams page;
    page.pageBytes = 3000;
    EXPECT_THROW(Rdram{page}, std::invalid_argument);
    RdramParams banks;
    banks.banks = 24;
    EXPECT_THROW(Rdram{banks}, std::invalid_argument);
    MemorySystemParams ms = hostMemoryParams();
    ms.pageSize = 3000;
    EXPECT_THROW(MemorySystem{ms}, std::invalid_argument);
    for (unsigned depth : {0u, 3u}) {
        ms = hostMemoryParams();
        ms.overlapDepth = depth;
        EXPECT_THROW(MemorySystem{ms}, std::invalid_argument);
    }
    try {
        Cache c(tiny(1536, 2, 48));
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()),
                  "tiny: lineSize must be a power of two, got 48");
    }

    for (const MemorySystemParams &p :
         {hostMemoryParams(), scaledHostMemoryParams(),
          switchMemoryParams()})
        EXPECT_NO_THROW(MemorySystem{p}) << p.name;
    // Ways need not be a power of two, only the set count.
    EXPECT_NO_THROW(Cache(tiny(768, 3, 64)));
    for (auto [size, assoc, line] :
         {std::tuple{1024u, 2u, 64u}, {256u, 2u, 64u}, {128u, 1u, 64u},
          {128u, 2u, 64u}, {32768u, 2u, 128u}, {1024u, 1u, 32u},
          {1024u, 2u, 32u}, {4096u, 2u, 64u}, {8192u, 4u, 128u},
          {512u, 8u, 64u}, {8192u, 2u, 128u}, {65536u, 2u, 128u},
          {4096u, 1u, 64u}, {524288u, 2u, 128u}})
        EXPECT_NO_THROW(Cache(tiny(size, assoc, line)))
            << size << " B " << assoc << "-way " << line << " B lines";
    for (unsigned entries : {1u, 2u, 3u, 64u, 100u, 4096u})
        EXPECT_NO_THROW(Tlb(entries, 4096));
    RdramParams two;
    two.banks = 2;
    two.pageBytes = 1024;
    EXPECT_NO_THROW(Rdram{});
    EXPECT_NO_THROW(Rdram{two});
}

} // namespace
