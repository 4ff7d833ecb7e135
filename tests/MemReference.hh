/**
 * @file
 * Reference statements of the memory models for the differential
 * oracles: node-based caches and TLBs, and an RDRAM and a composed
 * hierarchy that step lines, pages and banks with `/` and `%`. Each
 * is the plainest way to write its rule; the tests require the flat,
 * shift-and-mask models in src/mem to agree with them call for call.
 */

#ifndef SAN_TESTS_MEM_REFERENCE_HH
#define SAN_TESTS_MEM_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/Cache.hh"
#include "mem/MemorySystem.hh"
#include "mem/Rdram.hh"
#include "sim/Types.hh"

namespace san::test {

using mem::Addr;
using mem::CacheAccess;
using mem::CacheParams;
using mem::MissClass;

/**
 * Reference cache: the straightforward node-based statement of the
 * model. Per-set LRU ways with a use clock; a miss is cold if the
 * line was never seen, a conflict if a fully-associative LRU of the
 * same line count still holds it, and capacity otherwise. The
 * shadow is touched on every access, hits included.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p)
        : p_(p), numLines_(p.size / p.lineSize),
          numSets_(numLines_ / p.assoc),
          sets_(numSets_, std::vector<Way>(p.assoc))
    {}

    CacheAccess
    access(Addr addr, bool write)
    {
        const Addr line = addr / p_.lineSize;
        auto &set = sets_[line % numSets_];
        ++clock_;
        for (auto &way : set) {
            if (way.valid && way.tag == line) {
                way.lastUse = clock_;
                way.dirty |= write;
                ++hits_;
                if (p_.classifyMisses)
                    shadowTouch(line);
                return CacheAccess{true, MissClass::None, false};
            }
        }
        ++misses_;
        MissClass mc = MissClass::Capacity;
        if (p_.classifyMisses) {
            if (seen_.insert(line).second) {
                mc = MissClass::Cold;
                ++cold_;
            } else if (shadowMap_.contains(line)) {
                mc = MissClass::Conflict;
                ++conflict_;
            } else {
                ++capacity_;
            }
            shadowTouch(line);
        }
        Way *victim = &set[0];
        for (auto &way : set) {
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (way.lastUse < victim->lastUse)
                victim = &way;
        }
        const bool writeback = victim->valid && victim->dirty;
        writebacks_ += writeback;
        *victim = Way{line, true, write, clock_};
        return CacheAccess{false, mc, writeback};
    }

    bool
    contains(Addr addr) const
    {
        const Addr line = addr / p_.lineSize;
        const auto &set = sets_[line % numSets_];
        return std::any_of(set.begin(), set.end(), [&](const Way &w) {
            return w.valid && w.tag == line;
        });
    }

    void
    invalidateAll()
    {
        for (auto &set : sets_)
            std::fill(set.begin(), set.end(), Way{});
    }

    std::uint64_t hits_ = 0, misses_ = 0;
    std::uint64_t cold_ = 0, capacity_ = 0, conflict_ = 0;
    std::uint64_t writebacks_ = 0;

  private:
    struct Way {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    void
    shadowTouch(Addr line)
    {
        if (auto it = shadowMap_.find(line); it != shadowMap_.end()) {
            shadowLru_.erase(it->second);
            shadowMap_.erase(it);
        }
        shadowLru_.push_front(line);
        shadowMap_[line] = shadowLru_.begin();
        if (shadowLru_.size() > numLines_) {
            shadowMap_.erase(shadowLru_.back());
            shadowLru_.pop_back();
        }
    }

    CacheParams p_;
    std::uint64_t numLines_;
    std::uint64_t numSets_;
    std::vector<std::vector<Way>> sets_;
    std::uint64_t clock_ = 0;
    std::unordered_set<Addr> seen_;
    std::list<Addr> shadowLru_;
    std::unordered_map<Addr, std::list<Addr>::iterator> shadowMap_;
};

/** Reference TLB: a fully-associative list-plus-map LRU. */
class RefTlb
{
  public:
    RefTlb(unsigned entries, unsigned page_size)
        : entries_(entries), pageSize_(page_size)
    {}

    bool
    access(Addr addr)
    {
        const Addr vpn = addr / pageSize_;
        if (auto it = map_.find(vpn); it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++hits_;
            return true;
        }
        ++misses_;
        lru_.push_front(vpn);
        map_[vpn] = lru_.begin();
        if (lru_.size() > entries_) {
            map_.erase(lru_.back());
            lru_.pop_back();
        }
        return false;
    }

    void
    flush()
    {
        lru_.clear();
        map_.clear();
    }

    std::uint64_t hits_ = 0, misses_ = 0;

  private:
    unsigned entries_;
    unsigned pageSize_;
    std::list<Addr> lru_;
    std::unordered_map<Addr, std::list<Addr>::iterator> map_;
};

/**
 * Reference RDRAM: one open page per bank (page = addr / pageBytes,
 * bank = page % banks) and one data channel that serialises
 * transfers at peak bandwidth.
 */
class RefRdram
{
  public:
    explicit RefRdram(const mem::RdramParams &p)
        : p_(p), psPerByte_(sim::bytesPerSec(p.bandwidthBytesPerSec)),
          openPage_(p.banks, noPage)
    {}

    mem::DramAccess
    access(Addr addr, unsigned bytes, sim::Tick now)
    {
        const std::uint64_t page = addr / p_.pageBytes;
        const unsigned bank = page % p_.banks;
        const bool hit = openPage_[bank] == page;
        openPage_[bank] = page;
        hit ? ++pageHits_ : ++pageMisses_;

        const sim::Tick start = std::max(now, channelFree_);
        const sim::Tick lat = hit ? p_.pageHitLatency : p_.pageMissLatency;
        const sim::Tick xfer = sim::transferTime(bytes, psPerByte_);
        channelFree_ = start + xfer;
        bytesTransferred_ += bytes;
        return mem::DramAccess{start, start + lat + xfer, hit};
    }

    std::uint64_t pageHits_ = 0, pageMisses_ = 0;
    std::uint64_t bytesTransferred_ = 0;

  private:
    static constexpr std::uint64_t noPage = ~std::uint64_t(0);

    mem::RdramParams p_;
    sim::PsPerByte psPerByte_;
    std::vector<std::uint64_t> openPage_;
    sim::Tick channelFree_ = 0;
};

/**
 * Reference hierarchy: RefCache L1s and L2, RefTlbs and a RefRdram
 * composed as MemorySystem composes its models. An access steps
 * line by line (line = addr / lineSize), translates once per page
 * (page = addr / pageSize), walks with one dependent PTE load, fills
 * from L2 or DRAM, and charges a store or prefetch miss lat / depth.
 */
class RefMemorySystem
{
  public:
    explicit RefMemorySystem(const mem::MemorySystemParams &p)
        : l1i_(p.l1i), l1d_(p.l1d), itlb_(p.tlbEntries, p.pageSize),
          dtlb_(p.tlbEntries, p.pageSize), dram_(p.dram), p_(p)
    {
        if (p.l2)
            l2_.emplace(*p.l2);
    }

    sim::Tick
    dataAccess(Addr addr, std::uint64_t bytes, mem::AccessKind kind,
               sim::Tick now)
    {
        if (bytes == 0)
            return 0;
        const unsigned line = p_.l1d.lineSize;
        const unsigned depth = kind == mem::AccessKind::Load
                                   ? 1
                                   : std::max(1u, p_.overlapDepth);
        const bool write = kind == mem::AccessKind::Store;
        const Addr last = (addr + bytes - 1) / line;
        sim::Tick stall = 0;
        Addr prev_page = ~Addr(0);
        for (Addr la = addr / line; la <= last; ++la) {
            const Addr byte_addr = la * line;
            const Addr page = byte_addr / p_.pageSize;
            if (page != prev_page) {
                prev_page = page;
                if (!dtlb_.access(byte_addr))
                    stall += walk(byte_addr, now + stall);
            }
            const CacheAccess res = l1d_.access(byte_addr, write);
            if (res.hit)
                continue;
            if (res.writeback)
                dram_.access(byte_addr ^ 0x20000000, line, now + stall);
            stall += fillLatency(byte_addr, write, now + stall, line) /
                     depth;
        }
        stall_ += stall;
        return stall;
    }

    sim::Tick
    instFetch(Addr pc, std::uint64_t bytes, sim::Tick now)
    {
        if (bytes == 0)
            return 0;
        const unsigned line = p_.l1i.lineSize;
        const Addr last = (pc + bytes - 1) / line;
        sim::Tick stall = 0;
        Addr prev_page = ~Addr(0);
        for (Addr la = pc / line; la <= last; ++la) {
            const Addr byte_addr = la * line;
            const Addr page = byte_addr / p_.pageSize;
            if (page != prev_page) {
                prev_page = page;
                if (!itlb_.access(byte_addr))
                    stall += walk(byte_addr, now + stall);
            }
            if (!l1i_.access(byte_addr, false).hit)
                stall += fillLatency(byte_addr, false, now + stall, line);
        }
        stall_ += stall;
        return stall;
    }

    RefCache l1i_, l1d_;
    std::optional<RefCache> l2_;
    RefTlb itlb_, dtlb_;
    RefRdram dram_;
    sim::Tick stall_ = 0;

  private:
    /** Fill one line of @p l1_line bytes from L2, or from DRAM. */
    sim::Tick
    fillLatency(Addr line_addr, bool write, sim::Tick now, unsigned l1_line)
    {
        if (!l2_)
            return dram_.access(line_addr, l1_line, now).complete - now;
        const CacheAccess res = l2_->access(line_addr, write);
        if (res.hit)
            return p_.l2HitLatency;
        if (res.writeback)
            dram_.access(line_addr ^ 0x40000000, p_.l2->lineSize, now);
        return p_.l2HitLatency +
               (dram_.access(line_addr, p_.l2->lineSize, now).complete -
                now);
    }

    sim::Tick
    walk(Addr vaddr, sim::Tick now)
    {
        const Addr pte = 0x7000000000ull + (vaddr / p_.pageSize) * 8;
        sim::Tick lat = p_.tlbWalkOverhead;
        if (!l1d_.access(pte, false).hit)
            lat += fillLatency(pte, false, now, p_.l1d.lineSize);
        return lat;
    }

    mem::MemorySystemParams p_;
};

} // namespace san::test

#endif // SAN_TESTS_MEM_REFERENCE_HH
