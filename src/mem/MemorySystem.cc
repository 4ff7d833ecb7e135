#include "mem/MemorySystem.hh"

namespace san::mem {

MemorySystemParams
hostMemoryParams()
{
    MemorySystemParams p;
    p.name = "host-mem";
    p.l1i = CacheParams{"l1i", 32 * 1024, 2, 128, false};
    p.l1d = CacheParams{"l1d", 32 * 1024, 2, 128, true};
    p.l2 = CacheParams{"l2", 512 * 1024, 2, 128, true};
    return p;
}

MemorySystemParams
scaledHostMemoryParams()
{
    MemorySystemParams p = hostMemoryParams();
    p.name = "host-mem-scaled";
    p.l1d.size = 8 * 1024;
    p.l2->size = 64 * 1024;
    return p;
}

MemorySystemParams
switchMemoryParams()
{
    MemorySystemParams p;
    p.name = "switch-mem";
    p.l1i = CacheParams{"icache", 4 * 1024, 2, 64, false};
    p.l1d = CacheParams{"dcache", 1 * 1024, 2, 32, true};
    p.l2 = std::nullopt;
    p.overlapDepth = 1; // one outstanding request
    return p;
}

MemorySystem::MemorySystem(const MemorySystemParams &params)
    : params_(params),
      dLineShift_(log2Exact(params.l1d.lineSize, params.name, "l1d.lineSize")),
      iLineShift_(log2Exact(params.l1i.lineSize, params.name, "l1i.lineSize")),
      pageShift_(log2Exact(params.pageSize, params.name, "pageSize")),
      overlapShift_(log2Exact(params.overlapDepth, params.name,
                              "overlapDepth")),
      l1i_(params.l1i),
      l1d_(params.l1d),
      itlb_(params.tlbEntries, params.pageSize),
      dtlb_(params.tlbEntries, params.pageSize),
      dram_(params.dram)
{
    if (params.l2)
        l2_.emplace(*params.l2);
}

sim::Tick
MemorySystem::fillLatency(Addr line_addr, bool write, sim::Tick now,
                          Cache &l1)
{
    if (l2_) {
        auto l2res = l2_->access(line_addr, write);
        if (l2res.hit)
            return params_.l2HitLatency;
        if (l2res.writeback) {
            // Dirty victim consumes DRAM bandwidth but the CPU does
            // not wait for it.
            dram_.access(line_addr ^ 0x40000000, l2_->params().lineSize,
                         now);
        }
        auto dres = dram_.access(line_addr, l2_->params().lineSize, now);
        return params_.l2HitLatency + (dres.complete - now);
    }
    auto dres = dram_.access(line_addr, l1.params().lineSize, now);
    return dres.complete - now;
}

sim::Tick
MemorySystem::walk(Addr vaddr, sim::Tick now)
{
    // Model the fill as one dependent load of a page-table entry at a
    // synthetic physical address derived from the page number.
    const Addr pte = 0x7000000000ull + (vaddr >> pageShift_) * 8;
    sim::Tick lat = params_.tlbWalkOverhead;
    auto res = l1d_.access(pte, false);
    if (!res.hit)
        lat += fillLatency(pte, false, now, l1d_);
    return lat;
}

sim::Tick
MemorySystem::dataAccess(Addr addr, std::uint64_t bytes, AccessKind kind,
                         sim::Tick now)
{
    if (bytes == 0)
        return 0;

    const unsigned line = params_.l1d.lineSize;
    const Addr first = addr >> dLineShift_;
    const Addr last = (addr + bytes - 1) >> dLineShift_;
    const unsigned depth_shift =
        kind == AccessKind::Load ? 0 : overlapShift_;

    sim::Tick stall = 0;
    Addr prev_page = ~Addr(0);
    for (Addr la = first; la <= last; ++la) {
        const Addr byte_addr = la << dLineShift_;
        const Addr page = byte_addr >> pageShift_;
        if (page != prev_page) {
            prev_page = page;
            if (!dtlb_.access(byte_addr))
                stall += walk(byte_addr, now + stall);
        }
        auto res = l1d_.access(byte_addr, kind == AccessKind::Store);
        if (res.hit)
            continue;
        if (res.writeback)
            dram_.access(byte_addr ^ 0x20000000, line, now + stall);
        const sim::Tick lat = fillLatency(
            byte_addr, kind == AccessKind::Store, now + stall, l1d_);
        // Loads stall for the full latency; stores and prefetches
        // overlap up to overlapDepth outstanding line misses, so on
        // average each contributes 1/overlapDepth of its latency.
        stall += lat >> depth_shift;
    }
    stall_ += stall;
    return stall;
}

sim::Tick
MemorySystem::instFetch(Addr pc, std::uint64_t bytes, sim::Tick now)
{
    if (bytes == 0)
        return 0;
    const Addr first = pc >> iLineShift_;
    const Addr last = (pc + bytes - 1) >> iLineShift_;
    sim::Tick stall = 0;
    Addr prev_page = ~Addr(0);
    for (Addr la = first; la <= last; ++la) {
        const Addr byte_addr = la << iLineShift_;
        const Addr page = byte_addr >> pageShift_;
        if (page != prev_page) {
            prev_page = page;
            if (!itlb_.access(byte_addr))
                stall += walk(byte_addr, now + stall);
        }
        auto res = l1i_.access(byte_addr, false);
        if (!res.hit)
            stall += fillLatency(byte_addr, false, now + stall, l1i_);
    }
    stall_ += stall;
    return stall;
}

} // namespace san::mem
