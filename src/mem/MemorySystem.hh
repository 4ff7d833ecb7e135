/**
 * @file
 * A composed memory hierarchy: L1I + L1D (+ optional unified L2) +
 * TLBs + RDRAM, returning stall time for CPU timing models.
 */

#ifndef SAN_MEM_MEMORY_SYSTEM_HH
#define SAN_MEM_MEMORY_SYSTEM_HH

#include <optional>
#include <string>

#include "mem/Cache.hh"
#include "mem/Rdram.hh"
#include "mem/Tlb.hh"
#include "sim/Types.hh"

namespace san::mem {

/** How the CPU touches memory. */
enum class AccessKind {
    Load,     //!< stalls for the full miss latency
    Store,    //!< overlapped up to the outstanding-miss depth
    Prefetch, //!< overlapped like stores
};

/** Parameters of a complete per-CPU memory system. */
struct MemorySystemParams {
    std::string name = "mem";
    CacheParams l1i{"l1i", 32 * 1024, 2, 128, false};
    CacheParams l1d{"l1d", 32 * 1024, 2, 128, false};
    std::optional<CacheParams> l2 =
        CacheParams{"l2", 512 * 1024, 2, 128, false};
    unsigned tlbEntries = 64;
    unsigned pageSize = 4096;
    sim::Tick l2HitLatency = sim::ns(10);
    /** Extra fixed cost of a TLB fill beyond its page-table load. */
    sim::Tick tlbWalkOverhead = sim::ns(10);
    /**
     * Load/store misses to up to this many distinct lines overlap
     * (the paper: stores/prefetches don't stall until 4 outstanding).
     * A power of two.
     */
    unsigned overlapDepth = 4;
    RdramParams dram;
};

/**
 * Paper §4 host memory system: 32 KB 2-way L1s, 512 KB 2-way unified
 * L2 with 128 B lines, 64-entry TLBs, RDRAM.
 */
MemorySystemParams hostMemoryParams();

/**
 * Paper §4 host memory system scaled down by 8x for the database
 * workloads (8 KB L1D, 64 KB L2; same lines/associativity).
 */
MemorySystemParams scaledHostMemoryParams();

/**
 * Paper §4 switch-CPU memory system: 4 KB 2-way I$ (64 B lines),
 * 1 KB 2-way D$ (32 B lines), no L2, one outstanding request.
 */
MemorySystemParams switchMemoryParams();

/**
 * One CPU's memory hierarchy. Calls are synchronous: the caller
 * passes the current tick and receives stall time to charge.
 */
class MemorySystem
{
  public:
    /**
     * @throws std::invalid_argument if a model's geometry is one a
     * shift cannot step by (see Cache, Tlb and Rdram), or pageSize or
     * overlapDepth is not a power of two.
     */
    explicit MemorySystem(const MemorySystemParams &params);

    /**
     * Touch the byte range [addr, addr+bytes) with kind @p kind.
     * @return stall ticks beyond base execution.
     */
    sim::Tick dataAccess(Addr addr, std::uint64_t bytes, AccessKind kind,
                         sim::Tick now);

    /** Instruction-side access for a code footprint of @p bytes. */
    sim::Tick instFetch(Addr pc, std::uint64_t bytes, sim::Tick now);

    /** @{ Component access for tests and stats. */
    Cache &l1d() { return l1d_; }
    Cache &l1i() { return l1i_; }
    Cache *l2() { return l2_ ? &*l2_ : nullptr; }
    Tlb &dtlb() { return dtlb_; }
    Tlb &itlb() { return itlb_; }
    Rdram &dram() { return dram_; }
    /** @} */

    /** Total stall ticks returned so far (data + inst + TLB). */
    sim::Tick stallTicks() const { return stall_; }
    const MemorySystemParams &params() const { return params_; }

  private:
    /** Latency of filling one line into L1 from L2/DRAM. */
    sim::Tick fillLatency(Addr line_addr, bool write, sim::Tick now,
                          Cache &l1);

    /** Page-table walk: one dependent memory load. */
    sim::Tick walk(Addr vaddr, sim::Tick now);

    MemorySystemParams params_;
    /** log2 of the L1D and L1I line sizes, the page size and the
     * overlap depth. */
    unsigned dLineShift_, iLineShift_, pageShift_, overlapShift_;
    Cache l1i_, l1d_;
    std::optional<Cache> l2_;
    Tlb itlb_, dtlb_;
    Rdram dram_;
    sim::Tick stall_ = 0;
};

} // namespace san::mem

#endif // SAN_MEM_MEMORY_SYSTEM_HH
