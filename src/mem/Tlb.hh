/**
 * @file
 * Fully-associative TLB with LRU replacement (64 entries in the
 * modelled system).
 */

#ifndef SAN_MEM_TLB_HH
#define SAN_MEM_TLB_HH

#include <cstdint>

#include "mem/Cache.hh"
#include "mem/LruSet.hh"

namespace san::mem {

/** Fully-associative translation lookaside buffer. */
class Tlb
{
  public:
    /** @throws std::invalid_argument unless @p page_size is a power
     * of two. */
    Tlb(unsigned entries, unsigned page_size)
        : pageSize_(page_size),
          pageShift_(log2Exact(page_size, "tlb", "page size")),
          lru_(entries)
    {}

    /** @retval true the page was resident (TLB hit). */
    bool
    access(Addr addr)
    {
        const bool hit = lru_.touch(addr >> pageShift_);
        hit ? ++hits_ : ++misses_;
        return hit;
    }

    void flush() { lru_.clear(); }

    unsigned entries() const { return unsigned(lru_.capacity()); }
    unsigned pageSize() const { return pageSize_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    unsigned pageSize_;
    unsigned pageShift_;
    LruSet lru_;
    std::uint64_t hits_ = 0, misses_ = 0;
};

} // namespace san::mem

#endif // SAN_MEM_TLB_HH
