/**
 * @file
 * Set-associative write-back cache model with LRU replacement and
 * cold/capacity/conflict miss classification.
 *
 * The cache tracks tags only (the simulator never stores data in
 * caches); timing is composed by MemorySystem. Every geometry field
 * the per-line path steps by is a power of two, so lines and sets
 * are a shift and a mask away from an address.
 */

#ifndef SAN_MEM_CACHE_HH
#define SAN_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mem/LruSet.hh"

namespace san::mem {

using Addr = std::uint64_t;

/** Why an access missed. */
enum class MissClass : std::uint8_t { None, Cold, Capacity, Conflict };

/** Throws std::invalid_argument saying that @p field of @p model is
 * @p value, not a power of two. */
[[noreturn, gnu::cold]] void notPowerOfTwo(std::uint64_t value,
                                           std::string_view model,
                                           const char *field);

/**
 * log2 of @p value, a geometry field that the models step by with a
 * shift or a mask.
 * @throws std::invalid_argument naming @p model and @p field unless
 * @p value is a power of two.
 */
inline unsigned
log2Exact(std::uint64_t value, std::string_view model, const char *field)
{
    // Not std::has_single_bit: without -mpopcnt that is a libgcc call,
    // and each model built pays it once per field.
    if (value == 0 || (value & (value - 1)) != 0)
        notPowerOfTwo(value, model, field);
    return static_cast<unsigned>(std::countr_zero(value));
}

/** Geometry and behaviour of one cache level. */
struct CacheParams {
    std::string name = "cache";
    std::uint64_t size = 32 * 1024;     //!< total bytes
    unsigned assoc = 2;                 //!< ways per set
    unsigned lineSize = 64;             //!< bytes per line
    bool classifyMisses = false;        //!< keep FA shadow for class.
};

/** Result of a single cache access: one byte, returned in a register. */
struct CacheAccess {
    bool hit : 1 = false;
    MissClass missClass : 2 = MissClass::None;
    bool writeback : 1 = false;         //!< a dirty line was evicted
};

/** A single level of set-associative write-back cache. */
class Cache
{
  public:
    /**
     * @throws std::invalid_argument unless the line size is a power
     * of two, the size a multiple of line size x ways, and the set
     * count a power of two.
     */
    explicit Cache(const CacheParams &params);

    /**
     * Access one line. @p addr may be any byte address; the line
     * containing it is accessed.
     */
    CacheAccess access(Addr addr, bool write);

    /** Probe without disturbing state. */
    bool contains(Addr addr) const;

    /** Drop every line (losing dirty data; model-level reset). */
    void invalidateAll();

    const CacheParams &params() const { return params_; }

    /** @{ Statistics. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t coldMisses() const { return cold_; }
    std::uint64_t capacityMisses() const { return capacity_; }
    std::uint64_t conflictMisses() const { return conflict_; }
    std::uint64_t writebacks() const { return writebacks_; }
    double
    missRate() const
    {
        const auto total = hits_ + misses_;
        return total ? static_cast<double>(misses_) / total : 0.0;
    }
    /** @} */

  private:
    struct Line {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    /**
     * Grow-only set of line addresses: 64-line bitmaps in an
     * open-addressed table (linear probing, at most half full; a
     * chunk with no bits set is an empty slot).
     */
    class SeenLines
    {
      public:
        /** @retval true @p line was not in the set (and now is). */
        bool insert(Addr line);

      private:
        struct Chunk {
            Addr base = 0;          //!< line >> 6
            std::uint64_t bits = 0; //!< one bit per line in the chunk
        };

        std::size_t
        home(Addr base) const
        {
            return (base * 0x9e3779b97f4a7c15ull) >> shift_;
        }

        void grow();

        std::vector<Chunk> chunks_;
        std::size_t used_ = 0;
        unsigned shift_ = 63;
    };

    Addr lineAddr(Addr a) const { return a >> lineShift_; }
    std::size_t setIndex(Addr line) const { return line & setMask_; }

    /** The ways of @p line's set in the flat tag array (none before
     * the first miss allocates it). */
    std::span<Line>
    setOf(Addr line)
    {
        return {ways_.data() + setIndex(line) * stride_, stride_};
    }
    std::span<const Line>
    setOf(Addr line) const
    {
        return {ways_.data() + setIndex(line) * stride_, stride_};
    }

    MissClass classify(Addr line);

    CacheParams params_;
    unsigned lineShift_;
    std::size_t numSets_;
    std::size_t setMask_;
    /** Set s holds ways [s * stride_, (s + 1) * stride_). Empty, with
     * stride_ 0, until the first miss: every set then reads as no
     * ways, so lookups miss without a check on the hit path. */
    std::vector<Line> ways_;
    unsigned stride_ = 0;
    std::uint64_t useClock_ = 0;

    // Miss classification state: every line ever missed on (cold)
    // and a fully-associative LRU shadow of equal line count that
    // sees every access (conflict vs capacity).
    SeenLines seen_;
    LruSet shadow_;

    std::uint64_t hits_ = 0, misses_ = 0;
    std::uint64_t cold_ = 0, capacity_ = 0, conflict_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace san::mem

#endif // SAN_MEM_CACHE_HH
