/**
 * @file
 * Bounded LRU set of 64-bit keys with flat, index-linked storage: the
 * TLB, and the fully-associative shadow a Cache classifies its misses
 * against.
 *
 * Entries live in a node array kept in recency order by a circular
 * doubly-linked list of 32-bit indices (node 0 is the list sentinel,
 * entries are nodes 1..size). A key is found through a bucket table
 * of chain heads, with four buckets per node slot so chains stay
 * short; each node links to the next node of its bucket. A full set
 * evicts its least recently used node and reuses it for the incoming
 * key.
 *
 * Storage grows with the keys the set holds: nothing until the first
 * touch, then room for 16 entries, doubling (and re-chaining every
 * node into a bucket table four times the new size) until it reaches
 * the capacity, after which it is never reallocated. Buckets only
 * find keys; the recency list alone decides what is evicted, so how
 * far the storage has grown never changes a result.
 */

#ifndef SAN_MEM_LRU_SET_HH
#define SAN_MEM_LRU_SET_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace san::mem {

/** LRU set of at most `capacity` keys. */
class LruSet
{
  public:
    explicit LruSet(std::uint64_t capacity) : capacity_(capacity)
    {
        assert(capacity < npos);
    }

    /**
     * Make @p key the most recently used entry. An absent key is
     * inserted, evicting the least recently used entry if the set is
     * full.
     * @retval true @p key was in the set before the call.
     */
    bool
    touch(std::uint64_t key)
    {
        if (size_ != 0 && nodes_[nodes_[sentinel].next].key == key)
            return true;
        if (buckets_.empty()) {
            if (capacity_ == 0)
                return false;
            grow();
        }
        std::uint32_t *head = &buckets_[bucket(key)];
        for (std::uint32_t n = *head; n != npos; n = nodes_[n].chain) {
            if (nodes_[n].key == key) {
                unlink(n);
                pushFront(n);
                return true;
            }
        }
        std::uint32_t n;
        if (size_ == capacity_) {
            n = nodes_[sentinel].prev;
            std::uint32_t *link = &buckets_[bucket(nodes_[n].key)];
            while (*link != n)
                link = &nodes_[*link].chain;
            *link = nodes_[n].chain;
            unlink(n);
        } else {
            if (size_ + 1 == nodes_.size()) {
                grow();
                head = &buckets_[bucket(key)];
            }
            n = static_cast<std::uint32_t>(++size_);
        }
        nodes_[n].key = key;
        nodes_[n].chain = *head;
        *head = n;
        pushFront(n);
        return false;
    }

    /** Forget every entry, keeping the storage. */
    void
    clear()
    {
        if (buckets_.empty())
            return;
        std::fill(buckets_.begin(), buckets_.end(), npos);
        nodes_[sentinel].prev = nodes_[sentinel].next = sentinel;
        size_ = 0;
    }

    std::uint64_t capacity() const { return capacity_; }

  private:
    static constexpr std::uint32_t npos = ~std::uint32_t(0);
    static constexpr std::uint32_t sentinel = 0;
    /** Entries the first touch makes room for. */
    static constexpr std::uint64_t firstSlots = 16;

    struct Node {
        std::uint64_t key = 0;
        std::uint32_t prev = 0, next = 0; //!< recency list
        std::uint32_t chain = npos;       //!< next node in the bucket
    };

    std::size_t
    bucket(std::uint64_t key) const
    {
        return (key * 0x9e3779b97f4a7c15ull) >> shift_;
    }

    /** Double the node slots (up to capacity) and re-chain every
     * entry into a bucket table sized for them. */
    void
    grow()
    {
        // Called on the first touch and whenever every slot holds a
        // key, so size_ is the slot count being outgrown.
        const std::uint64_t slots =
            std::min(capacity_, std::max(firstSlots, 2 * size_));
        // A fresh sentinel links to itself: prev = next = 0.
        nodes_.resize(slots + 1);
        const std::uint64_t buckets = std::bit_ceil(4 * slots);
        buckets_.assign(buckets, npos);
        shift_ = 64 - std::countr_zero(buckets);
        for (std::uint32_t n = 1; n <= size_; ++n) {
            std::uint32_t &head = buckets_[bucket(nodes_[n].key)];
            nodes_[n].chain = head;
            head = n;
        }
    }

    void
    unlink(std::uint32_t n)
    {
        nodes_[nodes_[n].prev].next = nodes_[n].next;
        nodes_[nodes_[n].next].prev = nodes_[n].prev;
    }

    void
    pushFront(std::uint32_t n)
    {
        const std::uint32_t first = nodes_[sentinel].next;
        nodes_[n].prev = sentinel;
        nodes_[n].next = first;
        nodes_[first].prev = n;
        nodes_[sentinel].next = n;
    }

    std::uint64_t capacity_;
    std::uint64_t size_ = 0;
    std::vector<Node> nodes_; //!< sentinel + node slots
    std::vector<std::uint32_t> buckets_;
    unsigned shift_ = 63;
};

} // namespace san::mem

#endif // SAN_MEM_LRU_SET_HH
