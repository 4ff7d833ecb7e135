/**
 * @file
 * Fixed-capacity LRU set of 64-bit keys with flat, index-linked
 * storage: the TLB, and the fully-associative shadow a Cache
 * classifies its misses against.
 *
 * Entries live in a node array kept in recency order by a circular
 * doubly-linked list of 32-bit indices (node `capacity` is the list
 * sentinel). A key is found through a bucket table of chain heads,
 * with four buckets per entry so chains stay short; each node links
 * to the next node of its bucket. A full set evicts its least
 * recently used node and reuses it for the incoming key. Both arrays
 * are sized on the first touch: an LRU that is never used costs no
 * memory, and once taken its storage is never reallocated.
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
        if (size_ != 0 && nodes_[nodes_[sentinel()].next].key == key)
            return true;
        if (buckets_.empty()) {
            if (capacity_ == 0)
                return false;
            allocate();
        }
        std::uint32_t &head = buckets_[bucket(key)];
        for (std::uint32_t n = head; n != npos; n = nodes_[n].chain) {
            if (nodes_[n].key == key) {
                unlink(n);
                pushFront(n);
                return true;
            }
        }
        std::uint32_t n;
        if (size_ == capacity_) {
            n = nodes_[sentinel()].prev;
            std::uint32_t *link = &buckets_[bucket(nodes_[n].key)];
            while (*link != n)
                link = &nodes_[*link].chain;
            *link = nodes_[n].chain;
            unlink(n);
        } else {
            n = static_cast<std::uint32_t>(size_++);
        }
        nodes_[n].key = key;
        nodes_[n].chain = head;
        head = n;
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
        nodes_[sentinel()].prev = nodes_[sentinel()].next = sentinel();
        size_ = 0;
    }

    std::uint64_t capacity() const { return capacity_; }

  private:
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    struct Node {
        std::uint64_t key = 0;
        std::uint32_t prev = 0, next = 0; //!< recency list
        std::uint32_t chain = npos;       //!< next node in the bucket
    };

    std::uint32_t
    sentinel() const
    {
        return static_cast<std::uint32_t>(capacity_);
    }

    std::size_t
    bucket(std::uint64_t key) const
    {
        return (key * 0x9e3779b97f4a7c15ull) >> shift_;
    }

    void
    allocate()
    {
        const std::uint64_t buckets = std::bit_ceil(4 * capacity_);
        buckets_.assign(buckets, npos);
        shift_ = 64 - std::countr_zero(buckets);
        nodes_.resize(capacity_ + 1);
        nodes_[sentinel()].prev = nodes_[sentinel()].next = sentinel();
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
        const std::uint32_t first = nodes_[sentinel()].next;
        nodes_[n].prev = sentinel();
        nodes_[n].next = first;
        nodes_[first].prev = n;
        nodes_[sentinel()].next = n;
    }

    std::uint64_t capacity_;
    std::uint64_t size_ = 0;
    std::vector<Node> nodes_;
    std::vector<std::uint32_t> buckets_;
    unsigned shift_ = 63;
};

} // namespace san::mem

#endif // SAN_MEM_LRU_SET_HH
