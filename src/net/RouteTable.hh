/**
 * @file
 * Destination-indexed routing table: NodeId -> output port in O(1).
 *
 * The pre-fabric switch kept its routes in a pair of parallel vectors
 * scanned with std::find — O(#destinations) per packet per hop, which
 * turns quadratic the moment a multi-switch fabric routes thousands
 * of endpoints through hundreds of switches. This replaces the scan
 * with a small open-addressed hash table: power-of-two capacity,
 * linear probing, invalidNode as the empty sentinel. Everything is
 * deterministic — insertion order never changes a lookup result, the
 * probe sequence is a pure function of the key — so swapping the
 * structure in leaves every fingerprint and golden byte-identical.
 */

#ifndef SAN_NET_ROUTE_TABLE_HH
#define SAN_NET_ROUTE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/Packet.hh"
#include "sim/Random.hh"

namespace san::net {

/** Open-addressed NodeId -> port map (the switch routing table). */
class RouteTable
{
  public:
    RouteTable() = default;

    /** Install or overwrite the port for @p dst. */
    void
    set(NodeId dst, unsigned port)
    {
        if (slots_.empty())
            rehash(kMinCapacity);
        Slot &s = probe(dst);
        if (s.dst == invalidNode) {
            // Grow before the load factor makes probes cluster; the
            // rehash keeps lookups O(1) at any table size.
            if ((used_ + 1) * 4 > slots_.size() * 3) {
                rehash(slots_.size() * 2);
                Slot &fresh = probe(dst);
                fresh.dst = dst;
                fresh.port = port;
                ++used_;
                return;
            }
            s.dst = dst;
            ++used_;
        }
        s.port = port;
    }

    /**
     * Size the table for @p entries destinations at once, so filling
     * it never rehashes. Keeps every installed route.
     */
    void
    reserve(std::size_t entries)
    {
        std::size_t capacity = std::max(slots_.size(), kMinCapacity);
        while (entries * 4 > capacity * 3)
            capacity *= 2;
        if (capacity != slots_.size())
            rehash(capacity);
    }

    /** The port routed toward @p dst, or nullptr when absent. */
    const unsigned *
    find(NodeId dst) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot &s = const_cast<RouteTable *>(this)->probe(dst);
        return s.dst == invalidNode ? nullptr : &s.port;
    }

    std::size_t size() const { return used_; }

  private:
    struct Slot {
        NodeId dst = invalidNode;
        unsigned port = 0;
    };

    static constexpr std::size_t kMinCapacity = 16;

    /** splitmix64-style avalanche: adjacent NodeIds (the common case
     * — a fabric numbers nodes densely) spread across the table. */
    static std::size_t
    hashOf(NodeId dst)
    {
        return static_cast<std::size_t>(
            sim::mix64(dst + sim::goldenGamma));
    }

    /** First slot holding @p dst, or the empty slot that would. */
    Slot &
    probe(NodeId dst)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hashOf(dst) & mask;
        while (slots_[i].dst != invalidNode && slots_[i].dst != dst)
            i = (i + 1) & mask;
        return slots_[i];
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(capacity, Slot{});
        for (const Slot &s : old) {
            if (s.dst == invalidNode)
                continue;
            Slot &fresh = probe(s.dst);
            fresh.dst = s.dst;
            fresh.port = s.port;
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

} // namespace san::net

#endif // SAN_NET_ROUTE_TABLE_HH
