/**
 * @file
 * Address Translation Buffer (ATB).
 *
 * Each switch CPU has a 16-entry direct-mapped ATB translating the
 * flat memory-mapped addresses a handler uses into (buffer ID,
 * offset) pairs. It also drives logical deallocation: given an end
 * address, it hands the DBA every buffer whose mapped range lies
 * entirely below it, so programmers free buffer space by data object,
 * not by hardware buffer boundary.
 */

#ifndef SAN_ACTIVE_ATB_HH
#define SAN_ACTIVE_ATB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/Metrics.hh"

namespace san::active {

/** One switch CPU's address translation buffer. */
class Atb
{
  public:
    Atb(unsigned entries = 16, unsigned buf_bytes = 512)
        : bufBytes_(buf_bytes), entries_(entries)
    {}

    unsigned entries() const { return static_cast<unsigned>(entries_.size()); }

    /** Index of the direct-mapped slot for a mapping base address. */
    std::size_t
    slotOf(std::uint32_t base) const
    {
        return (base / bufBytes_) % entries_.size();
    }

    /**
     * Install base -> bufId. @retval false the slot is occupied by a
     * different live mapping (a conflict the dispatch unit must wait
     * out).
     */
    bool
    map(std::uint32_t base, unsigned buf_id)
    {
        Entry &e = entries_[slotOf(base)];
        if (e.valid) {
            ++conflicts_;
            return false;
        }
        e = Entry{true, base, buf_id};
        ++mappings_;
        return true;
    }

    /** Translate an address into (bufId, offset) if mapped. */
    std::optional<std::pair<unsigned, std::uint32_t>>
    translate(std::uint32_t addr) const
    {
        const std::uint32_t base = addr - (addr % bufBytes_);
        const Entry &e = entries_[slotOf(base)];
        if (!e.valid || e.base != base)
            return std::nullopt;
        return std::pair{e.bufId, addr - base};
    }

    /**
     * Remove every mapping whose buffer lies entirely below
     * @p end_addr and return the freed buffer IDs (for the DBA).
     */
    std::vector<unsigned>
    releaseBelow(std::uint32_t end_addr)
    {
        std::vector<unsigned> freed;
        for (Entry &e : entries_) {
            if (e.valid && e.base + bufBytes_ <= end_addr) {
                freed.push_back(e.bufId);
                e.valid = false;
            }
        }
        return freed;
    }

    /** Remove one specific mapping (send-and-free path). */
    bool
    release(std::uint32_t base)
    {
        Entry &e = entries_[slotOf(base)];
        if (!e.valid || e.base != base)
            return false;
        e.valid = false;
        return true;
    }

    unsigned
    liveMappings() const
    {
        unsigned n = 0;
        for (const Entry &e : entries_)
            n += e.valid;
        return n;
    }

    std::uint64_t mappings() const { return mappings_; }
    std::uint64_t conflicts() const { return conflicts_; }

    /** Map attempts that found their direct-mapped slot free. */
    double
    hitRate() const
    {
        const std::uint64_t tries = mappings_ + conflicts_;
        return tries > 0
                   ? static_cast<double>(mappings_) /
                         static_cast<double>(tries)
                   : 1.0;
    }

    /**
     * Register this ATB's timeline under @p prefix: live mappings
     * (occupancy), map-conflicts per interval, and the cumulative
     * hit rate of the direct-mapped slots.
     */
    void
    registerMetrics(obs::MetricsRegistry &m,
                    const std::string &prefix) const
    {
        m.add(prefix + ".live", obs::GaugeKind::Gauge,
              [this] { return static_cast<double>(liveMappings()); });
        m.add(prefix + ".conflicts", obs::GaugeKind::Rate,
              [this] { return static_cast<double>(conflicts_); });
        m.add(prefix + ".hitRate", obs::GaugeKind::Gauge,
              [this] { return hitRate(); });
    }

  private:
    struct Entry {
        bool valid = false;
        std::uint32_t base = 0;
        unsigned bufId = 0;
    };

    unsigned bufBytes_;
    std::vector<Entry> entries_;
    std::uint64_t mappings_ = 0;
    std::uint64_t conflicts_ = 0;
};

} // namespace san::active

#endif // SAN_ACTIVE_ATB_HH
