/**
 * @file
 * Maglev-style consistent-hash backend selector.
 *
 * A prime-sized lookup table is filled from per-backend permutations
 * (offset/skip derived from apps::detHash, so the table is a pure
 * function of the seed and the alive set). New connections pick
 * table[sig % M]; established connections never consult it again —
 * their assignment lives in the ConnTable — which is exactly the
 * consistency-under-churn property: removing a backend reassigns
 * only the removed backend's *new* traffic, while surviving flows
 * keep their entry.
 *
 * The table is modelled at its own address range so the data plane
 * charges one byte-read through the D$ per new-connection pick.
 */

#ifndef SAN_LB_MAGLEV_HH
#define SAN_LB_MAGLEV_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "apps/DetHash.hh"

namespace san::lb {

class Maglev
{
  public:
    /** "No backend alive" sentinel. */
    static constexpr std::uint8_t kNone = 0xFF;
    /** Model address range (distinct from ConnTable's). */
    static constexpr std::uint64_t kTableBase = 0x1000;
    /** Default prime table size: ~100x typical backend counts keeps
     * the per-backend share within a few percent of even. */
    static constexpr unsigned kDefaultSize = 2053;

    Maglev(unsigned backends, std::uint64_t seed,
           unsigned table_size = kDefaultSize)
        : n_(backends), seed_(seed), table_(table_size, kNone),
          alive_(backends, true)
    {
        assert(backends >= 1 && backends < kNone);
        rebuild();
    }

    /** New-connection pick; kNone when no backend is alive. */
    std::uint8_t
    pick(std::uint64_t sig) const
    {
        return table_[sig % table_.size()];
    }

    bool alive(unsigned b) const { return alive_.at(b); }

    unsigned
    aliveCount() const
    {
        unsigned n = 0;
        for (unsigned b = 0; b < n_; ++b)
            if (alive_[b])
                ++n;
        return n;
    }

    /** Mark a backend dead/alive and repopulate the table. Returns
     * true if the state actually changed. */
    bool
    setAlive(unsigned b, bool alive)
    {
        if (alive_.at(b) == alive)
            return false;
        alive_[b] = alive;
        rebuild();
        return true;
    }

    unsigned size() const { return static_cast<unsigned>(table_.size()); }
    std::uint64_t memoryBytes() const { return table_.size(); }

    /** Model address charged for one pick. */
    std::uint64_t
    pickAddr(std::uint64_t sig) const
    {
        return kTableBase + sig % table_.size();
    }

    /** Standard Maglev population over the alive set. */
    void
    rebuild()
    {
        const auto m = static_cast<std::uint64_t>(table_.size());
        std::fill(table_.begin(), table_.end(), kNone);
        if (aliveCount() == 0)
            return;
        std::vector<std::uint64_t> offset(n_), skip(n_), next(n_, 0);
        for (unsigned b = 0; b < n_; ++b) {
            offset[b] = apps::detHash(seed_, 2 * b) % m;
            skip[b] = apps::detHash(seed_, 2 * b + 1) % (m - 1) + 1;
        }
        std::uint64_t filled = 0;
        while (filled < m) {
            for (unsigned b = 0; b < n_; ++b) {
                if (!alive_[b])
                    continue;
                std::uint64_t c = (offset[b] + next[b] * skip[b]) % m;
                while (table_[c] != kNone) {
                    ++next[b];
                    c = (offset[b] + next[b] * skip[b]) % m;
                }
                table_[c] = static_cast<std::uint8_t>(b);
                ++next[b];
                if (++filled == m)
                    break;
            }
        }
    }

  private:
    unsigned n_;
    std::uint64_t seed_;
    std::vector<std::uint8_t> table_;
    std::vector<bool> alive_;
};

} // namespace san::lb

#endif // SAN_LB_MAGLEV_HH
