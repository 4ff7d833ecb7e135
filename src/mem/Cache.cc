#include "mem/Cache.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace san::mem {

void
notPowerOfTwo(std::uint64_t value, std::string_view model, const char *field)
{
    throw std::invalid_argument(std::string(model) + ": " + field +
                                " must be a power of two, got " +
                                std::to_string(value));
}

namespace {

/** Sets in @p params's cache; the line size is already checked. */
std::uint64_t
setCount(const CacheParams &params)
{
    if (params.assoc == 0)
        throw std::invalid_argument(params.name +
                                    ": assoc must be at least 1");
    const std::uint64_t set_bytes =
        std::uint64_t(params.lineSize) * params.assoc;
    if (params.size % set_bytes != 0)
        throw std::invalid_argument(
            params.name + ": size must be a multiple of lineSize x assoc (" +
            std::to_string(set_bytes) + "), got " +
            std::to_string(params.size));
    const std::uint64_t sets = params.size / set_bytes;
    log2Exact(sets, params.name, "set count");
    return sets;
}

} // namespace

Cache::Cache(const CacheParams &params)
    : params_(params),
      lineShift_(log2Exact(params.lineSize, params.name, "lineSize")),
      numSets_(setCount(params)),
      setMask_(numSets_ - 1),
      shadow_(numSets_ * params.assoc)
{}

CacheAccess
Cache::access(Addr addr, bool write)
{
    const Addr line = lineAddr(addr);
    std::span<Line> set = setOf(line);
    ++useClock_;

    for (auto &way : set) {
        if (way.valid && way.tag == line) {
            way.lastUse = useClock_;
            way.dirty |= write;
            ++hits_;
            if (params_.classifyMisses)
                shadow_.touch(line);
            return CacheAccess{true, MissClass::None, false};
        }
    }

    // Miss: classify, then fill via LRU replacement.
    ++misses_;
    MissClass mc = MissClass::Capacity;
    if (params_.classifyMisses) {
        mc = classify(line);
        switch (mc) {
          case MissClass::Cold: ++cold_; break;
          case MissClass::Capacity: ++capacity_; break;
          case MissClass::Conflict: ++conflict_; break;
          case MissClass::None: break;
        }
    }

    if (stride_ == 0) {
        // First miss: the tag array is taken now, all ways invalid.
        ways_.resize(numSets_ * params_.assoc);
        stride_ = params_.assoc;
        set = setOf(line);
    }
    Line *victim = &set[0];
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
    victim->tag = line;
    victim->valid = true;
    victim->dirty = write;
    victim->lastUse = useClock_;
    return CacheAccess{false, mc, writeback};
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const std::span<const Line> set = setOf(line);
    return std::any_of(set.begin(), set.end(), [&](const Line &way) {
        return way.valid && way.tag == line;
    });
}

void
Cache::invalidateAll()
{
    std::fill(ways_.begin(), ways_.end(), Line{});
}

MissClass
Cache::classify(Addr line)
{
    // One shadow touch both asks whether a fully-associative cache of
    // the same capacity still holds the line and makes it MRU there.
    // If so, only the mapping caused the miss: conflict. Otherwise the
    // working set simply exceeds capacity. A line never seen before is
    // cold either way (and is never in the shadow).
    const bool held = shadow_.touch(line);
    if (seen_.insert(line))
        return MissClass::Cold;
    return held ? MissClass::Conflict : MissClass::Capacity;
}

bool
Cache::SeenLines::insert(Addr line)
{
    if (chunks_.empty())
        grow();
    const Addr base = line >> 6;
    const std::uint64_t bit = std::uint64_t(1) << (line & 63);
    const std::size_t mask = chunks_.size() - 1;
    for (std::size_t s = home(base);; s = (s + 1) & mask) {
        Chunk &c = chunks_[s];
        if (c.bits == 0) {
            if (2 * (used_ + 1) > chunks_.size()) {
                grow();
                return insert(line);
            }
            c = Chunk{base, bit};
            ++used_;
            return true;
        }
        if (c.base == base) {
            const bool fresh = (c.bits & bit) == 0;
            c.bits |= bit;
            return fresh;
        }
    }
}

void
Cache::SeenLines::grow()
{
    std::vector<Chunk> old = std::move(chunks_);
    const std::size_t slots = old.empty() ? 64 : 2 * old.size();
    chunks_.assign(slots, Chunk{});
    shift_ = 64 - std::countr_zero(slots);
    const std::size_t mask = slots - 1;
    for (const Chunk &c : old) {
        if (c.bits == 0)
            continue;
        std::size_t s = home(c.base);
        while (chunks_[s].bits != 0)
            s = (s + 1) & mask;
        chunks_[s] = c;
    }
}

} // namespace san::mem
