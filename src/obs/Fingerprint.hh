/**
 * @file
 * Run fingerprint: one 64-bit integer summarizing an entire run.
 *
 * Attached as an EventQueue observer, the fingerprint folds every
 * executed event's (tick, sequence-number) pair through a splitmix64
 * avalanche. Because event sequence numbers are assigned in schedule
 * order and ties break deterministically, two runs produce the same
 * fingerprint iff they executed the same events at the same times in
 * the same order — the strongest cheap determinism check available.
 * End-of-run statistic values are folded on top so a run that
 * somehow times identically but computes different numbers still
 * diverges.
 *
 * The fold is associative-free (order-sensitive) by design: a
 * reordered pair of same-tick events changes the value.
 */

#ifndef SAN_OBS_FINGERPRINT_HH
#define SAN_OBS_FINGERPRINT_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/Random.hh"
#include "sim/Simulation.hh"
#include "sim/Types.hh"

namespace san::obs {

/** Streaming 64-bit fingerprint of a simulation run. */
class RunFingerprint : public sim::EventQueue::Observer
{
  public:
    /** EventQueue::Observer: fold one executed event. */
    void
    onEvent(sim::Tick when, std::uint64_t seq) override
    {
        fold(when);
        fold(seq);
        ++events_;
    }

    /** Fold one 64-bit value into the hash. */
    void
    fold(std::uint64_t v)
    {
        hash_ = sim::mix64(hash_ ^ (v + sim::goldenGamma));
    }

    /** Fold a double by bit pattern (exact, not approximate). */
    void
    fold(double v)
    {
        // Canonicalize the two zero bit patterns; NaN payloads are
        // folded as-is (a NaN stat is itself a regression to catch).
        if (v == 0.0)
            v = 0.0;
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        fold(bits);
    }

    /** Fold a named end-of-run statistic value. */
    void
    foldStat(std::string_view name, double value)
    {
        // FNV-1a over the name keeps renames from colliding silently.
        fold(sim::fnv1a(name));
        fold(value);
    }

    /** The fingerprint so far. */
    std::uint64_t value() const { return sim::mix64(hash_ ^ events_); }

    /** Events folded so far (sanity/debug aid). */
    std::uint64_t eventsFolded() const { return events_; }

  private:
    std::uint64_t hash_ = 0;
    std::uint64_t events_ = 0;
};

/**
 * Fingerprint of a run: one streaming RunFingerprint per shard
 * queue, each folding its own shard's event stream in (tick, seq)
 * execution order, combined deterministically in shard-id order.
 * Because the partition and the window sequence depend only on the
 * topology — never on the thread count — each per-shard stream is
 * bit-identical across worker counts and repeat runs, and so is the
 * combined digest. This is the "merge per-shard event streams in
 * deterministic order, then fold" rule of DESIGN.md §14; with one
 * shard the merge is the identity.
 */
class ShardedFingerprint
{
  public:
    /** Attach one observer per shard queue of @p sim. Call once,
     *  after any shard plan is applied and before the run. */
    void
    attach(sim::Simulation &sim)
    {
        shards_.clear();
        for (std::size_t s = 0; s < sim.shardCount(); ++s) {
            shards_.push_back(std::make_unique<RunFingerprint>());
            sim.shardQueue(s).setObserver(shards_.back().get());
        }
    }

    std::size_t shardCount() const { return shards_.size(); }

    /** Shard @p s's own stream digest (tests compare these across
     *  thread counts directly). */
    const RunFingerprint &shard(std::size_t s) const
    {
        return *shards_.at(s);
    }

    /** Total events executed across all shards. */
    std::uint64_t
    eventsFolded() const
    {
        std::uint64_t n = 0;
        for (const auto &f : shards_)
            n += f->eventsFolded();
        return n;
    }

    /**
     * Fold the merged digest into @p into: the shard count, then
     * every shard's (value, events) in shard order. One shard is the
     * identity: a fresh @p into becomes that shard's own digest, as
     * if it had observed the queue itself.
     */
    void
    combineInto(RunFingerprint &into) const
    {
        if (shards_.size() == 1) {
            assert(into.eventsFolded() == 0 && into.value() == 0 &&
                   "the one-shard merge needs a fresh fingerprint");
            into = *shards_.front();
            return;
        }
        into.fold(static_cast<std::uint64_t>(shards_.size()));
        for (const auto &f : shards_) {
            into.fold(f->value());
            into.fold(f->eventsFolded());
        }
    }

    /** The combined run digest. */
    std::uint64_t
    value() const
    {
        RunFingerprint combined;
        combineInto(combined);
        return combined.value();
    }

  private:
    std::vector<std::unique_ptr<RunFingerprint>> shards_;
};

} // namespace san::obs

#endif // SAN_OBS_FINGERPRINT_HH
