/**
 * @file
 * Cross-kernel determinism fuzz: the ladder scheduler must execute
 * EXACTLY the order the plain binary heap executes.
 *
 * The same seeded random schedule — self-rescheduling callbacks,
 * same-tick wakeups (postNow), short-horizon churn, far-future jumps,
 * and runUntilBefore slices that land mid-bucket — is replayed through
 * HeapEventQueue (the PR 4 kernel, kept as the oracle) and EventQueue
 * (the ladder). Every executed event logs (tick, spawn-id); the two
 * logs must match element for element. Any ordering divergence —
 * a bucket adopted out of order, a spill refilled late, a mid-step
 * schedule filed into the wrong tier — cascades into the log and
 * fails the comparison.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/Random.hh"
#include "sim/Types.hh"

namespace {

using namespace san::sim;

/** One replay of the generated schedule through a queue kernel. */
template <typename Queue>
class Driver
{
  public:
    explicit Driver(std::uint64_t seed) : rng_(seed) {}

    std::vector<std::pair<Tick, int>>
    replay()
    {
        // Seed load: a mix of near events (inside the ladder's
        // initial window) and far-future ones (spill heap).
        for (int i = 0; i < 64; ++i)
            spawnAt(rng_.below(ms(1)));
        for (int i = 0; i < 16; ++i)
            spawnAt(ms(5) + rng_.below(ms(50)));

        // Sliced execution: limits land anywhere, including inside a
        // bucket span and on dead spans with no events at all.
        Tick limit = 0;
        for (int s = 0; s < 40; ++s) {
            limit += rng_.below(us(200)) + 1;
            q_.runUntilBefore(limit);
            log_.emplace_back(q_.now(), -1); // window boundary marker
        }
        q_.run();
        log_.emplace_back(q_.now(), -2); // final-time marker
        return std::move(log_);
    }

  private:
    void
    fire(int id)
    {
        log_.emplace_back(q_.now(), id);
        if (spawned_ >= maxSpawn)
            return;
        // Follow-up mix. The rng draws happen in execution order, so
        // they are identical across kernels exactly when the
        // execution orders are — any divergence amplifies itself.
        const std::uint64_t r = rng_.below(100);
        if (r < 45) // short horizon: the common simulator pattern
            spawnAt(q_.now() + rng_.below(us(2)) + 1);
        if (r < 20) // zero-delay wakeup
            spawnAt(q_.now());
        if (r < 8) // far-future jump: forces spill + later rebase
            spawnAt(q_.now() + ms(2) + rng_.below(ms(20)));
        if (r < 3) // "past" schedule: exercises the clamp
            spawnAt(q_.now() / 2);
    }

    void
    spawnAt(Tick when)
    {
        const int id = spawned_++;
        if (when == q_.now())
            q_.postNow([this, id] { fire(id); });
        else
            q_.schedule(when, [this, id] { fire(id); });
    }

    static constexpr int maxSpawn = 4000;

    Queue q_;
    Random rng_;
    std::vector<std::pair<Tick, int>> log_;
    int spawned_ = 0;
};

class LadderFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LadderFuzz, LadderExecutionOrderMatchesHeapExactly)
{
    const auto heap = Driver<HeapEventQueue>(GetParam()).replay();
    const auto ladder = Driver<EventQueue>(GetParam()).replay();
    ASSERT_EQ(heap.size(), ladder.size());
    for (std::size_t i = 0; i < heap.size(); ++i) {
        ASSERT_EQ(heap[i], ladder[i])
            << "divergence at log entry " << i << ": heap=("
            << heap[i].first << "," << heap[i].second << ") ladder=("
            << ladder[i].first << "," << ladder[i].second << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 42,
                                           0xc0ffee, 0xdeadbeef,
                                           0x5eed5eed5eed5eedull));

} // namespace
