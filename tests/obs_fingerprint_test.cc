/**
 * @file
 * Tests for the run fingerprint: determinism, seed sensitivity, and
 * independence from how the run is sliced into runUntilBefore()
 * windows.
 */

#include <gtest/gtest.h>

#include <functional>

#include "apps/MpegFilter.hh"
#include "apps/Select.hh"
#include "obs/Fingerprint.hh"
#include "sim/EventQueue.hh"
#include "sim/Random.hh"

namespace {

using namespace san;
using namespace san::sim;

/** Schedule a random event load (with cascading reschedules) and run
 * it through @p runner; return the resulting fingerprint. */
obs::RunFingerprint
fingerprintLoad(std::uint64_t seed,
                const std::function<void(EventQueue &)> &runner =
                    [](EventQueue &q) { q.run(); })
{
    EventQueue q;
    obs::RunFingerprint fp;
    q.setObserver(&fp);
    Random rng(seed);
    // A quarter of the events schedule one follow-up, so the load
    // exercises dynamically-created events too.
    std::function<void(Tick)> maybe_cascade = [&](Tick delta) {
        q.after(delta, [&q, &rng, &maybe_cascade] {
            if (rng.below(4) == 0)
                maybe_cascade(rng.below(1000));
        });
    };
    for (int i = 0; i < 400; ++i)
        maybe_cascade(rng.below(1'000'000));
    runner(q);
    EXPECT_EQ(fp.eventsFolded(), q.executedEvents());
    return fp;
}

TEST(RunFingerprint, SameSeedSameFingerprint)
{
    const auto a = fingerprintLoad(42);
    const auto b = fingerprintLoad(42);
    EXPECT_EQ(a.value(), b.value());
    EXPECT_EQ(a.eventsFolded(), b.eventsFolded());
    EXPECT_NE(a.value(), 0u);
}

TEST(RunFingerprint, DifferentSeedDifferentFingerprint)
{
    EXPECT_NE(fingerprintLoad(42).value(), fingerprintLoad(43).value());
    EXPECT_NE(fingerprintLoad(1).value(), fingerprintLoad(2).value());
}

TEST(RunFingerprint, StableAcrossRunUntilSlicing)
{
    const auto whole = fingerprintLoad(7);
    // Fine slices, coarse slices, and slices that mostly land between
    // events must all fold the identical execution.
    for (Tick step : {1000u, 77'777u, 1'000'000u}) {
        const auto sliced =
            fingerprintLoad(7, [step](EventQueue &q) {
                for (Tick t = step; !q.empty(); t += step)
                    q.runUntilBefore(t);
            });
        EXPECT_EQ(whole.value(), sliced.value()) << "step " << step;
    }
    // Mixing runUntilBefore() with a final run() is also equivalent.
    const auto mixed = fingerprintLoad(7, [](EventQueue &q) {
        q.runUntilBefore(300'000);
        q.runUntilBefore(300'000); // idempotent re-run at same limit
        q.run();
    });
    EXPECT_EQ(whole.value(), mixed.value());
}

TEST(RunFingerprint, FoldStatChangesValue)
{
    obs::RunFingerprint a, b;
    a.fold(std::uint64_t{1});
    b.fold(std::uint64_t{1});
    ASSERT_EQ(a.value(), b.value());
    b.foldStat("execTime", 123.0);
    EXPECT_NE(a.value(), b.value());
    // Same stat under a different name must also diverge.
    obs::RunFingerprint c;
    c.fold(std::uint64_t{1});
    c.foldStat("hostIoBytes", 123.0);
    EXPECT_NE(b.value(), c.value());
}

/** Whole-cluster determinism: two identical runs, one fingerprint. */
TEST(RunFingerprint, ClusterRunsAreReproducible)
{
    apps::MpegParams params;
    params.fileBytes = 128 * 1024;
    const apps::RunStats a = runMpegFilter(apps::Mode::Active, params);
    const apps::RunStats b = runMpegFilter(apps::Mode::Active, params);
    EXPECT_NE(a.fingerprint, 0u);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.execTime, b.execTime);

    const apps::RunStats c = runMpegFilter(apps::Mode::Normal, params);
    EXPECT_NE(a.fingerprint, c.fingerprint);
}

/** Workload seed reaches the fingerprint through event timing. */
TEST(RunFingerprint, ClusterSeedChangesFingerprint)
{
    apps::SelectParams params;
    params.tableBytes = 1024 * 1024;
    apps::SelectParams other = params;
    other.seed = params.seed + 1;
    const apps::RunStats a = runSelect(apps::Mode::Normal, params);
    const apps::RunStats b = runSelect(apps::Mode::Normal, other);
    EXPECT_NE(a.fingerprint, b.fingerprint);
}

} // namespace
