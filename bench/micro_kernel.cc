/**
 * @file
 * Event-kernel micro-benchmark, two experiments in one binary.
 *
 * 1. Kernel throughput on the capture sizes the simulator actually
 *    schedules (the slot arena stores up to 48 B inline):
 *
 *      resume16   16 B capture — coroutine resumption / channel wakeup
 *      packet48   48 B capture — at the slot's inline boundary
 *      message96  96 B capture — Packet-sized; served from the
 *                                slot arena's recycling overflow pool
 *
 *    tools/perf_baseline gates each workload's kernel_eps against the
 *    committed baseline's (an absolute events/sec floor).
 *
 * 2. Ladder scheduler: EventQueue (ladder) against HeapEventQueue
 *    (the binary heap, also the ladder fuzz oracle) at pending depths
 *    1k, 10k and 100k, under three scheduling-horizon mixes:
 *
 *      short   1..1000 ns delays — link serialization, routing,
 *              credit returns: the dominant simulator pattern the
 *              ladder's O(1) buckets target
 *      uniform 1 ns..100 us — spread across the whole ring, stressing
 *              bucket adoption and width tuning
 *      far     mostly short, 1/16 jumping +1 ms — adversarial for the
 *              ladder: spill pushes, refills and window rebases
 *
 *    Both queues replay identical schedules and cross-check a folded
 *    sink value, so a determinism divergence fails the bench.
 *
 * Prints a JSON report on stdout (consumed by tools/perf_baseline,
 * schema san-micro-kernel-v4, whose LIMITS bound the ladder's speedup
 * on short_10k, the short-horizon mix at 10k pending) and
 * human-readable tables on stderr.
 *
 * Usage: micro_kernel [--events N]
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "BenchCommon.hh"
#include "obs/Json.hh"
#include "sim/EventQueue.hh"
#include "sim/Types.hh"

namespace {

using san::sim::Tick;

/** Deterministic xorshift: every run sees the identical schedule. */
struct Rng {
    std::uint64_t s;
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    Tick delay() { return (next() % 1000) + 1; }
};

/** Self-rescheduling load shared by every capture size: @p Pad extra
 * 8-byte words ride in the capture alongside the state pointer. */
template <unsigned Pad>
struct Load {
    san::sim::EventQueue q;
    Rng rng{0x9e3779b97f4a7c15ull};
    std::uint64_t remaining = 0;
    std::uint64_t sink = 0;

    struct Cb {
        Load *load;
        std::uint64_t pad[Pad];

        void
        operator()()
        {
            Load &l = *load;
            l.sink += l.q.now() ^ pad[0];
            if (l.remaining > 0) {
                --l.remaining;
                pad[0] ^= l.sink;
                l.q.after(l.rng.delay(), Cb{load, {pad[0]}});
            }
        }
    };

    /** Run @p total events through @p pending concurrent chains;
     * returns events/sec of process CPU time (immune to descheduling
     * noise on shared CI machines — these runs take milliseconds). */
    double
    run(std::uint64_t total, unsigned pending)
    {
        remaining = total > pending ? total - pending : 0;
        const std::clock_t c0 = std::clock();
        for (unsigned i = 0; i < pending; ++i)
            q.after(rng.delay(), Cb{this, {i}});
        q.run();
        const double secs =
            static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
        const double events =
            static_cast<double>(q.executedEvents());
        return secs > 0 ? events / secs : 0.0;
    }
};

struct Result {
    const char *name;
    std::size_t captureBytes;
    double kernelEps;
};

/** Scheduling-horizon mix of one depth-scaled workload. */
enum class Mix { Short, Uniform, Far };

constexpr const char *
mixName(Mix m)
{
    switch (m) {
      case Mix::Short:
        return "short";
      case Mix::Uniform:
        return "uniform";
      case Mix::Far:
        return "far";
    }
    return "?";
}

/**
 * Depth-scaled ladder-vs-heap load: @p pending self-rescheduling
 * chains with a 16-byte capture (the dominant real capture size),
 * delays drawn from one of the horizon mixes above. The heap and the
 * ladder execute the identical schedule — any (tick, seq) ordering
 * divergence desynchronizes the shared rng stream and trips the sink
 * cross-check in compareDepth().
 */
template <typename Queue>
struct DepthLoad {
    Queue q;
    Rng rng{0x2545f4914f6cdd1dull};
    Mix mix;
    std::uint64_t remaining = 0;
    std::uint64_t sink = 0;

    explicit DepthLoad(Mix m) : mix(m) {}

    Tick
    delay()
    {
        switch (mix) {
          case Mix::Short: // 1..1000 ns
            return ((rng.next() % 1000) + 1) * 1000;
          case Mix::Uniform: // 1 ns..100 us
            return ((rng.next() % 100'000) + 1) * 1000;
          case Mix::Far: // short, with 1/16 jumping +1 ms
            return ((rng.next() % 500) + 1) * 1000 +
                   (rng.next() % 16 == 0 ? 1'000'000'000 : 0);
        }
        return 1;
    }

    struct Cb {
        DepthLoad *load;
        std::uint64_t pad;

        void
        operator()()
        {
            DepthLoad &l = *load;
            l.sink += l.q.now() ^ pad;
            if (l.remaining > 0) {
                --l.remaining;
                l.q.after(l.delay(), Cb{load, l.sink});
            }
        }
    };

    /** Events/sec of process CPU time over @p total events across
     * @p pending concurrent chains (see Load::run on why CPU time). */
    double
    run(std::uint64_t total, std::uint64_t pending)
    {
        remaining = total > pending ? total - pending : 0;
        const std::clock_t c0 = std::clock();
        for (std::uint64_t i = 0; i < pending; ++i)
            q.after(delay(), Cb{this, i});
        q.run();
        const double secs =
            static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
        const double events = static_cast<double>(q.executedEvents());
        return secs > 0 ? events / secs : 0.0;
    }
};

struct DepthResult {
    std::string name;
    std::uint64_t pending;
    Mix mix;
    double heapEps;
    double ladderEps;
    double speedup() const { return heapEps > 0 ? ladderEps / heapEps : 0; }
};

DepthResult
compareDepth(std::uint64_t pending, Mix mix, std::uint64_t events)
{
    using san::sim::EventQueue;
    using san::sim::HeapEventQueue;
    // Size the run so deep workloads still cycle every chain a few
    // times past the warm-up fill.
    const std::uint64_t total = events > pending * 4 ? events
                                                     : pending * 4;
    DepthLoad<HeapEventQueue>(mix).run(total / 8, pending);
    DepthLoad<EventQueue>(mix).run(total / 8, pending);
    // Interleaved best-of-2 per kernel: a noise burst hitting one
    // timed sample cannot swing the ratio the gate reads.
    double heapEps = 0.0;
    double ladderEps = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        DepthLoad<HeapEventQueue> heap(mix);
        heapEps = std::max(heapEps, heap.run(total, pending));
        DepthLoad<EventQueue> ladder(mix);
        ladderEps = std::max(ladderEps, ladder.run(total, pending));
        if (heap.sink != ladder.sink) {
            std::fprintf(stderr,
                         "FATAL: depth %llu/%s: heap and ladder "
                         "diverged (sink %llu vs %llu)\n",
                         static_cast<unsigned long long>(pending),
                         mixName(mix),
                         static_cast<unsigned long long>(heap.sink),
                         static_cast<unsigned long long>(ladder.sink));
            std::exit(1);
        }
        // Sanity: the adversarial mix must actually exercise the
        // spill and refill paths the sanitizer job wants covered.
        if (mix == Mix::Far) {
            const auto &st = ladder.q.scheduler().stats();
            if (st.spillPushes == 0 || st.refills == 0) {
                std::fprintf(
                    stderr,
                    "FATAL: far mix never hit the spill/refill "
                    "path (spills=%llu refills=%llu)\n",
                    static_cast<unsigned long long>(st.spillPushes),
                    static_cast<unsigned long long>(st.refills));
                std::exit(1);
            }
        }
    }
    std::string name = mixName(mix);
    name += "_";
    name += pending >= 100'000 ? "100k" : pending >= 10'000 ? "10k"
                                                            : "1k";
    return DepthResult{std::move(name), pending, mix, heapEps,
                       ladderEps};
}

template <unsigned Pad>
Result
measure(const char *name, std::uint64_t events, unsigned pending)
{
    // One untimed run of the same length first warms the allocator
    // and the core, as the timed run would find them mid-simulation.
    Load<Pad>{}.run(events, pending);
    Load<Pad> load;
    const double eps = load.run(events, pending);
    return Result{name, sizeof(typename Load<Pad>::Cb), eps};
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 2'000'000;
    san::bench::Flags().number("--events", events).parse(argc, argv);
    const unsigned pending = 4096;

    const Result results[] = {
        measure<1>("resume16", events, pending),
        measure<5>("packet48", events, pending),
        measure<11>("message96", events, pending),
    };

    const Mix mixes[] = {Mix::Short, Mix::Uniform, Mix::Far};
    const std::uint64_t depths[] = {1'024, 10'240, 102'400};
    std::vector<DepthResult> depthResults;
    for (const Mix mix : mixes)
        for (const std::uint64_t depth : depths)
            depthResults.push_back(compareDepth(depth, mix, events));

    std::fprintf(stderr, "%-10s %8s %15s\n", "workload", "capture",
                 "kernel ev/s");
    for (const Result &r : results)
        std::fprintf(stderr, "%-10s %7zuB %15.0f\n", r.name,
                     r.captureBytes, r.kernelEps);
    std::fprintf(stderr, "%-12s %8s %15s %15s %8s\n", "depth-load",
                 "pending", "heap ev/s", "ladder ev/s", "speedup");
    for (const DepthResult &r : depthResults)
        std::fprintf(stderr, "%-12s %8llu %15.0f %15.0f %7.2fx\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.pending),
                     r.heapEps, r.ladderEps, r.speedup());

    san::obs::JsonWriter json(std::cout);
    json.beginObject().kv("schema", "san-micro-kernel-v4")
        .kv("events", events)
        .key("workloads").beginObject();
    for (const Result &r : results)
        json.key(r.name).beginObject()
            .kv("capture_bytes", r.captureBytes)
            .kv("kernel_eps", r.kernelEps)
            .endObject();
    json.endObject().key("depth_workloads").beginObject();
    for (const DepthResult &r : depthResults)
        json.key(r.name).beginObject()
            .kv("pending", r.pending)
            .kv("mix", mixName(r.mix))
            .kv("heap_eps", r.heapEps)
            .kv("ladder_eps", r.ladderEps)
            .kv("speedup", r.speedup())
            .endObject();
    json.endObject().endObject();
    return 0;
}
