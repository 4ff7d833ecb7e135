/**
 * @file
 * Repository benchmark driver (see README.md beside this file).
 *
 * Runs one workload against the simulator libraries for a fixed window
 * of host time and prints one JSON object as the last line of stdout:
 *
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 *
 * Workloads (all single-threaded; inputs derive from --seed only):
 *
 *   hashjoin          the paper's HashJoin (§5) in host-only and
 *                     active-switch modes: host CPU + cache models,
 *                     storage I/O, switch handlers.
 *   fattree_hub_pdes  a k=8 fat-tree of active switches (128 hosts) with
 *                     every sender's filter running on one core switch,
 *                     run on the sequential kernel and then partitioned
 *                     one shard per switch and run on the conservative
 *                     PDES kernel with one worker thread.
 *
 * One iteration simulates the workload to completion in both of its
 * modes: a baseline run, then the active run. Every iteration is checked
 * against an oracle computed here (never by the simulator) and against
 * the first iteration's fingerprint (determinism).
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (component counters read after each run, host-time spans taken
 * around the calls into each mode).
 *
 * Usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "active/ActiveSwitch.hh"
#include "apps/Cluster.hh"
#include "apps/HashJoin.hh"
#include "mem/MemorySystem.hh"
#include "net/Fabric.hh"
#include "net/Topology.hh"
#include "obs/Fingerprint.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** splitmix64: derives every workload input from the --seed value. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed + index * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Order-sensitive fold of several run fingerprints into one. */
std::uint64_t
foldFingerprint(std::uint64_t acc, std::uint64_t fp)
{
    return mix(acc ^ fp, 1);
}

/** Per-layer component counters of one iteration (--trace 1). */
struct Layers {
    std::uint64_t memAccesses = 0;  //!< L1D lookups, all CPUs
    std::uint64_t memL1dHits = 0;
    std::uint64_t memL2Misses = 0;
    std::uint64_t memTlbMisses = 0;
    // Simulated CPU time, and its capacity: run length x CPU count.
    sim::Tick hostBusy = 0;
    sim::Tick hostStall = 0;
    sim::Tick hostCapacity = 0;
    sim::Tick switchBusy = 0;
    sim::Tick switchCapacity = 0;
    std::uint64_t activeChunks = 0;
    std::uint64_t dispatchStalls = 0;
    std::uint64_t linkPackets = 0;
    sim::Tick simTime = 0;          //!< simulated time, all runs
};

void
addMemory(Layers &l, mem::MemorySystem &m)
{
    l.memAccesses += m.l1d().hits() + m.l1d().misses();
    l.memL1dHits += m.l1d().hits();
    if (const mem::Cache *l2 = m.l2())
        l.memL2Misses += l2->misses();
    l.memTlbMisses += m.dtlb().misses();
}

void
addSwitch(Layers &l, active::ActiveSwitch &sw, sim::Tick ran)
{
    for (unsigned i = 0; i < sw.cpuCount(); ++i) {
        addMemory(l, sw.cpu(i).memory());
        l.switchBusy += sw.cpu(i).busyTicks();
        l.switchCapacity += ran;
    }
    l.activeChunks += sw.chunksStaged();
    l.dispatchStalls += sw.dispatchStalls();
}

void
addLinks(Layers &l, const net::Fabric &fabric)
{
    for (const auto &link : fabric.links())
        l.linkPackets += link->packetsSent();
}

/** Reads every cluster's components at the end of its run. */
void
observeClusters(Layers *layers)
{
    if (layers == nullptr) {
        apps::clusterObserver() = nullptr;
        return;
    }
    apps::clusterObserver() = [layers](apps::Cluster &c, apps::Mode) {
        const sim::Tick ran = c.sim().now();
        for (unsigned i = 0; i < c.hostCount(); ++i) {
            addMemory(*layers, c.host(i).cpu().memory());
            layers->hostBusy += c.host(i).cpu().busyTicks();
            layers->hostStall += c.host(i).cpu().stallTicks();
            layers->hostCapacity += ran;
        }
        addSwitch(*layers, c.sw(), ran);
        addLinks(*layers, c.fabric());
    };
}

/** Outcome of one iteration: simulate the workload to completion. */
struct Iteration {
    std::uint64_t events = 0;
    std::uint64_t fingerprint = 0;
    std::string error;      //!< empty when every output checked out
    double baselineMs = 0;  //!< host time of the baseline run
    double activeMs = 0;    //!< host time of the active run
};

/** A workload: build-only set-up, and one full checked iteration. */
struct Workload {
    std::function<void()> setUp;
    std::function<Iteration(Layers *)> run;
};

// ---------------------------------------------------------------- hashjoin

Workload
hashJoin(std::uint64_t seed)
{
    apps::HashJoinParams p;
    p.rBytes = 2ull << 20;
    p.sBytes = 6ull << 20;
    p.seed = mix(seed, 0) | 1;

    // Oracle: the records of S whose join attribute survives the
    // bit-vector filter (reduction factor 0.24), counted directly.
    const std::uint64_t matchSeed = p.seed ^ 0xabcdef;
    std::uint64_t survivors = 0;
    for (std::uint64_t i = 0; i < p.sBytes / p.recordBytes; ++i)
        survivors += static_cast<double>(mix(matchSeed, i) >> 11) *
                         0x1.0p-53 <
                     p.reductionFactor;
    const std::string expected = std::to_string(survivors);

    Workload w;
    w.setUp = [] {
        apps::ClusterParams cp;
        cp.hostMem = mem::scaledHostMemoryParams();
        apps::Cluster cluster(cp);
    };
    w.run = [p, expected](Layers *layers) {
        Iteration it;
        observeClusters(layers);
        for (const apps::Mode mode : {apps::Mode::Normal, apps::Mode::Active}) {
            const auto t0 = Clock::now();
            const apps::RunStats s = apps::runHashJoin(mode, p);
            (apps::isActive(mode) ? it.activeMs : it.baselineMs) =
                msSince(t0);
            it.events += s.eventsExecuted;
            it.fingerprint = foldFingerprint(it.fingerprint, s.fingerprint);
            if (layers)
                layers->simTime += s.execTime;
            if (s.checksum != expected)
                it.error = std::string(apps::modeName(mode)) +
                           " survivors " + s.checksum + ", expected " +
                           expected;
        }
        observeClusters(nullptr);
        return it;
    };
    return w;
}

// -------------------------------------------------------- fattree_hub_pdes

constexpr std::uint8_t kFilterHandler = 7;
constexpr std::uint32_t kFilterDivisor = 16;

/** Switch filter: scan each chunk, forward 1/16 of each message. */
sim::Task
filterBody(active::HandlerContext &ctx, net::NodeId collector)
{
    for (;;) {
        const active::StreamChunk chunk = co_await ctx.nextChunk();
        co_await ctx.awaitValid(chunk, 0, chunk.bytes);
        co_await ctx.compute(32 + chunk.bytes / 4);
        const bool last = chunk.lastOfMessage;
        const std::uint64_t bytes = chunk.messageBytes;
        const std::uint32_t tag = chunk.tag;
        ctx.deallocateOne(chunk.address);
        if (last)
            co_await ctx.send(collector,
                              std::max<std::uint64_t>(1, bytes /
                                                             kFilterDivisor),
                              std::nullopt, nullptr, tag);
    }
}

sim::Task
senderPump(net::Adapter &host, net::NodeId hub, net::ActiveHeader hdr,
           unsigned messages, std::uint32_t bytes, sim::Tick start,
           sim::Tick spacing, unsigned slot)
{
    co_await sim::Delay{start};
    for (unsigned j = 0; j < messages; ++j) {
        // A 16 MB ATB window per sender, 128 KB per message: chunk
        // addresses of senders sharing the hub never collide.
        hdr.address = (slot + 1) * 0x01000000u + (j % 128u) * 0x20000u;
        host.sendMessage(hub, bytes, hdr, nullptr, slot * 4096u + j + 1);
        co_await sim::Delay{spacing};
    }
}

sim::Task
drainCollector(net::Adapter &host, std::uint64_t expected,
               std::uint64_t *msgs, std::uint64_t *bytes,
               sim::Tick *last_at)
{
    for (std::uint64_t i = 0; i < expected; ++i) {
        const net::Message m = co_await host.recvQueue().pop();
        ++*msgs;
        *bytes += m.bytes;
        *last_at = std::max(*last_at, m.completedAt);
    }
}

struct HubShape {
    unsigned k = 8;
    unsigned messages = 2;           //!< per sender
    std::uint32_t messageBytes = 4096;
    unsigned collector = 0;          //!< host index
    unsigned hub = 0;                //!< core switch index
    std::vector<sim::Tick> start;    //!< per-host first-send offset
};

HubShape
hubShape(std::uint64_t seed)
{
    HubShape s;
    const unsigned hosts = s.k * s.k * s.k / 4;
    s.collector = static_cast<unsigned>(mix(seed, 2) % hosts);
    s.hub = static_cast<unsigned>(mix(seed, 3) % (s.k * s.k / 4));
    for (unsigned h = 0; h < hosts; ++h)
        s.start.push_back(sim::ns(mix(seed, 100 + h) % 4096));
    return s;
}

/** The fat-tree under test, built but not yet run. */
struct HubFabric {
    sim::Simulation sim;
    net::Fabric fabric{sim};
    net::Topology topo;
    net::ShardPlan plan;
    obs::ShardedFingerprint shardFp;
    obs::RunFingerprint fp;

    HubFabric(const HubShape &s, bool sharded)
    {
        active::ActiveConfig acfg;
        acfg.cpus = 4;
        topo = net::buildFatTree<active::ActiveSwitch>(
            fabric, net::FatTreeParams{s.k}, acfg);
        const net::NodeId collector = topo.hosts[s.collector]->id();
        static_cast<active::ActiveSwitch *>(topo.core[s.hub])
            ->registerHandler(kFilterHandler, "filter",
                              [collector](active::HandlerContext &ctx) {
                                  return filterBody(ctx, collector);
                              });
        if (sharded) {
            plan = fabric.planShards(topo.switchCount());
            fabric.applyShardPlan(plan);
            shardFp.attach(sim);
        } else {
            sim.events().setObserver(&fp);
        }
    }

    std::size_t
    shardOf(unsigned host)
    {
        return sim.sharded()
                   ? plan.adapterShard[fabric.adapterIndex(*topo.hosts[host])]
                   : 0;
    }
};

/** Simulated outputs of one hub run. */
struct HubOutput {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    sim::Tick makespan = 0;
    std::uint64_t events = 0;
    std::uint64_t fingerprint = 0;
};

/** Builds the fat-tree, runs it to completion, reads its outputs. */
HubOutput
runHub(const HubShape &s, bool sharded, Layers *layers)
{
    HubFabric f(s, sharded);
    auto &hub = *static_cast<active::ActiveSwitch *>(f.topo.core[s.hub]);
    const unsigned hosts = static_cast<unsigned>(f.topo.hosts.size());
    const std::uint64_t pkts =
        (s.messageBytes + f.fabric.mtu() - 1) / f.fabric.mtu();
    const sim::Tick spacing = sim::ns(s.messageBytes + pkts * net::headerBytes);

    unsigned cpu = 0;
    for (unsigned h = 0; h < hosts; ++h) {
        if (h == s.collector)
            continue;
        net::ActiveHeader hdr;
        hdr.handlerId = kFilterHandler;
        hdr.cpuId = static_cast<std::uint8_t>(cpu++ % hub.cpuCount());
        sim::ShardGuard guard(f.sim, f.shardOf(h));
        f.sim.spawn(senderPump(*f.topo.hosts[h], hub.id(), hdr, s.messages,
                               s.messageBytes, s.start[h], spacing, h));
    }
    HubOutput out;
    {
        sim::ShardGuard guard(f.sim, f.shardOf(s.collector));
        f.sim.spawn(drainCollector(
            *f.topo.hosts[s.collector],
            static_cast<std::uint64_t>(hosts - 1) * s.messages, &out.msgs,
            &out.bytes, &out.makespan));
    }

    if (sharded) {
        f.sim.runSharded(1);
        f.shardFp.combineInto(f.fp);
    } else {
        f.sim.run();
    }
    out.events = f.sim.executedEvents();
    out.fingerprint = f.fp.value();
    if (layers) {
        for (const auto &sw : f.fabric.switches())
            addSwitch(*layers, static_cast<active::ActiveSwitch &>(*sw),
                      out.makespan);
        addLinks(*layers, f.fabric);
        layers->simTime += out.makespan;
    }
    return out;
}

Workload
fatTreeHubPdes(std::uint64_t seed)
{
    const HubShape s = hubShape(seed);
    const std::uint64_t msgs =
        static_cast<std::uint64_t>(s.k * s.k * s.k / 4 - 1) * s.messages;
    const std::uint64_t bytes =
        msgs * std::max<std::uint64_t>(1, s.messageBytes / kFilterDivisor);

    Workload w;
    w.setUp = [s] { HubFabric f(s, true); };
    w.run = [s, msgs, bytes](Layers *layers) {
        Iteration it;
        for (const bool sharded : {false, true}) {
            const auto t0 = Clock::now();
            const HubOutput got = runHub(s, sharded, layers);
            (sharded ? it.activeMs : it.baselineMs) = msSince(t0);
            it.events += got.events;
            it.fingerprint = foldFingerprint(it.fingerprint, got.fingerprint);
            // The two kernels' makespans are not compared: on some
            // seeds they differ by a few tens of ns.
            if (it.error.empty() && (got.msgs != msgs || got.bytes != bytes))
                it.error = std::string(sharded ? "sharded" : "sequential") +
                           ": collector received " +
                           std::to_string(got.msgs) + " msgs / " +
                           std::to_string(got.bytes) + " bytes, expected " +
                           std::to_string(msgs) + " / " +
                           std::to_string(bytes);
        }
        return it;
    };
    return w;
}

// ------------------------------------------------------------- measurement

/**
 * The 10th percentile (nearest rank below) of non-empty host-time
 * samples: every host time is reported this way. On a shared virtual
 * machine the samples are bimodal: a fast mode when the physical core
 * is quiet, a slow one when a neighbour loads it. The median flips
 * between the modes from run to run; the fast mode's percentile is what
 * the simulator itself costs, and it repeats.
 */
double
fastTime(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 10];
}

/**
 * Moves the calling thread to the next CPU it may run on, round-robin.
 * Whether a neighbour loads the physical core differs from CPU to CPU,
 * so a run that visits every CPU finds the quiet ones, wherever the
 * scheduler first placed it.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &allowed))
                    cpus_.push_back(c);
    }

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

struct Metric {
    const char *name;
    double value;
    const char *unit;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "hashjoin|fattree_hub_pdes --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("every flag takes a value");
        const char *flag = argv[i];
        const char *v = argv[++i];
        char *end = nullptr;
        if (std::strcmp(flag, "--workload") == 0) {
            a.workload = v;
        } else if (std::strcmp(flag, "--seed") == 0) {
            a.seed = std::strtoull(v, &end, 10);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            a.seconds = std::strtod(v, &end);
            if (!(a.seconds > 0))
                usage("--seconds must be positive");
        } else if (std::strcmp(flag, "--trace") == 0) {
            a.trace = std::strcmp(v, "1") == 0;
            if (!a.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else {
            usage("unknown flag");
        }
        if (end != nullptr && *end != '\0')
            usage("malformed number");
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::map<std::string, Workload (*)(std::uint64_t)> workloads = {
        {"hashjoin", hashJoin},
        {"fattree_hub_pdes", fatTreeHubPdes},
    };
    const auto found = workloads.find(args.workload);
    if (found == workloads.end())
        usage("unknown workload");

    // Set-up: derive the inputs and oracle, then build the simulated
    // system without running it. It is repeated before every iteration,
    // so its samples span the same window as the iterations'.
    std::vector<double> setUpS;
    Workload w;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        w = found->second(args.seed);
        w.setUp();
        setUpS.push_back(msSince(t0) / 1e3);
    };

    // One warm-up iteration fixes the reference fingerprint, then the
    // measured window: whole iterations until --seconds have passed.
    std::uint64_t attempted = 0, failed = 0;
    std::string firstError;
    const auto check = [&](const Iteration &it, std::uint64_t want_fp) {
        ++attempted;
        std::string err = it.error;
        if (err.empty() && it.fingerprint != want_fp)
            err = "fingerprint differs from the first iteration";
        if (!err.empty()) {
            ++failed;
            if (firstError.empty())
                firstError = err;
        }
    };
    Layers layers;
    setUp();
    const Iteration warm = w.run(nullptr);
    check(warm, warm.fingerprint);

    std::vector<double> iterMs, baselineMs, activeMs;
    CpuRotation rotation;
    const auto window = Clock::now();
    do {
        rotation.next();
        setUp();
        layers = Layers{};
        const auto t0 = Clock::now();
        const Iteration it = w.run(args.trace ? &layers : nullptr);
        const double ms = msSince(t0);
        check(it, warm.fingerprint);
        iterMs.push_back(ms);
        baselineMs.push_back(it.baselineMs);
        activeMs.push_back(it.activeMs);
    } while (msSince(window) < args.seconds * 1e3);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    // Every iteration simulates the same inputs, so executes as many
    // events as the warm-up did.
    const double iterFastMs = fastTime(iterMs);
    const double events = static_cast<double>(warm.events);
    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"iter_ms", iterFastMs, "ms"},
            {"events_per_s", events / (iterFastMs / 1e3), "1/s"},
            {"setup_s", fastTime(setUpS), "s"},
            {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024, "MB"},
        };
    } else {
        // The counters are the last iteration's; all are equal.
        const auto ratio = [](double a, double b) { return b ? a / b : 0.0; };
        const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
        metrics = {
            {"kernel_events", events, "count"},
            {"kernel_ns_per_event", iterFastMs * 1e6 / events, "ns"},
            {"span_baseline_ms", fastTime(baselineMs), "ms"},
            {"span_active_ms", fastTime(activeMs), "ms"},
            {"sim_time_us", static_cast<double>(layers.simTime) / 1e6, "us"},
            {"mem_accesses", count(layers.memAccesses), "count"},
            {"mem_l1d_hit_rate",
             ratio(count(layers.memL1dHits), count(layers.memAccesses)),
             "ratio"},
            {"mem_l2_misses", count(layers.memL2Misses), "count"},
            {"mem_tlb_misses", count(layers.memTlbMisses), "count"},
            {"cpu_host_busy_frac",
             ratio(count(layers.hostBusy), count(layers.hostCapacity)),
             "ratio"},
            {"cpu_host_stall_frac",
             ratio(count(layers.hostStall), count(layers.hostCapacity)),
             "ratio"},
            {"active_cpu_busy_frac",
             ratio(count(layers.switchBusy), count(layers.switchCapacity)),
             "ratio"},
            {"active_chunks", count(layers.activeChunks), "count"},
            {"active_dispatch_stalls", count(layers.dispatchStalls), "count"},
            {"net_link_packets", count(layers.linkPackets), "count"},
        };
    }

    if (!firstError.empty())
        std::fprintf(stderr, "perfbench_driver: %llu of %llu iterations "
                             "failed; first: %s\n",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted),
                     firstError.c_str());
    std::fprintf(stderr, "perfbench_driver: %s seed %llu: %zu timed "
                         "iterations, %llu events each\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), iterMs.size(),
                 static_cast<unsigned long long>(warm.events));

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, metrics[i].value,
                    metrics[i].unit);
    std::printf("}}\n");
    return 0;
}
