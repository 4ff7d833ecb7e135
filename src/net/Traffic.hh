/**
 * @file
 * Synthetic traffic: one deterministic generator for the switch
 * policy lab and the fabric sweeps, plus the flow-churn generator
 * behind the load-balancer workloads.
 *
 * TrafficGen's five patterns:
 *
 *  - Uniform: every message picks a fresh pseudo-random destination
 *    (never self), the benign all-to-all a multipath fabric should
 *    carry near line rate.
 *  - Permutation: a fixed seeded permutation that always crosses
 *    groups. Host i targets the same intra-group rank in group
 *    (g + 1 + seed mod (groups-1)) mod groups, so every byte
 *    traverses the aggregation/core (fat-tree) or a single global
 *    channel (dragonfly).
 *  - GroupLocal: a pseudo-random destination within the sender's own
 *    group (pod), traffic that never needs the upper stages.
 *  - Incast (N-to-1): every host but host 0 streams at host 0. The
 *    hot output link is the bottleneck under any switch policy; what
 *    differs is queueing delay and fairness across senders.
 *  - PermutationHotspot: every host but host 0 sends to its successor
 *    in a ring over hosts 1..n-1 (a permutation a non-blocking switch
 *    carries at full rate), and every third message goes to host 0
 *    until the sender's hot budget is spent. A finite central output
 *    queue lets that hot backlog head-of-line block the ring; VOQs
 *    absorb it per input and keep the ring at line rate.
 *
 * Under the two hotspot patterns host 0 only receives: its own sends
 * would contend with the hot backlog and blur the comparison.
 *
 * There is no PRNG state: a destination is a pure function of
 * (pattern, seed, host, message index), so every report is byte-stable
 * and golden-testable.
 */

#ifndef SAN_NET_TRAFFIC_HH
#define SAN_NET_TRAFFIC_HH

#include <cstdint>
#include <vector>

#include "net/Adapter.hh"
#include "sim/Random.hh"
#include "sim/Simulation.hh"
#include "sim/Types.hh"

namespace san::net {

/** One splitmix64 step: the deterministic mixer behind the random
 * traffic patterns. */
constexpr std::uint64_t
detMix64(std::uint64_t x)
{
    return sim::mix64(x + sim::goldenGamma);
}

/** Traffic pattern configuration. */
struct TrafficParams {
    enum class Pattern {
        Uniform,
        Permutation,
        GroupLocal,
        Incast,
        PermutationHotspot,
    };

    Pattern pattern = Pattern::Uniform;
    /** Destination seed of the Uniform, Permutation and GroupLocal
     * patterns. */
    std::uint64_t seed = 1;
    std::uint32_t messageBytes = 2048;
    /** Messages each sending host posts, one message wire time apart
     * (each sender offers exactly its link rate). */
    unsigned messages = 8;
    /** PermutationHotspot only: how many of a sender's messages go to
     * host 0; the rest follow the ring. */
    unsigned hotMessages = 0;
};

/**
 * End-of-run summary (all values deterministic). Latency, goodput and
 * fairness cover the measured class: every message, except under
 * PermutationHotspot with a ring budget, where it is the ring traffic
 * (every message not aimed at host 0).
 */
struct TrafficReport {
    std::uint64_t posted = 0;    //!< messages posted
    std::uint64_t delivered = 0; //!< messages drained
    std::uint64_t deliveredBytes = 0;
    std::uint64_t measuredBytes = 0; //!< delivered, measured class
    std::uint64_t intraGroup = 0;    //!< delivered within a group
    std::uint64_t interGroup = 0;    //!< delivered across groups
    sim::Tick firstPostAt = 0;
    sim::Tick lastDeliveryAt = 0;
    /** When the last measured message completed. */
    sim::Tick measuredDoneAt = 0;
    /** Payload bytes of every class delivered by measuredDoneAt. */
    std::uint64_t bytesAtMeasuredDone = 0;
    /** bytesAtMeasuredDone over [firstPostAt, measuredDoneAt], GB/s. */
    double aggregateGBps = 0.0;
    /** measuredBytes over the same window, GB/s. */
    double goodputGBps = 0.0;
    double latencyMeanNs = 0.0;
    double latencyMaxNs = 0.0;
    /** Jain index over per-sender goodput (1.0 = perfectly fair). */
    double jainFairness = 1.0;
};

/**
 * Drives one pattern over a set of fabric endpoints. Every post is
 * scheduled up front at t0 + j * spacing, in (sender, j) order; tags
 * count from 1 in post order. Construct after wiring and
 * computeRoutes(), call start() before Simulation::run(), and
 * report() after it returns.
 */
class TrafficGen
{
  public:
    /** @p hostGroup gives each host's group (pod); pass an empty
     * vector to treat the hosts as one group. */
    TrafficGen(sim::Simulation &sim, std::vector<Adapter *> hosts,
               std::vector<unsigned> hostGroup,
               const TrafficParams &params);

    /** How many messages host @p host posts: none from host 0 under
     * the hotspot patterns, params.messages from every other. */
    unsigned messagesFrom(unsigned host) const;

    /** The host that host @p host's message @p j targets. Pure, and
     * never @p host itself for a host that posts. */
    unsigned destination(unsigned host, unsigned j) const;

    /** Schedule every send and spawn the receive drains. One-shot. */
    void start();

    /** Summarize the run (call after Simulation::run()). */
    TrafficReport report() const;

  private:
    struct Post {
        sim::Tick at = 0;
        unsigned src = 0;
        unsigned dst = 0;
    };
    struct Delivery {
        std::uint32_t tag = 0;
        sim::Tick at = 0;
        std::uint64_t bytes = 0;
    };

    bool measured(const Post &post) const;
    void post(unsigned host, unsigned j);
    sim::Task drain(Adapter &host, unsigned expected);

    sim::Simulation &sim_;
    std::vector<Adapter *> hosts_;
    std::vector<unsigned> hostGroup_;
    TrafficParams params_;
    sim::Tick spacing_ = 0;
    unsigned groups_ = 1;
    std::vector<std::vector<unsigned>> groupMembers_;
    std::vector<unsigned> groupRank_; //!< host -> index in its group
    std::vector<Post> posts_;         //!< by tag - 1
    std::vector<Delivery> deliveries_;
    sim::Tick firstPostAt_ = 0;
    bool started_ = false;
};

//
// ---- Deterministic flow-churn traffic (load-balancer workloads) ----
//

/**
 * An L4 connection identity. Generated, never parsed: the simulator
 * carries no real headers, so the tuple exists purely to be hashed
 * into a connection signature (apps::detTupleHash over w0()/w1()).
 */
struct FiveTuple {
    std::uint32_t srcIp = 0;
    std::uint32_t dstIp = 0;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint8_t proto = 0;

    /** Packed src/dst IP word. */
    constexpr std::uint64_t
    w0() const
    {
        return (static_cast<std::uint64_t>(srcIp) << 32) | dstIp;
    }
    /** Packed ports + protocol word. */
    constexpr std::uint64_t
    w1() const
    {
        return (static_cast<std::uint64_t>(srcPort) << 24) |
               (static_cast<std::uint64_t>(dstPort) << 8) | proto;
    }
};

/** One Galois step of the x^64+x^63+x^61+x^60+1 maximal LFSR. */
constexpr std::uint64_t
lfsrStep(std::uint64_t s)
{
    return (s >> 1) ^ (-(s & 1ull) & 0xd800000000000000ull);
}

/**
 * The 5-tuple of flow @p flowIndex under @p seed. Pure function of
 * its arguments — sender pumps, the lb handler and the tests all
 * rederive identical tuples from the flow id alone, so no tuple ever
 * has to travel in a payload. Deliberately NOT DetHash (net cannot
 * depend on apps); a golden-ratio spread plus a few LFSR steps is
 * plenty for distinct, well-mixed endpoint identities.
 */
constexpr FiveTuple
lfsrTuple(std::uint64_t seed, std::uint64_t flowIndex)
{
    std::uint64_t s =
        (seed ^ (flowIndex * 0x9e3779b97f4a7c15ull)) | 1ull;
    s = lfsrStep(lfsrStep(lfsrStep(s)));
    const std::uint64_t a = s;
    s = lfsrStep(lfsrStep(lfsrStep(s ^ (flowIndex << 1) ^ 0xb5ull)));
    FiveTuple t;
    t.srcIp = static_cast<std::uint32_t>(a >> 32);
    t.dstIp = static_cast<std::uint32_t>(a);
    t.srcPort = static_cast<std::uint16_t>(s >> 48);
    t.dstPort = static_cast<std::uint16_t>(s >> 32);
    t.proto = (s & 1) ? 6 : 17; // TCP / UDP
    return t;
}

/** Connection lifecycle op carried in the low tag bits. */
enum class FlowOp : std::uint32_t {
    Syn = 0,  //!< open: insert into the connection table
    Data = 1, //!< established traffic: lookup and forward
    Fin = 2,  //!< close: forward, then retire the entry
};

/**
 * Pack (flow id, op) into a message tag. Flow ids use 30 bits. The
 * id is biased by one so no flow tag lands on the reserved io tags
 * (Host::demux consumes tag io::tagIoReply == 2, which flow 0's FIN
 * would otherwise collide with).
 */
constexpr std::uint32_t
flowTag(std::uint64_t flowId, FlowOp op)
{
    return static_cast<std::uint32_t>((flowId + 1) << 2) |
           static_cast<std::uint32_t>(op);
}

constexpr std::uint64_t
flowTagId(std::uint32_t tag)
{
    return (tag >> 2) - 1;
}

constexpr FlowOp
flowTagOp(std::uint32_t tag)
{
    return static_cast<FlowOp>(tag & 3u);
}

/** Flow-churn generator configuration. */
struct FlowChurnParams {
    /** Base concurrent connections (opened up-front, ids 0..flows). */
    std::uint64_t flows = 4096;
    /** Established data packets per base flow (rounds over the set). */
    unsigned dataRounds = 1;
    std::uint32_t packetBytes = 64;
    /** Tuple seed: lfsrTuple(seed, flowId) is the flow's identity. */
    std::uint64_t seed = 1;
    /** Per-sender mid-run close+reopen pairs (connection churn). */
    unsigned churnOpens = 0;
    /** Stride through a sender's flows when picking churn victims. */
    unsigned closeEvery = 4;
    /** Every k-th data packet is followed by one for an orphan flow
     * that was never opened (table miss -> host punt); 0 = none. */
    unsigned orphanEvery = 0;
    /** Gap between posts per sender (non-zero). */
    sim::Tick spacing = 0;
    /** Destination node: the active switch itself (handler packets
     * terminate there) or the lb host (the software baseline). */
    NodeId dst = invalidNode;
    /** Address packets to an ActiveSwitch handler (in-switch mode)
     * instead of plain sends (host-only baseline). */
    bool active = false;
    std::uint8_t handlerId = 0;
    /** Handler instances: packets of flow f target CPU f % cpus. */
    unsigned handlerCpus = 1;
};

/** Generator-side tally (exact expectations for conservation tests). */
struct FlowChurnCounts {
    std::uint64_t posted = 0;
    std::uint64_t opens = 0;
    std::uint64_t data = 0;
    std::uint64_t closes = 0;
    std::uint64_t orphans = 0; //!< subset of data: never-opened flows
    /** Peak generator-side open connections (opens minus closes). */
    std::uint64_t peakOpen = 0;
};

/**
 * Deterministic connection churn against a load balancer. Each
 * sender owns the flows f with f % senders == slot and runs one pump
 * coroutine through three phases — open every owned flow, stream
 * dataRounds rounds over them (interleaving orphan packets), then
 * churn (close a victim, open a replacement) — pacing one post per
 * `spacing` ticks. Pumps never pre-schedule per-message events, so
 * million-flow runs cost O(senders) live coroutines, not O(posts)
 * heap entries.
 *
 * Flow ids partition the 30-bit tag space: base flows count from 0,
 * churn replacements carry bit 28, orphans bit 29 (both salted with
 * the sender slot), so every id maps back to its origin.
 */
class FlowChurnGen
{
  public:
    FlowChurnGen(sim::Simulation &sim, std::vector<Adapter *> senders,
                 const FlowChurnParams &params);

    /** Spawn one pump per sender. One-shot. */
    void start();

    const FlowChurnCounts &counts() const { return counts_; }
    const FlowChurnParams &params() const { return params_; }

    static constexpr std::uint64_t churnIdBit = 1ull << 28;
    static constexpr std::uint64_t orphanIdBit = 1ull << 29;

    std::uint64_t
    churnFlowId(unsigned slot, unsigned n) const
    {
        return churnIdBit | (static_cast<std::uint64_t>(slot) << 20) | n;
    }
    std::uint64_t
    orphanFlowId(unsigned slot, unsigned n) const
    {
        return orphanIdBit | (static_cast<std::uint64_t>(slot) << 20) | n;
    }

  private:
    sim::Task pump(unsigned slot);
    void post(unsigned slot, std::uint64_t flowId, FlowOp op);

    sim::Simulation &sim_;
    std::vector<Adapter *> senders_;
    FlowChurnParams params_;
    FlowChurnCounts counts_;
    std::uint64_t open_ = 0; //!< current generator-side open flows
    std::vector<std::uint32_t> addrClock_; //!< per-sender ATB cursor
    bool started_ = false;
};

} // namespace san::net

#endif // SAN_NET_TRAFFIC_HH
