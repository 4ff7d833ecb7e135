/**
 * @file
 * In-band telemetry (INT) and per-packet latency lineage.
 *
 * A sampled packet carries a shared TelemetryRecord that every layer
 * stamps in place, P4-INT style: the source adapter stamps birth,
 * each link stamps transmit-queue wait, each switch hop stamps
 * ingress / policy admission / egress, handlers charge their CPU
 * ticks, and the reliable channel counts retransmissions. Nothing
 * here schedules events or changes timing: a stamp is a plain store
 * into the record at an already-executing event, so enabling
 * telemetry leaves the event stream — and therefore the run
 * fingerprint — byte-identical.
 *
 * A run receives its collector through sim::RunContext::telemetry.
 * When telemetry is off that pointer is null and every hook is one
 * predictable branch (the same contract as the fault plan and the
 * tracer). Packets then carry a null shared_ptr and the per-packet
 * cost is zero.
 *
 * End-of-run folding turns the records into log-bucketed (HDR-style)
 * latency histograms per (flow class, hop, stage) with
 * exact-from-bucket percentiles, a top-K flow table from a
 * space-saving sketch sized to the 1 KB switch-CPU D$ budget (so it
 * could later run *as* an active handler), and the K worst-latency
 * flows. All derived numbers are integer ticks: byte-stable across
 * runs and compilers.
 */

#ifndef SAN_OBS_TELEMETRY_HH
#define SAN_OBS_TELEMETRY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/Types.hh"

namespace san::obs {

/** Traffic class a record is folded under. */
enum class FlowClass : std::uint8_t {
    Data = 0,   //!< plain host<->host / storage traffic
    Active = 1, //!< packets addressed to a switch handler
    Control = 2 //!< reliable-channel ACK/NACK packets
};
inline constexpr std::size_t kFlowClassCount = 3;

const char *flowClassName(FlowClass fc);

/** Life stages a packet's wait time is attributed to. */
enum class Stage : std::uint8_t {
    TxQueue = 0,     //!< link send queue + credit stalls, all hops
    PolicyWait = 1,  //!< switch ingress -> policy admission (staging)
    SwitchQueue = 2, //!< policy admission -> egress (buffer + grant)
    HandlerCpu = 3,  //!< switch-CPU ticks charged while processing
    EndToEnd = 4,    //!< birth -> delivery
    LbLookup = 5     //!< connection-table lookup inside the lb handler
};
inline constexpr std::size_t kStageCount = 6;

const char *stageName(Stage s);

/** Per-hop breakdown dimensions (subsets of a hop's residency). */
enum class HopStage : std::uint8_t {
    Residency = 0,  //!< ingress -> egress
    PolicyWait = 1, //!< ingress -> admission
    QueueWait = 2   //!< admission -> egress
};
inline constexpr std::size_t kHopStageCount = 3;

const char *hopStageName(HopStage s);

/** INT hop entry: one switch traversal's stamps. */
struct TelemetryHop {
    std::uint32_t node = 0; //!< switch node id
    sim::Tick ingress = 0;  //!< routing done, handed to the policy
    sim::Tick admitted = 0; //!< accepted into policy buffers
    sim::Tick egress = 0;   //!< forwarded to the output link
};

/** INT records keep a fixed-size hop stack, like real INT headers. */
inline constexpr std::size_t kMaxTelemetryHops = 8;

/**
 * The in-band record one sampled packet carries (shared by every
 * copy of the packet, so retransmissions accumulate into the same
 * lineage). All note*() methods are monotonic-safe: stamps taken
 * from overlapping duplicate copies that would read backwards are
 * dropped and counted instead of recorded.
 */
struct TelemetryRecord {
    std::uint64_t uid = 0;
    FlowClass flowClass = FlowClass::Data;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;

    sim::Tick bornAt = 0;
    sim::Tick deliveredAt = 0;
    bool delivered = false;
    std::uint32_t retransmits = 0;
    std::uint8_t hopCount = 0;     //!< closed hops recorded below
    std::uint8_t stampsDropped = 0; //!< hops lost to overflow/reorder
    bool flowTraced = false;       //!< trace flow arrow already opened

    /** Cumulative wait per Stage (EndToEnd derived at fold time). */
    std::array<sim::Tick, kStageCount> stage{};
    std::array<TelemetryHop, kMaxTelemetryHops> hops{};

    /** @{ In-flight scratch for the copy currently traversing. */
    sim::Tick txEnqueuedAt = 0;
    sim::Tick hopIngressAt = 0;
    sim::Tick hopAdmittedAt = 0;
    std::uint32_t hopNode = 0;
    bool inTxQueue = false;
    bool hopOpen = false;
    bool hopAdmitStamped = false;
    /** @} */

    void
    noteTxEnqueue(sim::Tick now)
    {
        if (inTxQueue)
            return;
        inTxQueue = true;
        txEnqueuedAt = now;
    }

    void
    noteTxStart(sim::Tick now)
    {
        if (!inTxQueue)
            return;
        inTxQueue = false;
        if (now > txEnqueuedAt)
            stage[static_cast<std::size_t>(Stage::TxQueue)] +=
                now - txEnqueuedAt;
    }

    void
    noteSwitchIngress(std::uint32_t node, sim::Tick now)
    {
        hopOpen = true;
        hopAdmitStamped = false;
        hopNode = node;
        hopIngressAt = now;
    }

    void
    noteAdmitted(sim::Tick now)
    {
        if (!hopOpen)
            return;
        hopAdmitStamped = true;
        hopAdmittedAt = now;
    }

    void
    noteEgress(sim::Tick now)
    {
        if (!hopOpen)
            return;
        hopOpen = false;
        const sim::Tick admit =
            hopAdmitStamped ? hopAdmittedAt : hopIngressAt;
        if (admit < hopIngressAt || now < admit) {
            // Overlapping duplicate copies interleaved their stamps;
            // drop the inconsistent hop rather than record a
            // non-monotonic lineage.
            ++stampsDropped;
            return;
        }
        stage[static_cast<std::size_t>(Stage::PolicyWait)] +=
            admit - hopIngressAt;
        stage[static_cast<std::size_t>(Stage::SwitchQueue)] +=
            now - admit;
        if (hopCount < kMaxTelemetryHops)
            hops[hopCount++] =
                TelemetryHop{hopNode, hopIngressAt, admit, now};
        else
            ++stampsDropped;
    }

    void
    noteHandlerTicks(sim::Tick ticks)
    {
        stage[static_cast<std::size_t>(Stage::HandlerCpu)] += ticks;
    }

    /** Connection-lookup time inside the lb handler (a subset of
     * HandlerCpu, broken out so --latency-report can show what the
     * two-stage table costs per packet). */
    void
    noteLbLookup(sim::Tick ticks)
    {
        stage[static_cast<std::size_t>(Stage::LbLookup)] += ticks;
    }

    void
    noteDelivered(sim::Tick now)
    {
        if (delivered)
            return;
        delivered = true;
        deliveredAt = now;
        // A hop still open at delivery is the terminal hop: the
        // packet ended inside a switch (handler staging, control
        // consume) and will never egress, so its residency closes
        // here. End-host deliveries have no open hop — the last
        // switch's egress already closed it.
        if (hopOpen)
            noteEgress(now);
    }

    void noteRetransmit() { ++retransmits; }
};

/**
 * HDR-style log2-bucketed latency histogram over ticks. Bucket b
 * holds values whose bit width is b, i.e. [2^(b-1), 2^b - 1], with
 * bucket 0 reserved for exact zero; percentiles return the upper
 * edge of the bucket containing the rank, clamped to the observed
 * max — pure integer math, byte-stable everywhere.
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kBuckets = 65; // bit_width(2^64-1)+1

    void
    add(sim::Tick v)
    {
        ++counts_[bucketOf(v)];
        ++samples_;
        sum_ += v;
        min_ = samples_ == 1 ? v : std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t samples() const { return samples_; }
    sim::Tick min() const { return samples_ ? min_ : 0; }
    sim::Tick max() const { return max_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t bucket(std::size_t i) const { return counts_[i]; }

    /**
     * Exact-from-bucket percentile: @p permyriad is the rank in
     * 1/10000ths (p50 = 5000, p99.9 = 9990). Returns the upper edge
     * of the bucket the ceil-rank falls in, clamped to max().
     */
    sim::Tick
    percentile(unsigned permyriad) const
    {
        if (samples_ == 0)
            return 0;
        std::uint64_t rank = (samples_ * permyriad + 9999) / 10000;
        if (rank == 0)
            rank = 1;
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            cum += counts_[b];
            if (cum >= rank)
                return std::min(upperEdge(b), max_);
        }
        return max_;
    }

    static std::size_t
    bucketOf(sim::Tick v)
    {
        return static_cast<std::size_t>(std::bit_width(v));
    }

    static sim::Tick
    upperEdge(std::size_t b)
    {
        if (b == 0)
            return 0;
        if (b >= 64)
            return sim::maxTick;
        return (sim::Tick(1) << b) - 1;
    }

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    sim::Tick min_ = 0;
    sim::Tick max_ = 0;
};

/**
 * Space-saving heavy-hitter sketch over (src, dst) flows, weighted
 * by wire bytes. Sized to fit the paper's 1 KB switch-CPU data
 * cache, so the same structure could later run as an active handler
 * on the switch itself. Deterministic: ties break on scan order.
 */
class FlowSketch
{
  public:
    static constexpr std::size_t kEntries = 42;

    struct Entry {
        std::uint64_t key = 0;   //!< src << 32 | dst
        std::uint64_t bytes = 0; //!< estimated volume
        std::uint64_t error = 0; //!< max overestimate at takeover
    };

    static std::uint64_t
    keyOf(std::uint32_t src, std::uint32_t dst)
    {
        return (static_cast<std::uint64_t>(src) << 32) | dst;
    }

    void
    add(std::uint32_t src, std::uint32_t dst, std::uint64_t bytes)
    {
        addEntry({keyOf(src, dst), bytes, 0});
    }

    std::size_t used() const { return used_; }

    /**
     * Fold @p other into this sketch: the standard space-saving
     * merge (counts and overestimate bounds add; a takeover inherits
     * the victim's count into the error bound). Entry order of
     * @p other is its insertion order, so merging the same sketches
     * in the same order is deterministic — the per-shard telemetry
     * slices rely on that.
     */
    void
    merge(const FlowSketch &other)
    {
        for (std::size_t i = 0; i < other.used_; ++i)
            addEntry(other.slots_[i]);
    }

    /** Top @p k entries by (bytes desc, key asc). */
    std::vector<Entry>
    top(std::size_t k) const
    {
        std::vector<Entry> out(slots_.begin(), slots_.begin() + used_);
        std::sort(out.begin(), out.end(),
                  [](const Entry &a, const Entry &b) {
                      if (a.bytes != b.bytes)
                          return a.bytes > b.bytes;
                      return a.key < b.key;
                  });
        if (out.size() > k)
            out.resize(k);
        return out;
    }

  private:
    void
    addEntry(const Entry &e)
    {
        std::size_t minIdx = 0;
        for (std::size_t i = 0; i < used_; ++i) {
            if (slots_[i].key == e.key) {
                slots_[i].bytes += e.bytes;
                slots_[i].error += e.error;
                return;
            }
            if (slots_[i].bytes < slots_[minIdx].bytes)
                minIdx = i;
        }
        if (used_ < kEntries) {
            slots_[used_++] = e;
            return;
        }
        // Space-saving takeover: the new flow inherits the smallest
        // counter as its (bounded) overestimate.
        Entry &victim = slots_[minIdx];
        victim.error = victim.bytes + e.error;
        victim.bytes += e.bytes;
        victim.key = e.key;
    }

    std::array<Entry, kEntries> slots_{};
    std::size_t used_ = 0;
};

static_assert(sizeof(std::array<FlowSketch::Entry, FlowSketch::kEntries>)
                  <= 1024,
              "FlowSketch table must fit the 1 KB switch-CPU D$");

/** One flow's volume estimate, from the sketch. */
struct TelemetryFlowVolume {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t bytes = 0;
    std::uint64_t error = 0;
};

/** One flow's sampled end-to-end latency summary. */
struct TelemetryFlowLatency {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t samples = 0;
    sim::Tick worst = 0; //!< worst sampled end-to-end ticks
    sim::Tick mean = 0;  //!< sum / samples, truncated
};

/** Folded per-run telemetry, embedded into apps::RunStats. */
struct TelemetryStats {
    bool active = false;
    std::uint64_t sampleRate = 0;
    std::uint64_t recordsSampled = 0;
    std::uint64_t recordsDelivered = 0;
    std::uint64_t recordsInFlight = 0;
    std::uint64_t retransmitsSampled = 0;
    std::uint64_t stampsDropped = 0;
    std::uint64_t packetsObserved = 0;
    std::uint64_t bytesObserved = 0;

    /** stage[flow class][Stage] */
    std::array<std::array<LatencyHistogram, kStageCount>,
               kFlowClassCount>
        stage{};
    /** hop[flow class][hop index][HopStage] */
    std::array<std::array<std::array<LatencyHistogram, kHopStageCount>,
                          kMaxTelemetryHops>,
               kFlowClassCount>
        hop{};

    std::vector<TelemetryFlowVolume> topByVolume;
    std::vector<TelemetryFlowLatency> worstLatency;

    const LatencyHistogram &
    stageHist(FlowClass fc, Stage s) const
    {
        return stage[static_cast<std::size_t>(fc)]
                    [static_cast<std::size_t>(s)];
    }

    /** Call @p fn(name, histogram) on every populated stage
     * histogram, named "class.stage", in (class, stage) order. */
    template <typename Fn>
    void
    forEachStage(Fn &&fn) const
    {
        for (std::size_t fc = 0; fc < kFlowClassCount; ++fc)
            for (std::size_t s = 0; s < kStageCount; ++s)
                if (stage[fc][s].samples() != 0)
                    fn(std::string(flowClassName(
                           static_cast<FlowClass>(fc))) +
                           "." + stageName(static_cast<Stage>(s)),
                       stage[fc][s]);
    }

    /** Call @p fn(name, histogram) on every populated hop histogram,
     * named "class.hopN.stage", in (class, hop, stage) order. */
    template <typename Fn>
    void
    forEachHop(Fn &&fn) const
    {
        for (std::size_t fc = 0; fc < kFlowClassCount; ++fc)
            for (std::size_t h = 0; h < kMaxTelemetryHops; ++h)
                for (std::size_t s = 0; s < kHopStageCount; ++s)
                    if (hop[fc][h][s].samples() != 0)
                        fn(std::string(flowClassName(
                               static_cast<FlowClass>(fc))) +
                               ".hop" + std::to_string(h) + "." +
                               hopStageName(static_cast<HopStage>(s)),
                           hop[fc][h][s]);
    }
};

/** Flows reported in the top-K volume / worst-latency tables. */
inline constexpr std::size_t kTopFlows = 8;

/**
 * The telemetry engine: deterministic 1-in-N sampler, record
 * registry, heavy-hitter sketch and end-of-run fold. One instance
 * serves one run, so every run starts from the same sampler phase:
 * build a fresh collector for the next run rather than reuse this
 * one.
 */
class Telemetry
{
  public:
    /** @p sampleRate 0 arms the hooks but samples no packet (used
     * to measure the passive overhead); N >= 1 samples 1-in-N. */
    explicit Telemetry(std::uint64_t sampleRate)
        : rate_(sampleRate)
    {
        enableShards(1);
    }

    /**
     * Arm one slice per shard: sampling decisions, records, packet
     * counters, and the flow sketch all live in the slice of the
     * shard that sees the packet, written only by that shard's
     * worker — no hot-path locks. Calls outside any shard context
     * use slice 0. finishRun() folds the slices deterministically
     * (records interleave by uid = k * shards + shard + 1; sketches
     * and counters merge in shard order), so the folded output is
     * stable across thread counts, and one slice folds to itself.
     * The constructor arms one slice; net::Fabric::applyShardPlan
     * calls this once the run's partition is known.
     */
    void enableShards(std::size_t shards);

    /**
     * Sampling decision for a packet being born. Returns the new
     * record (already registered and birth-stamped) or null when
     * this packet is not sampled.
     */
    std::shared_ptr<TelemetryRecord>
    sample(std::uint32_t src, std::uint32_t dst, FlowClass fc,
           sim::Tick now);

    /** Heavy-hitter accounting: every packet seen at a switch.
     * Rate 0 returns immediately — that state exists to measure the
     * passive hook cost (branch + call), not the sketch's work. */
    void
    countPacket(std::uint32_t src, std::uint32_t dst,
                std::uint64_t wireBytes)
    {
        if (rate_ == 0)
            return;
        Slice &sl = *slices_[sliceIndex()];
        ++sl.packetsObserved;
        sl.bytesObserved += wireBytes;
        sl.sketch.add(src, dst, wireBytes);
    }

    /** Fold all records into histograms / flow tables. */
    TelemetryStats finishRun();
    std::uint64_t recordsLive() const;

    /** The run's sampled records in uid order (filled by
     * finishRun); tests use this to assert stamp monotonicity. */
    const std::vector<std::shared_ptr<TelemetryRecord>> &
    records() const
    {
        return records_;
    }

  private:
    /** One shard's private telemetry state. */
    struct Slice {
        std::uint64_t seen = 0;
        std::uint64_t sampled = 0; //!< uids issued by this slice
        std::uint64_t packetsObserved = 0;
        std::uint64_t bytesObserved = 0;
        std::vector<std::shared_ptr<TelemetryRecord>> records;
        FlowSketch sketch;
    };

    /** The calling shard's slice index; 0 outside a shard context. */
    std::size_t sliceIndex() const;

    std::uint64_t rate_;
    std::uint64_t packetsObserved_ = 0;
    std::uint64_t bytesObserved_ = 0;
    std::vector<std::shared_ptr<TelemetryRecord>> records_;
    std::vector<std::unique_ptr<Slice>> slices_;
    FlowSketch sketch_;
};

} // namespace san::obs

#endif // SAN_OBS_TELEMETRY_HH
