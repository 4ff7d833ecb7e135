/**
 * @file
 * The active switch: a conventional SAN switch augmented with the
 * paper's "active" hardware — a Dispatch unit, a jump table of
 * handler entry points, per-CPU ATBs, the on-chip data buffer pool
 * with its administrator, a Send unit, and one to four embedded
 * switch processors.
 *
 * Programming model (paper §2): any message whose destination is the
 * switch itself is an active message. Its 6-bit handler ID selects a
 * handler; the Dispatch unit allocates a data buffer for each
 * arriving packet, maps it into the target CPU's ATB at the address
 * carried in the active header, and either starts a new handler
 * instance on a switch CPU or feeds the stream of an already-running
 * one. Handlers access their input through memory-mapped reads
 * (stalling on not-yet-valid lines), explicitly deallocate consumed
 * buffers, and emit results through the Send unit.
 */

#ifndef SAN_ACTIVE_ACTIVE_SWITCH_HH
#define SAN_ACTIVE_ACTIVE_SWITCH_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "active/Atb.hh"
#include "active/DataBuffer.hh"
#include "cpu/Cpu.hh"
#include "fault/FaultPlan.hh"
#include "fault/Reliable.hh"
#include "net/Switch.hh"
#include "sim/Simulation.hh"
#include "sim/Sync.hh"

namespace san::active {

class ActiveSwitch;
class HandlerContext;

/** One arriving piece of an active message, staged in a buffer. */
struct StreamChunk {
    std::uint32_t address = 0;  //!< mapped base address of this chunk
    std::uint32_t bytes = 0;
    unsigned bufId = 0;
    net::NodeId src = net::invalidNode;
    std::uint32_t tag = 0;
    net::PayloadPtr payload;    //!< rides the last packet of a message
    bool lastOfMessage = false;
    std::uint64_t messageBytes = 0;
    /** Lineage record of the packet that carried this chunk (null
     * unless telemetry sampled it): handler CPU time charged while
     * this chunk is the live input accrues to it. */
    std::shared_ptr<obs::TelemetryRecord> telemetry;
};

/** A handler body: a coroutine over its context. */
using HandlerFn = std::function<sim::Task(HandlerContext &)>;

/**
 * Cumulative switch-CPU cost of one handler program, across every
 * instance it ran. Every tick a handler charges flows through
 * HandlerContext: busy time through compute / send / postRead, stall
 * time through access / fetchCode / stallFor. Summing busyTicks over
 * all profiles reproduces the switch CPUs' busy counters, and
 * summing stallTicks their stall counters.
 */
struct HandlerProfile {
    std::uint8_t id = 0;
    std::string name;
    std::uint64_t invocations = 0; //!< instances started
    std::uint64_t chunks = 0;      //!< stream chunks consumed
    std::uint64_t bytes = 0;       //!< payload bytes consumed
    sim::Tick busyTicks = 0;       //!< switch-CPU busy time charged
    sim::Tick stallTicks = 0;      //!< switch-CPU stall time charged
};

/** Active hardware configuration. */
struct ActiveConfig {
    unsigned cpus = 1;               //!< 1..4 embedded processors
    std::uint64_t cpuHz = 500'000'000; //!< embedded core clock
    DataBufferParams buffers{};      //!< 16 x 512 B
    unsigned atbEntries = 16;
    /** Dispatch unit: header decode + jump table lookup. */
    sim::Tick dispatchLatency = sim::ns(40);
    /** Send unit: handing one message to the crossbar. */
    sim::Tick sendLatency = sim::ns(20);
    mem::MemorySystemParams cpuMem = mem::switchMemoryParams();
};

/**
 * Execution context handed to a running handler. All handler
 * interaction with the switch hardware goes through this API.
 */
class HandlerContext
{
  public:
    HandlerContext(ActiveSwitch &sw, unsigned cpu_index,
                   std::uint8_t handler_id, std::uint8_t cpu_id);

    /** The switch this handler runs inside. */
    ActiveSwitch &owner() { return sw_; }
    sim::Simulation &sim();
    /** Index of the embedded CPU executing this instance. */
    unsigned cpuIndex() const { return cpuIndex_; }
    std::uint8_t handlerId() const { return handlerId_; }

    /** Await the next chunk of this instance's input stream. */
    sim::ValueTask<StreamChunk> nextChunk();

    /**
     * Memory-mapped read of [offset, offset+len) of @p chunk:
     * stalls (idle) until the lines are valid. Valid-bit hardware:
     * overlapping compute with the arriving copy is the point.
     */
    sim::Task awaitValid(const StreamChunk &chunk, std::uint32_t offset,
                         std::uint32_t len);

    /** Busy-execute instructions on this instance's switch CPU. */
    sim::Delay compute(std::uint64_t instructions);

    /** Touch switch-local memory (bit-vector, DFA...) via the D$. */
    sim::Delay access(mem::Addr addr, std::uint64_t bytes,
                      mem::AccessKind kind);

    /** Instruction-side footprint of this handler's code. */
    sim::Delay fetchCode(mem::Addr pc, std::uint64_t bytes);

    /** The CPU's memory hierarchy, for a batch of accesses (per-record
     * hash probes) whose summed stall the handler charges once. */
    mem::MemorySystem &memory();

    /** Charge @p ticks of stall the handler computed itself. */
    sim::Delay stallFor(sim::Tick ticks);

    /**
     * Deallocate_Buffer(end): release every buffer mapped wholly
     * below @p end_addr, as the paper's macro does.
     */
    void deallocateThrough(std::uint32_t end_addr);

    /** Release exactly the buffer mapped at @p base (arguments and
     * other out-of-stream objects). */
    void deallocateOne(std::uint32_t base);

    /**
     * Emit a message via the Send unit. Charges the send-unit
     * latency; packets are injected into the crossbar toward @p dst.
     */
    sim::Task send(net::NodeId dst, std::uint64_t bytes,
                   std::optional<net::ActiveHeader> active = std::nullopt,
                   net::PayloadPtr payload = nullptr,
                   std::uint32_t tag = 0);

    /**
     * Initiate a disk read from the switch (Tar-style): requires the
     * small run-time kernel, modelled as a fixed kernel cost.
     */
    sim::Task postRead(net::NodeId storage, std::uint64_t offset,
                       std::uint64_t bytes, net::NodeId reply_to,
                       std::optional<net::ActiveHeader> reply_active);

  private:
    friend class ActiveSwitch;

    /** Private: a handler spends CPU time only through the calls
     * above, so its profile and lineage see every tick. */
    cpu::SwitchCpu &cpu();

    /** Add @p d to this handler's @p counter and to the live chunk's
     * lineage; returns @p d. */
    sim::Delay charge(sim::Delay d, sim::Tick HandlerProfile::*counter);

    ActiveSwitch &sw_;
    unsigned cpuIndex_;
    std::uint8_t handlerId_;
    std::uint8_t cpuId_;
    std::unique_ptr<sim::Channel<StreamChunk>> input_;
    /** Lineage of the most recent chunk: CPU time charged between
     * chunks accrues to the packet that triggered it. */
    std::shared_ptr<obs::TelemetryRecord> liveTelemetry_;
};

/** A SAN switch with the active hardware attached. */
class ActiveSwitch : public net::Switch
{
  public:
    ActiveSwitch(sim::Simulation &sim, std::string name, net::NodeId id,
                 const net::SwitchParams &params,
                 const ActiveConfig &config = {});

    /** Install a handler program under @p handler_id (jump table). */
    void registerHandler(std::uint8_t handler_id, std::string name,
                         HandlerFn fn);

    const ActiveConfig &config() const { return config_; }
    unsigned cpuCount() const
    {
        return static_cast<unsigned>(cpus_.size());
    }
    cpu::SwitchCpu &cpu(unsigned i) { return *cpus_.at(i); }
    Atb &atb(unsigned cpu_index) { return atbs_.at(cpu_index); }
    DataBufferPool &buffers() { return pool_; }

    /** Active messages dispatched / chunks staged (stats). */
    std::uint64_t handlersInvoked() const { return invoked_; }
    std::uint64_t chunksStaged() const { return staged_; }
    std::uint64_t dispatchStalls() const { return dispatchStalls_; }
    /** Packets dropped for want of a registered handler. */
    std::uint64_t droppedPackets() const { return dropped_; }
    /** Crashed handler instances recovered by relaunching. */
    std::uint64_t handlerFailovers() const { return failovers_; }

    /**
     * The switch's recovery engine, armed iff a fault plan was
     * installed at construction; nullptr otherwise.
     */
    const fault::ReliableChannel *reliable() const { return rel_.get(); }

    /** Per-handler switch-CPU profiles, keyed by handler ID. */
    const std::map<std::uint8_t, HandlerProfile> &
    handlerProfiles() const
    {
        return profiles_;
    }

    /**
     * Register the active hardware's timeline under the switch name:
     * dispatch-queue depth, chunks staged and dispatch stalls per
     * interval, buffer-pool occupancy, and per-CPU busy / stall /
     * idle plus ATB state. Chains the base switch's transit-path
     * (queueing policy) gauges in front: the active hardware composes
     * with any crossbar policy — handler replies and retransmits
     * injected by the Send unit contend through it like transit
     * traffic.
     */
    void registerMetrics(obs::MetricsRegistry &m) const;

    /** Fair-share cap on buffers held by one handler instance. */
    unsigned bufferQuota() const;

  protected:
    void deliverLocal(net::Arrival &&arrival) override;

  private:
    friend class HandlerContext;

    struct Instance {
        std::uint8_t handlerId;
        std::uint8_t cpuId;
        unsigned cpuIndex;
        std::unique_ptr<HandlerContext> ctx;
        unsigned heldBuffers = 0; //!< fair-share accounting
    };

    using InstanceKey = std::pair<std::uint8_t, std::uint8_t>;

    /**
     * One instance's arrivals waiting for a buffer or an ATB slot,
     * oldest first, each tagged with its per-switch arrival number.
     */
    struct WaitQueue {
        InstanceKey key;
        std::deque<std::pair<std::uint64_t, net::Arrival>> arrivals;
        bool blocked = false; //!< failed to stage in this retry
    };

    /** Stage one packet into a buffer + ATB + instance stream. */
    void dispatch(net::Arrival arrival);
    bool tryStage(const net::Arrival &arrival);
    void retryPending();
    Instance &instanceFor(const net::Packet &pkt);
    unsigned pickCpu(std::uint8_t cpu_id);
    sim::Task runInstance(InstanceKey key, HandlerFn fn);
    /** Begin or end (@p phase) instance @p key's slice on switch CPU
     * @p cpu_index's track, after a "handler-crash" instant if it
     * @p crashed. Callers check for a tracer (one branch untraced). */
    void traceInstance(sim::Tracer &tr, sim::TracePhase phase,
                       InstanceKey key, unsigned cpu_index,
                       bool crashed = false) const;

    /** Id for the next message or read this switch posts. */
    std::uint64_t
    nextMessageId()
    {
        return net::messageIdOf(id(), messagesPosted_++);
    }

    /** The send unit: net::packetize at the data-buffer size. */
    void sendUnit(net::NodeId dst, std::uint64_t bytes,
                  std::optional<net::ActiveHeader> active,
                  net::PayloadPtr payload, std::uint32_t tag);

    /** Release one data buffer, crediting its owning instance. */
    void releaseBuffer(unsigned buf_id);

    ActiveConfig config_;
    DataBufferPool pool_;
    std::vector<Atb> atbs_;
    std::vector<std::unique_ptr<cpu::SwitchCpu>> cpus_;
    std::vector<unsigned> cpuLoad_; //!< live instances per CPU

    struct JumpEntry {
        std::string name;
        HandlerFn fn;
    };
    /** Indexed by handler id; sized by the first registration, so
     * a switch that never runs a handler holds no table. */
    std::vector<std::optional<JumpEntry>> jumpTable_;
    std::map<std::uint8_t, HandlerProfile> profiles_;

    std::map<InstanceKey, Instance> instances_;
    /** One queue per instance with arrivals waiting, in no order. */
    std::vector<WaitQueue> waiting_;
    std::size_t pending_ = 0;        //!< arrivals waiting, all queues
    std::uint64_t arrivalsQueued_ = 0; //!< next arrival number
    /** Owning instance of each data buffer (or none). */
    std::vector<std::optional<InstanceKey>> bufOwner_;

    std::uint64_t invoked_ = 0;
    std::uint64_t staged_ = 0;
    std::uint64_t dispatchStalls_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t failovers_ = 0;
    /** Handler ids already warned about (one bit per 6-bit id). */
    std::uint64_t warnedHandlers_ = 0;

    fault::FaultSite *crashSite_ = nullptr;
    std::unique_ptr<fault::ReliableChannel> rel_;
    std::uint32_t messagesPosted_ = 0;
};

} // namespace san::active

#endif // SAN_ACTIVE_ACTIVE_SWITCH_HH
