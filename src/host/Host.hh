/**
 * @file
 * A compute node: host CPU + memory system + HCA + OS model.
 *
 * The Host provides the I/O and messaging API that the benchmark
 * applications are written against:
 *
 *  - readBlocking(): the "normal" path — pay the OS request cost,
 *    post the read, sleep until every chunk has DMA'd in. Prefetched
 *    variants issue several reads and await them individually
 *    (the paper's "+pref" = two outstanding requests).
 *  - postRead()/postReadTo(): queue-pair posts; postReadTo directs
 *    the data at any node, including an active-switch handler.
 *  - send()/appRecv(): user-level messaging between nodes.
 *
 * A demux task sorts inbound messages into I/O completions and
 * application messages.
 */

#ifndef SAN_HOST_HOST_HH
#define SAN_HOST_HOST_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "cpu/Cpu.hh"
#include "host/OsModel.hh"
#include "io/IoRequest.hh"
#include "net/Fabric.hh"
#include "sim/Simulation.hh"
#include "sim/Sync.hh"

namespace san::host {

/** First tag value available to application-level protocols. */
inline constexpr std::uint32_t tagApp = 100;

/** Completion record of one I/O request. */
struct IoCompletion {
    std::uint64_t requestId = 0;
    std::uint64_t bytes = 0;
    sim::Tick firstChunkAt = 0;
    sim::Tick completedAt = 0;
    /** Ok unless the storage node reported a failed chunk (disk
     * timeouts past the retry cap). */
    io::IoStatus status = io::IoStatus::Ok;
};

/** A host node on the SAN. */
class Host
{
  public:
    Host(sim::Simulation &sim, const std::string &name,
         net::Fabric &fabric,
         const mem::MemorySystemParams &mem_params =
             mem::hostMemoryParams(),
         const OsCostParams &os_params = {});

    Host(const Host &) = delete;
    Host &operator=(const Host &) = delete;

    cpu::HostCpu &cpu() { return cpu_; }
    net::Adapter &hca() { return *hca_; }
    net::NodeId id() const { return hca_->id(); }
    const std::string &name() const { return name_; }
    const OsCostParams &osParams() const { return osParams_; }

    /** Spawn the receive demux. Call once after fabric wiring. */
    void start();

    /**
     * Normal-path blocking read: OS request cost, post, wait for all
     * data to land in host memory.
     */
    sim::ValueTask<IoCompletion> readBlocking(net::NodeId storage,
                                              std::uint64_t offset,
                                              std::uint64_t bytes);

    /**
     * Normal-path asynchronous read: pay the OS cost, post, return
     * the request id. Use awaitIo() for completion. This is the
     * building block of the "+pref" (two outstanding requests)
     * configurations.
     */
    sim::ValueTask<std::uint64_t> postRead(net::NodeId storage,
                                           std::uint64_t offset,
                                           std::uint64_t bytes);

    /**
     * Active-path read: a cheap user-level post directing the data
     * at @p reply_to (usually a switch handler via @p active).
     * No completion is tracked here — the consumer of the data
     * signals the application however it chooses.
     */
    sim::ValueTask<std::uint64_t>
    postReadTo(net::NodeId storage, std::uint64_t offset,
               std::uint64_t bytes, net::NodeId reply_to,
               std::optional<net::ActiveHeader> active);

    /** Block until request @p id has fully arrived at this host. */
    sim::ValueTask<IoCompletion> awaitIo(std::uint64_t id);

    /** Post an application message (user-level, cheap). */
    sim::Task send(net::NodeId dst, std::uint64_t bytes,
                   std::optional<net::ActiveHeader> active = std::nullopt,
                   net::PayloadPtr payload = nullptr,
                   std::uint32_t tag = tagApp);

    /** Receive an application message (polling receive). */
    sim::ValueTask<net::Message> recv();

    /** Application messages channel (for custom consumers). */
    sim::Channel<net::Message> &appQueue() { return appRecv_; }

    /**
     * Allocate a fresh I/O buffer region of @p bytes in this host's
     * address space. Fresh regions model DMA landing zones: first
     * touch is a cold miss, as on real non-coherent DMA.
     */
    mem::Addr allocBuffer(std::uint64_t bytes);

    /** Host I/O traffic: total bytes in and out of this node. */
    std::uint64_t
    ioTrafficBytes() const
    {
        return hca_->bytesSent() + hca_->bytesReceived();
    }

    /** I/O requests that completed with an error status. */
    std::uint64_t ioErrors() const { return ioErrors_; }

    /**
     * Register this host's timeline under its name: CPU busy / stall
     * / idle fractions, outstanding I/O requests, and HCA bytes per
     * interval.
     */
    void
    registerMetrics(obs::MetricsRegistry &m) const
    {
        cpu_.registerMetrics(m, name_ + ".cpu");
        m.add(name_ + ".outstandingIo", obs::GaugeKind::Gauge,
              [this] { return static_cast<double>(pending_.size()); });
        m.add(name_ + ".ioBytes", obs::GaugeKind::Rate,
              [this] { return static_cast<double>(ioTrafficBytes()); });
    }

  private:
    sim::Task demux();

    struct Pending {
        std::uint64_t expected = 0;
        std::uint64_t received = 0;
        sim::Tick firstChunkAt = 0;
        sim::Tick completedAt = 0;
        bool complete = false;
        io::IoStatus status = io::IoStatus::Ok;
        std::unique_ptr<sim::Gate> gate;
    };

    sim::Simulation &sim_;
    std::string name_;
    OsCostParams osParams_;
    cpu::HostCpu cpu_;
    net::Adapter *hca_;
    sim::Channel<net::Message> appRecv_;
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::uint64_t ioErrors_ = 0;
    mem::Addr bufferBrk_ = 0x100000000ull; // I/O buffer arena
    /**
     * I/O request ids, numbered across every host of the process:
     * --trace prints them as the ids of its "io" async events, so a
     * per-run count would renumber existing traces. Atomic, because
     * runs on different threads (sharded hosts, or whole simulations
     * side by side) draw from it at once.
     */
    static std::atomic<std::uint64_t> nextRequestId_;
};

} // namespace san::host

#endif // SAN_HOST_HOST_HH
