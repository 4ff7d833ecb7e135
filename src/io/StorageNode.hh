/**
 * @file
 * A storage node: TCA + Ultra-320 SCSI bus + striped disks.
 *
 * The node's server task pops read-request messages from its TCA and
 * streams the requested bytes back as MTU chunk messages, pacing each
 * chunk through the disk and bus occupancy models so that end-to-end
 * storage bandwidth (not the 1 GB/s link) bounds delivery.
 */

#ifndef SAN_IO_STORAGE_NODE_HH
#define SAN_IO_STORAGE_NODE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "fault/FaultPlan.hh"
#include "io/Disk.hh"
#include "io/IoRequest.hh"
#include "io/ScsiBus.hh"
#include "net/Adapter.hh"
#include "obs/Metrics.hh"
#include "sim/Simulation.hh"
#include "sim/Task.hh"

namespace san::io {

/** Storage node configuration (paper defaults). */
struct StorageParams {
    unsigned disks = 2;
    DiskParams disk{};          //!< 2 x 50 MB/s = 100 MB/s aggregate
    ScsiParams scsi{};          //!< Ultra-320
};

/**
 * An active-disk device processor (the paper's §6 "two-level active
 * I/O system": if active I/O devices become prevalent, they can be
 * used *within* the active switch system). When installed, every
 * chunk runs through the device filter before leaving the TCA; the
 * filter returns the bytes that survive plus the instructions the
 * embedded device core spends deciding.
 */
struct DeviceFilter {
    /** (surviving bytes, device instructions) for one raw chunk. */
    using Fn = std::function<std::pair<std::uint32_t, std::uint64_t>(
        std::uint64_t offset, std::uint32_t bytes)>;

    Fn process;
    /** Embedded device core clock (active-disk class, not a host). */
    std::uint64_t cpuHz = 200'000'000;
};

/** The I/O subsystem behind one TCA. */
class StorageNode
{
  public:
    /**
     * @p tca must outlive this node; its receive queue is consumed by
     * the server (started by start()).
     */
    StorageNode(sim::Simulation &sim, net::Adapter &tca,
                const StorageParams &params = {});

    /** Spawn the request server task. Call once after fabric wiring. */
    void start();

    net::NodeId id() const { return tca_.id(); }
    net::Adapter &tca() { return tca_; }
    DiskArray &disks() { return disks_; }
    ScsiBus &bus() { return bus_; }

    /**
     * Install an active-disk device processor: chunks are filtered
     * at the device before consuming any fabric bandwidth.
     */
    void setDeviceFilter(DeviceFilter filter);

    std::uint64_t requestsServed() const { return requests_; }
    /** Requests accepted but not yet fully streamed back. */
    unsigned outstanding() const { return inflight_; }
    /** Chunk reads re-issued after an injected timeout. */
    std::uint64_t ioRetries() const { return retries_; }
    /** Chunks that exhausted the retry budget (status Error). */
    std::uint64_t ioErrors() const { return errors_; }
    /** Chunk reads delayed by an injected latency spike. */
    std::uint64_t ioSpikes() const { return spikes_; }
    /** Busy time of the embedded device core (if installed). */
    sim::Tick deviceBusyTicks() const { return deviceBusy_; }
    /** Bytes dropped at the device, never entering the fabric. */
    std::uint64_t bytesFilteredAtDevice() const { return filtered_; }

    /**
     * Register the node's timeline under @p prefix: outstanding I/Os,
     * requests per interval, mean spindle busy fraction, and bytes per
     * interval off the media and over the SCSI bus.
     */
    void registerMetrics(obs::MetricsRegistry &m,
                         const std::string &prefix) const;

  private:
    sim::Task serve();
    sim::Task handleRequest(IoRequest req);

    /** Disk occupancy for one chunk, with fault injection+recovery:
     * spikes delay, timeouts re-issue up to the retry cap. Sets
     * @p error when the budget is exhausted. */
    sim::Tick readChunkFaulted(std::uint64_t offset, std::uint32_t bytes,
                               bool *error);

    sim::Simulation &sim_;
    net::Adapter &tca_;
    StorageParams params_;
    DiskArray disks_;
    ScsiBus bus_;
    std::uint64_t requests_ = 0;
    unsigned inflight_ = 0;

    DeviceFilter filter_{};
    sim::Tick devicePeriod_ = 0;   //!< ps per device instruction
    sim::Tick deviceFree_ = 0;     //!< device core occupancy
    sim::Tick deviceBusy_ = 0;
    std::uint64_t filtered_ = 0;

    fault::FaultSite *spikeSite_ = nullptr;
    fault::FaultSite *timeoutSite_ = nullptr;
    std::uint64_t retries_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t spikes_ = 0;
};

/** Build the payload for a read-request message. */
net::PayloadPtr makeRequestPayload(const IoRequest &req);

/** Extract the IoRequest from a request message payload. */
const IoRequest &requestOf(const net::Message &msg);

/** Extract the IoReply tag from a data chunk message payload. */
const IoReply &replyOf(const net::Message &msg);

} // namespace san::io

#endif // SAN_IO_STORAGE_NODE_HH
