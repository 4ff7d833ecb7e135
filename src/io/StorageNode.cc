#include "io/StorageNode.hh"

#include <cassert>
#include <vector>

namespace san::io {

StorageNode::StorageNode(sim::Simulation &sim, net::Adapter &tca,
                         const StorageParams &params)
    : sim_(sim), tca_(tca), params_(params),
      disks_(params.disks, params.disk), bus_(params.scsi)
{
    if (fault::FaultPlan *plan = sim.context().faults) {
        spikeSite_ =
            plan->site(fault::FaultKind::DiskSpike, tca_.name());
        timeoutSite_ =
            plan->site(fault::FaultKind::DiskTimeout, tca_.name());
    }
}

void
StorageNode::setDeviceFilter(DeviceFilter filter)
{
    filter_ = std::move(filter);
    devicePeriod_ = sim::Frequency(filter_.cpuHz).period();
}

void
StorageNode::start()
{
    sim_.spawn(serve());
}

sim::Task
StorageNode::serve()
{
    for (;;) {
        net::Message msg = co_await tca_.recvQueue().pop();
        IoRequest req = requestOf(msg);
        ++requests_;
        // Each request streams independently; disk/bus occupancy
        // models serialize contention between concurrent requests.
        sim_.spawn(handleRequest(req));
    }
}

void
StorageNode::registerMetrics(obs::MetricsRegistry &m,
                             const std::string &prefix) const
{
    m.add(prefix + ".outstanding", obs::GaugeKind::Gauge,
          [this] { return static_cast<double>(inflight_); });
    m.add(prefix + ".requests", obs::GaugeKind::Rate,
          [this] { return static_cast<double>(requests_); });
    // Per-spindle busy time sums across the array; divide by the
    // spindle count so the gauge stays a 0..1 fraction.
    m.add(prefix + ".disk.busy", obs::GaugeKind::TimeShare, [this] {
        return static_cast<double>(disks_.busyTicks()) /
               static_cast<double>(disks_.disks());
    });
    m.add(prefix + ".disk.bytes", obs::GaugeKind::Rate,
          [this] { return static_cast<double>(disks_.bytesRead()); });
    m.add(prefix + ".scsi.bytes", obs::GaugeKind::Rate, [this] {
        return static_cast<double>(bus_.bytesTransferred());
    });
}

sim::Tick
StorageNode::readChunkFaulted(std::uint64_t offset, std::uint32_t bytes,
                              bool *error)
{
    sim::Tick off_platter = disks_.readChunk(offset, bytes, sim_.now());
    if (spikeSite_ != nullptr &&
        spikeSite_->hits(sim_.now(), tca_.name())) {
        // A media retry inside the drive: the data comes back, late.
        ++spikes_;
        off_platter += fault::diskSpikeDelay;
        if (auto *tr = sim_.tracer())
            tr->instant(tca_.name(), "disk-spike", sim_.now());
    }
    unsigned attempts = 0;
    while (timeoutSite_ != nullptr &&
           timeoutSite_->hits(sim_.now(), tca_.name())) {
        if (attempts >= fault::diskMaxRetries) {
            // Retry budget exhausted: complete the chunk with an
            // error status the requester observes.
            ++errors_;
            *error = true;
            sim_.warn(tca_.name(), "chunk read at offset ",
                      offset, " failed after ", attempts,
                      " retries; completing with error");
            break;
        }
        ++attempts;
        ++retries_;
        if (auto *tr = sim_.tracer())
            tr->instant(tca_.name(), "disk-timeout", sim_.now());
        // The command timed out with no data; re-issue it after the
        // timeout window. Occupancy restarts from the timeout expiry.
        off_platter =
            disks_.readChunk(offset, bytes, off_platter + fault::diskTimeout);
    }
    return off_platter;
}

sim::Task
StorageNode::handleRequest(IoRequest req)
{
    ++inflight_;
    // Reserve the disk and bus schedules for every chunk up front
    // (at issue time), so the disk stage of chunk i+1 overlaps the
    // bus stage of chunk i: the pipeline runs at min(disk, bus)
    // aggregate bandwidth rather than their series combination.
    const unsigned chunk = tca_.mtu();
    struct Slot {
        std::uint64_t offset;
        std::uint32_t bytes;    //!< bytes leaving the TCA
        std::uint32_t rawBytes; //!< bytes read off the media
        sim::Tick atTca;
        bool error = false;     //!< read failed past the retry cap
    };
    std::vector<Slot> schedule;
    schedule.reserve(static_cast<std::size_t>(
        (req.bytes + chunk - 1) / chunk));
    std::uint64_t planned = 0;
    bool first = true;
    while (planned < req.bytes) {
        const std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, req.bytes - planned));
        bool chunk_error = false;
        const sim::Tick off_platter =
            readChunkFaulted(req.offset + planned, n, &chunk_error);
        sim::Tick at_tca = bus_.transfer(n, off_platter, first);
        first = false;
        std::uint32_t out_bytes = n;
        if (filter_.process) {
            // The device core inspects the chunk before it leaves
            // the TCA. Its occupancy is reserved here, in the same
            // globally-ordered pass as the disk and bus schedules,
            // so concurrent requests keep their delivery order.
            auto [kept, instr] =
                filter_.process(req.offset + planned, n);
            const sim::Tick work = instr * devicePeriod_;
            const sim::Tick start = std::max(at_tca, deviceFree_);
            deviceFree_ = start + work;
            deviceBusy_ += work;
            at_tca = deviceFree_;
            filtered_ += n - kept;
            out_bytes = kept;
        }
        schedule.push_back(Slot{req.offset + planned, out_bytes, n,
                                at_tca, chunk_error});
        planned += n;
    }

    std::uint64_t sent = 0;
    for (const Slot &slot : schedule) {
        if (slot.atTca > sim_.now())
            co_await sim::Delay{slot.atTca - sim_.now()};
        auto reply = std::make_shared<IoReply>();
        reply->requestId = req.requestId;
        reply->offset = slot.offset;
        reply->bytes = slot.bytes;
        if (slot.error)
            reply->status = IoStatus::Error;
        sent += slot.rawBytes;
        reply->last = (sent >= req.bytes);
        // For active replies the TCA advances the mapped address with
        // the file offset, so the handler sees a flat file image.
        std::optional<net::ActiveHeader> hdr = req.replyActive;
        if (hdr)
            hdr->address += static_cast<std::uint32_t>(
                slot.offset - req.offset);
        const std::uint32_t msg_bytes = reply->bytes;
        tca_.sendMessage(req.replyTo, msg_bytes, hdr,
                         std::move(reply), tagIoReply);
    }
    --inflight_;
}

net::PayloadPtr
makeRequestPayload(const IoRequest &req)
{
    return std::make_shared<IoRequest>(req);
}

const IoRequest &
requestOf(const net::Message &msg)
{
    assert(msg.payload && "request message without IoRequest payload");
    return *static_cast<const IoRequest *>(msg.payload.get());
}

const IoReply &
replyOf(const net::Message &msg)
{
    assert(msg.payload && "data chunk without IoReply payload");
    return *static_cast<const IoReply *>(msg.payload.get());
}

} // namespace san::io
