#include "net/Adapter.hh"

#include <cassert>
#include <utility>

namespace san::net {

Adapter::Adapter(sim::Simulation &sim, std::string name, NodeId id,
                 const AdapterParams &params)
    : sim_(sim), name_(std::move(name)), id_(id), params_(params),
      recv_(sim)
{}

void
Adapter::attach(Link &out, Link &in)
{
    out_ = &out;
    in_ = &in;
    in.setSink(
        [this](Arrival &&arrival) { receive(std::move(arrival)); });
    if (sim_.context().faults != nullptr)
        rel_ = std::make_unique<fault::ReliableChannel>(
            sim_, name_, id_,
            [this](Packet pkt) { out_->send(std::move(pkt)); });
}

void
Adapter::sendMessage(NodeId dst, std::uint64_t bytes,
                     std::optional<ActiveHeader> active,
                     PayloadPtr payload, std::uint32_t tag)
{
    assert(out_ && "adapter not attached to the fabric");
    packetize(id_, dst, bytes, active, std::move(payload), tag,
              messageIdOf(id_, static_cast<std::uint32_t>(msgsOut_)),
              params_.mtu, sim_.context().telemetry, sim_.now(),
              [this](Packet &&pkt) {
                  bytesOut_ += pkt.payloadBytes;
                  if (rel_)
                      rel_->send(std::move(pkt));
                  else
                      out_->send(std::move(pkt));
              });
    ++msgsOut_;
}

void
Adapter::receive(Arrival &&arrival)
{
    assert(in_);
    // Endpoints drain their staging immediately (DMA into host
    // memory), so the credit is returned right away.
    in_->returnCredit();

    // Control packets are consumed (delivered) inside the recovery
    // protocol below; data packets count as delivered only once they
    // clear it — a corrupt copy that gets dropped must not stamp the
    // lineage, its clean retransmission will.
    if (arrival.pkt.telemetry &&
        arrival.pkt.kind != PacketKind::Data)
        arrival.pkt.telemetry->noteDelivered(sim_.now());

    // Recovery protocol first: control packets, corrupted packets and
    // duplicates never reach reassembly (exactly-once delivery).
    if (rel_ && rel_->onArrival(arrival))
        return;

    Packet &pkt = arrival.pkt;
    bytesIn_ += pkt.payloadBytes;
    if (pkt.telemetry) {
        // Delivered when the last byte has DMA'd in, matching the
        // completion time reassembly reports.
        pkt.telemetry->noteDelivered(arrival.end);
        if (auto *tr = sim_.tracer()) {
            tr->span(name_, "deliver", arrival.end, arrival.end);
            tr->flowEnd(name_, "lineage", pkt.telemetry->uid,
                        arrival.end);
        }
    }

    auto &part = partial_[pkt.messageId];
    if (part.received == 0) {
        part.msg.src = pkt.src;
        part.msg.dst = pkt.dst;
        part.msg.bytes = pkt.messageBytes;
        part.msg.active = pkt.active;
        part.msg.activeHdr = pkt.activeHdr;
        part.msg.tag = pkt.tag;
        part.msg.firstArrival = arrival.start;
    }
    part.received += pkt.payloadBytes;
    if (pkt.last) {
        part.msg.completedAt = arrival.end;
        part.msg.payload = std::move(pkt.payload);
        Message done = std::move(part.msg);
        partial_.erase(pkt.messageId);
        ++msgsIn_;
        // The cut-through sink fires at header time; an endpoint only
        // sees the message once its last byte has DMA'd in.
        if (arrival.end > sim_.now()) {
            sim_.events().schedule(
                arrival.end, [this, m = std::move(done)]() mutable {
                    recv_.push(std::move(m));
                });
        } else {
            recv_.push(std::move(done));
        }
    }
}

} // namespace san::net
