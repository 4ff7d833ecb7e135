#include "fault/Reliable.hh"

#include <algorithm>

#include "obs/Telemetry.hh"

namespace san::fault {

void
ReliableChannel::instant(const char *what)
{
    if (auto *tr = sim_.tracer())
        tr->instant(name_, what, sim_.now());
}

void
ReliableChannel::send(net::Packet pkt)
{
    TxFlow &flow = tx_[pkt.dst];
    pkt.kind = net::PacketKind::Data;
    pkt.corrupt = false;
    pkt.flowSeq = flow.nextSeq++;
    pkt.checksum = net::packetChecksum(pkt);
    if (flow.dead) {
        // The flow exhausted its retries earlier; deliver best-effort
        // so the rest of the run keeps moving.
        forward_(std::move(pkt));
        return;
    }
    if (flow.window.size() >= sendWindow) {
        flow.backlog.push_back(std::move(pkt));
        return;
    }
    const bool was_idle = flow.window.empty();
    flow.window.push_back(pkt);
    forward_(std::move(pkt));
    if (was_idle)
        armTimer(flow.window.back().dst, flow);
}

void
ReliableChannel::sendControl(net::PacketKind kind, net::NodeId dst,
                             std::uint32_t seq)
{
    net::Packet pkt;
    pkt.src = self_;
    pkt.dst = dst;
    pkt.payloadBytes = 0;
    pkt.kind = kind;
    pkt.flowSeq = seq;
    pkt.tag = tagControl;
    pkt.checksum = net::packetChecksum(pkt);
    if (auto *tel = sim_.context().telemetry)
        pkt.telemetry = tel->sample(pkt.src, pkt.dst,
                                    obs::FlowClass::Control,
                                    sim_.now());
    if (kind == net::PacketKind::Ack)
        ++acksSent_;
    else
        ++nacksSent_;
    forward_(std::move(pkt));
}

bool
ReliableChannel::onArrival(const net::Arrival &arrival)
{
    const net::Packet &pkt = arrival.pkt;
    if (pkt.kind == net::PacketKind::Ack ||
        pkt.kind == net::PacketKind::Nack) {
        if (!verified(pkt)) {
            // A bit error hit a control packet; the retransmit timer
            // is the backstop.
            ++controlDrops_;
            instant("control-drop");
            return true;
        }
        if (pkt.kind == net::PacketKind::Ack)
            onAck(pkt.src, pkt.flowSeq);
        else
            onNack(pkt.src, pkt.flowSeq);
        return true;
    }

    RxFlow &flow = rx_[pkt.src];
    if (!verified(pkt)) {
        ++crcDrops_;
        instant("crc-drop");
        // NACK once per expected seq: everything the sender has in
        // flight behind the corrupt packet will arrive out-of-order
        // and be dropped silently; one go-back-N covers them all.
        if (!flow.nacked) {
            flow.nacked = true;
            sendControl(net::PacketKind::Nack, pkt.src, flow.expected);
        }
        return true;
    }
    if (pkt.flowSeq == flow.expected) {
        ++flow.expected;
        flow.nacked = false;
        sendControl(net::PacketKind::Ack, pkt.src, flow.expected);
        return false; // deliver to the upper layer
    }
    if (pkt.flowSeq < flow.expected) {
        // Spurious retransmission (our ACK was lost or late): the
        // payload was already delivered, so dedup keeps delivery
        // exactly-once. Re-ACK to resync the sender.
        ++dupDrops_;
        instant("dup-drop");
        sendControl(net::PacketKind::Ack, pkt.src, flow.expected);
        return true;
    }
    // Gap: a corrupt or dropped packet precedes this one. Go-back-N
    // will resend the whole window in order.
    ++oooDrops_;
    if (!flow.nacked) {
        flow.nacked = true;
        sendControl(net::PacketKind::Nack, pkt.src, flow.expected);
    }
    return true;
}

void
ReliableChannel::onAck(net::NodeId from, std::uint32_t seq)
{
    auto it = tx_.find(from);
    if (it == tx_.end())
        return;
    TxFlow &flow = it->second;
    bool progressed = false;
    while (!flow.window.empty() && flow.window.front().flowSeq < seq) {
        flow.window.pop_front();
        progressed = true;
    }
    if (!progressed)
        return;
    flow.retries = 0;
    flow.rto = rtoInitial;
    while (flow.window.size() < sendWindow &&
           !flow.backlog.empty()) {
        flow.window.push_back(flow.backlog.front());
        forward_(std::move(flow.backlog.front()));
        flow.backlog.pop_front();
    }
    if (flow.window.empty())
        ++flow.timerGen; // cancel the pending timer
    else
        armTimer(from, flow);
}

void
ReliableChannel::onNack(net::NodeId from, std::uint32_t seq)
{
    auto it = tx_.find(from);
    if (it == tx_.end())
        return;
    TxFlow &flow = it->second;
    // A NACK also acknowledges everything before the requested seq.
    while (!flow.window.empty() && flow.window.front().flowSeq < seq)
        flow.window.pop_front();
    retransmitFrom(flow, seq);
    if (!flow.window.empty())
        armTimer(from, flow);
}

void
ReliableChannel::retransmitFrom(TxFlow &flow, std::uint32_t seq)
{
    for (const net::Packet &pkt : flow.window) {
        if (pkt.flowSeq < seq)
            continue;
        ++retransmits_;
        instant("retransmit");
        // The window copy shares the original's lineage record, so
        // the retransmit count accumulates on the packet's history.
        if (pkt.telemetry)
            pkt.telemetry->noteRetransmit();
        forward_(pkt); // the stored copy is clean (never corrupted)
    }
}

void
ReliableChannel::armTimer(net::NodeId dst, TxFlow &flow)
{
    if (flow.rto == 0)
        flow.rto = rtoInitial;
    const std::uint64_t gen = ++flow.timerGen;
    sim_.events().after(flow.rto,
                        [this, dst, gen] { onTimer(dst, gen); });
}

void
ReliableChannel::onTimer(net::NodeId dst, std::uint64_t gen)
{
    auto it = tx_.find(dst);
    if (it == tx_.end())
        return;
    TxFlow &flow = it->second;
    if (gen != flow.timerGen || flow.window.empty() || flow.dead)
        return; // stale timer, or nothing outstanding anymore
    ++timeouts_;
    instant("timeout");
    ++flow.retries;
    if (flow.retries > maxRetries) {
        // Give up so the simulation cannot wedge: drop the flow to
        // best-effort and count the abort loudly.
        ++aborts_;
        flow.dead = true;
        sim_.warn(name_, "reliable flow to node ", dst,
                  " aborted after ", maxRetries, " timeouts");
        for (const net::Packet &pkt : flow.window)
            forward_(pkt);
        while (!flow.backlog.empty()) {
            forward_(flow.backlog.front());
            flow.backlog.pop_front();
        }
        flow.window.clear();
        return;
    }
    retransmitFrom(flow, flow.window.front().flowSeq);
    flow.rto = std::min<sim::Tick>(flow.rto * 2, rtoMax);
    armTimer(dst, flow);
}

} // namespace san::fault
