#include "net/Traffic.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace san::net {

TrafficGen::TrafficGen(sim::Simulation &sim, std::vector<Adapter *> hosts,
                       const TrafficParams &params)
    : sim_(sim), hosts_(std::move(hosts)), params_(params)
{
    assert(hosts_.size() >= 2 && "traffic needs at least two hosts");
    assert(params_.hotspot < hosts_.size());
    for (unsigned i = 0; i < hosts_.size(); ++i)
        if (i != params_.hotspot)
            senders_.push_back(i);
    if (params_.spacing == 0) {
        // One message's wire time at the default 1 GB/s (1 byte/ns):
        // each sender offers exactly its link rate.
        const std::uint64_t pkts =
            (params_.messageBytes + params_.mtu - 1) / params_.mtu;
        params_.spacing = sim::ns(params_.messageBytes +
                                  pkts * headerBytes);
    }
    if (params_.pattern == TrafficParams::Pattern::Incast)
        params_.permMessages = 0;
}

void
TrafficGen::post(unsigned sender_slot, unsigned msg_index)
{
    // Deterministic interleave: within a sender's post sequence,
    // every hotInterleave-th message is hot until the hot budget is
    // spent, then the remaining ring messages drain.
    unsigned hot_before = 0;
    const unsigned k = std::max(1u, params_.hotInterleave);
    for (unsigned j = 0; j < msg_index; ++j)
        if (hot_before < params_.hotMessages && (j + 1) % k == 0)
            ++hot_before;
    bool hot = hot_before < params_.hotMessages &&
               (msg_index + 1) % k == 0;
    // Pure incast: everything is hot.
    if (params_.permMessages == 0)
        hot = true;
    // Hot budget exhausted but perm budget too? (msg_index always
    // < permMessages + hotMessages, so one of the two has room.)
    const unsigned perm_before = msg_index - hot_before;
    if (!hot && perm_before >= params_.permMessages)
        hot = true;
    assert(msg_index < params_.permMessages + params_.hotMessages);

    const unsigned src = senders_[sender_slot];
    unsigned dst;
    if (hot) {
        dst = params_.hotspot;
    } else {
        // Ring permutation over the senders: slot s -> slot s+1.
        dst = senders_[(sender_slot + 1) % senders_.size()];
    }
    const std::uint32_t tag = nextTag_++;
    meta_[tag] = MessageMeta{sim_.now(), sender_slot, hot};
    hosts_[src]->sendMessage(hosts_[dst]->id(), params_.messageBytes,
                             std::nullopt, nullptr, tag);
}

sim::Task
TrafficGen::drain(Adapter &host, unsigned expected)
{
    for (unsigned i = 0; i < expected; ++i) {
        Message msg = co_await host.recvQueue().pop();
        onDelivery(msg);
    }
}

void
TrafficGen::onDelivery(const Message &msg)
{
    const auto it = meta_.find(msg.tag);
    if (it == meta_.end())
        return; // not ours
    deliveries_.push_back(Delivery{msg.completedAt, msg.bytes,
                                   it->second.postedAt,
                                   it->second.senderSlot,
                                   it->second.hot});
}

void
TrafficGen::start()
{
    assert(!started_ && "start() is one-shot");
    started_ = true;
    firstPostAt_ = sim_.now();

    const unsigned total = params_.permMessages + params_.hotMessages;
    for (unsigned s = 0; s < senders_.size(); ++s) {
        for (unsigned j = 0; j < total; ++j) {
            const sim::Tick at = firstPostAt_ + j * params_.spacing;
            sim_.events().schedule(
                at, [this, s, j] { post(s, j); });
        }
    }

    // Expected deliveries: the hotspot gets every hot message, each
    // sender gets its ring predecessor's perm messages.
    const auto n = static_cast<unsigned>(senders_.size());
    sim_.spawn(drain(*hosts_[params_.hotspot],
                     n * params_.hotMessages));
    for (unsigned s = 0; s < n; ++s)
        sim_.spawn(drain(*hosts_[senders_[s]], params_.permMessages));
}

TrafficReport
TrafficGen::report() const
{
    TrafficReport r;
    r.firstPostAt = firstPostAt_;

    const auto n = static_cast<unsigned>(senders_.size());
    std::vector<std::uint64_t> fairBytes(n, 0);
    std::vector<sim::Tick> fairLast(n, 0);
    double latSum = 0.0;
    std::uint64_t latCount = 0;

    const bool usePermForFairness = params_.permMessages != 0;
    for (const Delivery &d : deliveries_) {
        r.deliveredBytes += d.bytes;
        ++r.deliveredMessages;
        r.lastDeliveryAt = std::max(r.lastDeliveryAt, d.at);
        if (d.hot) {
            r.hotBytes += d.bytes;
        } else {
            r.permBytes += d.bytes;
            r.permDoneAt = std::max(r.permDoneAt, d.at);
        }
        const bool counts = usePermForFairness ? !d.hot : d.hot;
        if (counts) {
            fairBytes[d.senderSlot] += d.bytes;
            fairLast[d.senderSlot] =
                std::max(fairLast[d.senderSlot], d.at);
            latSum += static_cast<double>(d.at - d.postedAt);
            r.permLatencyMaxNs =
                std::max(r.permLatencyMaxNs,
                         static_cast<double>(d.at - d.postedAt) / 1e3);
            ++latCount;
        }
    }
    if (r.permDoneAt == 0)
        r.permDoneAt = r.lastDeliveryAt; // pure incast
    for (const Delivery &d : deliveries_)
        if (d.at <= r.permDoneAt)
            r.bytesAtPermDone += d.bytes;

    const auto window =
        static_cast<double>(r.permDoneAt - r.firstPostAt);
    if (window > 0) {
        // Ticks are picoseconds: bytes/ps * 1e12 / 1e9 = GB/s.
        r.aggregateGBps =
            static_cast<double>(r.bytesAtPermDone) * 1e3 / window;
        r.permGoodputGBps =
            static_cast<double>(usePermForFairness ? r.permBytes
                                                   : r.hotBytes) *
            1e3 / window;
    }
    if (latCount > 0)
        r.permLatencyMeanNs =
            latSum / static_cast<double>(latCount) / 1e3;

    // Jain over per-sender goodput: bytes / (own completion window).
    double sum = 0.0, sumSq = 0.0;
    unsigned live = 0;
    for (unsigned s = 0; s < n; ++s) {
        if (fairBytes[s] == 0)
            continue;
        const auto w =
            static_cast<double>(fairLast[s] - r.firstPostAt);
        if (w <= 0)
            continue;
        const double x = static_cast<double>(fairBytes[s]) / w;
        sum += x;
        sumSq += x * x;
        ++live;
    }
    if (live > 0 && sumSq > 0)
        r.jainFairness = (sum * sum) / (live * sumSq);
    return r;
}

//
// ---- FabricTrafficGen ----
//

FabricTrafficGen::FabricTrafficGen(sim::Simulation &sim,
                                   std::vector<Adapter *> hosts,
                                   std::vector<unsigned> hostGroup,
                                   const FabricTrafficParams &params)
    : sim_(sim), hosts_(std::move(hosts)),
      hostGroup_(std::move(hostGroup)), params_(params)
{
    assert(hosts_.size() >= 2 &&
           "fabric traffic needs at least two hosts");
    if (hostGroup_.empty())
        hostGroup_.assign(hosts_.size(), 0);
    assert(hostGroup_.size() == hosts_.size());

    groups_ = 0;
    for (const unsigned g : hostGroup_)
        groups_ = std::max(groups_, g + 1);
    groupMembers_.resize(groups_);
    groupRank_.resize(hosts_.size());
    for (unsigned i = 0; i < hosts_.size(); ++i) {
        groupRank_[i] =
            static_cast<unsigned>(groupMembers_[hostGroup_[i]].size());
        groupMembers_[hostGroup_[i]].push_back(i);
    }

    if (params_.spacing == 0) {
        const std::uint64_t pkts =
            (params_.messageBytes + params_.mtu - 1) / params_.mtu;
        params_.spacing =
            sim::ns(params_.messageBytes + pkts * headerBytes);
    }
}

unsigned
FabricTrafficGen::destination(unsigned host, unsigned round) const
{
    const auto n = static_cast<unsigned>(hosts_.size());
    const std::uint64_t r = detMix64(
        params_.seed ^
        detMix64((static_cast<std::uint64_t>(host) << 32) | round));

    switch (params_.pattern) {
    case FabricTrafficParams::Pattern::Uniform: {
        unsigned d = static_cast<unsigned>(r % (n - 1));
        return d >= host ? d + 1 : d; // skip self
    }
    case FabricTrafficParams::Pattern::Permutation: {
        // round is deliberately unused: the permutation is fixed for
        // the whole run, the sustained adversarial load.
        if (groups_ <= 1) {
            const unsigned off =
                1 + static_cast<unsigned>(params_.seed % (n - 1));
            return (host + off) % n;
        }
        const unsigned g = hostGroup_[host];
        const unsigned hop =
            1 + static_cast<unsigned>(
                    params_.seed % (groups_ > 1 ? groups_ - 1 : 1));
        const auto &target = groupMembers_[(g + hop) % groups_];
        return target[groupRank_[host] % target.size()];
    }
    case FabricTrafficParams::Pattern::GroupLocal: {
        const auto &mem = groupMembers_[hostGroup_[host]];
        if (mem.size() <= 1) { // degenerate group: fall back
            unsigned d = static_cast<unsigned>(r % (n - 1));
            return d >= host ? d + 1 : d;
        }
        unsigned idx = static_cast<unsigned>(r % (mem.size() - 1));
        if (idx >= groupRank_[host])
            ++idx; // skip self within the group
        return mem[idx];
    }
    }
    return (host + 1) % n; // unreachable
}

void
FabricTrafficGen::post(unsigned host, unsigned round)
{
    const unsigned dst = destination(host, round);
    const std::uint32_t tag = nextTag_++;
    meta_[tag] = MessageMeta{sim_.now(),
                             hostGroup_[host] == hostGroup_[dst]};
    hosts_[host]->sendMessage(hosts_[dst]->id(), params_.messageBytes,
                              std::nullopt, nullptr, tag);
    ++posted_;
}

sim::Task
FabricTrafficGen::drain(Adapter &host, unsigned expected)
{
    for (unsigned i = 0; i < expected; ++i) {
        Message msg = co_await host.recvQueue().pop();
        const auto it = meta_.find(msg.tag);
        if (it == meta_.end())
            continue; // not ours
        ++deliveredMessages_;
        deliveredBytes_ += msg.bytes;
        lastDeliveryAt_ = std::max(lastDeliveryAt_, msg.completedAt);
        if (it->second.intraGroup)
            ++intra_;
        else
            ++inter_;
        const double ns =
            static_cast<double>(msg.completedAt -
                                it->second.postedAt) /
            1e3;
        latSumNs_ += ns;
        latMaxNs_ = std::max(latMaxNs_, ns);
    }
}

void
FabricTrafficGen::start()
{
    assert(!started_ && "start() is one-shot");
    started_ = true;
    firstPostAt_ = sim_.now();

    // The destination map is pure, so per-host delivery expectations
    // are exact — each drain knows precisely how many messages to
    // absorb and the run ends when the last one lands.
    std::vector<unsigned> expected(hosts_.size(), 0);
    for (unsigned h = 0; h < hosts_.size(); ++h)
        for (unsigned j = 0; j < params_.messagesPerHost; ++j)
            ++expected[destination(h, j)];

    for (unsigned h = 0; h < hosts_.size(); ++h)
        for (unsigned j = 0; j < params_.messagesPerHost; ++j)
            sim_.events().schedule(
                firstPostAt_ + j * params_.spacing,
                [this, h, j] { post(h, j); });

    for (unsigned h = 0; h < hosts_.size(); ++h)
        if (expected[h] > 0)
            sim_.spawn(drain(*hosts_[h], expected[h]));
}

FabricTrafficReport
FabricTrafficGen::report() const
{
    FabricTrafficReport r;
    r.postedMessages = posted_;
    r.deliveredMessages = deliveredMessages_;
    r.deliveredBytes = deliveredBytes_;
    r.intraGroupMessages = intra_;
    r.interGroupMessages = inter_;
    r.firstPostAt = firstPostAt_;
    r.lastDeliveryAt = lastDeliveryAt_;
    const auto window =
        static_cast<double>(lastDeliveryAt_ - firstPostAt_);
    if (window > 0)
        r.aggregateGBps =
            static_cast<double>(deliveredBytes_) * 1e3 / window;
    if (deliveredMessages_ > 0)
        r.latencyMeanNs =
            latSumNs_ / static_cast<double>(deliveredMessages_);
    r.latencyMaxNs = latMaxNs_;
    return r;
}

//
// ---- FlowChurnGen ----
//

FlowChurnGen::FlowChurnGen(sim::Simulation &sim,
                           std::vector<Adapter *> senders,
                           const FlowChurnParams &params)
    : sim_(sim), senders_(std::move(senders)), params_(params),
      addrClock_(senders_.size(), 0)
{
    assert(!senders_.empty() && "flow churn needs a sender");
    assert(params_.dst != invalidNode);
    assert(params_.handlerCpus >= 1);
    if (params_.spacing == 0) {
        const std::uint64_t pkts =
            (params_.packetBytes + params_.mtu - 1) / params_.mtu;
        params_.spacing =
            sim::ns(params_.packetBytes + pkts * headerBytes);
    }
}

void
FlowChurnGen::post(unsigned slot, std::uint64_t flowId, FlowOp op)
{
    std::optional<ActiveHeader> hdr;
    if (params_.active) {
        ActiveHeader h;
        h.handlerId = params_.handlerId;
        h.cpuId = static_cast<std::uint8_t>(flowId %
                                            params_.handlerCpus);
        // Per-sender ATB window: 4096 rotating chunk addresses. The
        // handler frees each chunk after one packet, so at most the
        // switch's buffer quota is ever mapped — reuse is safe.
        h.address = (static_cast<std::uint32_t>(slot) + 1) * 0x01000000u +
                    (addrClock_[slot]++ & 0xFFFu) * 512u;
        hdr = h;
    }
    senders_[slot]->sendMessage(params_.dst, params_.packetBytes, hdr,
                                nullptr, flowTag(flowId, op));
    ++counts_.posted;
    switch (op) {
    case FlowOp::Syn:
        ++counts_.opens;
        ++open_;
        counts_.peakOpen = std::max(counts_.peakOpen, open_);
        break;
    case FlowOp::Data:
        ++counts_.data;
        break;
    case FlowOp::Fin:
        ++counts_.closes;
        if (open_ > 0)
            --open_;
        break;
    }
}

sim::Task
FlowChurnGen::pump(unsigned slot)
{
    const auto nsend = static_cast<std::uint64_t>(senders_.size());
    const std::uint64_t owned =
        params_.flows > slot ? (params_.flows - slot - 1) / nsend + 1
                             : 0;
    const auto baseFlow = [&](std::uint64_t i) {
        return i * nsend + slot;
    };

    // Phase 1: open every owned flow.
    for (std::uint64_t i = 0; i < owned; ++i) {
        post(slot, baseFlow(i), FlowOp::Syn);
        co_await sim::Delay{params_.spacing};
    }

    // Phase 2: data rounds, orphan packets interleaved.
    unsigned orphans = 0;
    for (unsigned r = 0; r < params_.dataRounds; ++r) {
        for (std::uint64_t i = 0; i < owned; ++i) {
            post(slot, baseFlow(i), FlowOp::Data);
            co_await sim::Delay{params_.spacing};
            if (params_.orphanEvery != 0 &&
                (i + 1) % params_.orphanEvery == 0) {
                post(slot, orphanFlowId(slot, orphans), FlowOp::Data);
                ++counts_.orphans;
                ++orphans;
                co_await sim::Delay{params_.spacing};
            }
        }
    }

    // Phase 3: churn — retire a victim, open a replacement, and
    // prove the replacement works with one data packet.
    const std::uint64_t stride = std::max(1u, params_.closeEvery);
    for (unsigned n = 0; n < params_.churnOpens; ++n) {
        const std::uint64_t victim = n * stride;
        if (owned > 0 && victim < owned) {
            post(slot, baseFlow(victim), FlowOp::Fin);
            co_await sim::Delay{params_.spacing};
        }
        post(slot, churnFlowId(slot, n), FlowOp::Syn);
        co_await sim::Delay{params_.spacing};
        post(slot, churnFlowId(slot, n), FlowOp::Data);
        co_await sim::Delay{params_.spacing};
    }
}

void
FlowChurnGen::start()
{
    assert(!started_ && "start() is one-shot");
    started_ = true;
    for (unsigned s = 0; s < senders_.size(); ++s)
        sim_.spawn(pump(s));
}

} // namespace san::net
