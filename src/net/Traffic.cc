#include "net/Traffic.hh"

#include <algorithm>
#include <cassert>

namespace san::net {

using Pattern = TrafficParams::Pattern;

TrafficGen::TrafficGen(sim::Simulation &sim, std::vector<Adapter *> hosts,
                       std::vector<unsigned> hostGroup,
                       const TrafficParams &params)
    : sim_(sim), hosts_(std::move(hosts)),
      hostGroup_(std::move(hostGroup)), params_(params)
{
    assert(hosts_.size() >= 2 && "traffic needs at least two hosts");
    assert(params_.pattern != Pattern::PermutationHotspot ||
           params_.hotMessages <= params_.messages);
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

    // One message's wire time at 1 GB/s (1 byte/ns), headers
    // included: each sender offers exactly its link rate.
    const std::uint64_t mtu = hosts_.front()->mtu();
    const std::uint64_t pkts = (params_.messageBytes + mtu - 1) / mtu;
    spacing_ = sim::ns(params_.messageBytes + pkts * headerBytes);
}

bool
TrafficGen::measured(const Post &post) const
{
    // A PermutationHotspot run with no ring budget is an incast, and
    // is measured as one.
    return params_.pattern != Pattern::PermutationHotspot ||
           post.dst != 0 || params_.messages == params_.hotMessages;
}

unsigned
TrafficGen::messagesFrom(unsigned host) const
{
    const bool hotspot = params_.pattern == Pattern::Incast ||
                         params_.pattern == Pattern::PermutationHotspot;
    return hotspot && host == 0 ? 0 : params_.messages;
}

unsigned
TrafficGen::destination(unsigned host, unsigned j) const
{
    const auto n = static_cast<unsigned>(hosts_.size());
    const auto mix = [&] {
        return detMix64(
            params_.seed ^
            detMix64((static_cast<std::uint64_t>(host) << 32) | j));
    };
    const auto anyButSelf = [&] {
        const auto d = static_cast<unsigned>(mix() % (n - 1));
        return d >= host ? d + 1 : d;
    };

    switch (params_.pattern) {
    case Pattern::Uniform:
        return anyButSelf();
    case Pattern::Permutation: {
        // j is deliberately unused: the permutation is fixed for the
        // whole run, the sustained adversarial load.
        if (groups_ <= 1) {
            const unsigned off =
                1 + static_cast<unsigned>(params_.seed % (n - 1));
            return (host + off) % n;
        }
        const unsigned hop =
            1 + static_cast<unsigned>(params_.seed % (groups_ - 1));
        const auto &target = groupMembers_[(hostGroup_[host] + hop) %
                                           groups_];
        return target[groupRank_[host] % target.size()];
    }
    case Pattern::GroupLocal: {
        const auto &mem = groupMembers_[hostGroup_[host]];
        if (mem.size() <= 1) // degenerate group: fall back
            return anyButSelf();
        auto idx = static_cast<unsigned>(mix() % (mem.size() - 1));
        if (idx >= groupRank_[host])
            ++idx; // skip self within the group
        return mem[idx];
    }
    case Pattern::Incast:
        return 0;
    case Pattern::PermutationHotspot: {
        // Every third message is hot until the hot budget is spent;
        // once the ring budget is spent, the rest are hot too.
        const unsigned hot = params_.hotMessages;
        const unsigned hotBefore = std::min(hot, j / 3);
        if ((hotBefore < hot && (j + 1) % 3 == 0) ||
            j - hotBefore >= params_.messages - hot)
            return 0;
        return host % (n - 1) + 1; // ring over hosts 1..n-1
    }
    }
    return (host + 1) % n; // unreachable
}

void
TrafficGen::post(unsigned host, unsigned j)
{
    const unsigned dst = destination(host, j);
    posts_.push_back(Post{sim_.now(), host, dst});
    hosts_[host]->sendMessage(hosts_[dst]->id(), params_.messageBytes,
                              std::nullopt, nullptr,
                              static_cast<std::uint32_t>(posts_.size()));
}

sim::Task
TrafficGen::drain(Adapter &host, unsigned expected)
{
    for (unsigned i = 0; i < expected; ++i) {
        const Message msg = co_await host.recvQueue().pop();
        if (msg.tag == 0 || msg.tag > posts_.size())
            continue; // not ours
        deliveries_.push_back(
            Delivery{msg.tag, msg.completedAt, msg.bytes});
    }
}

void
TrafficGen::start()
{
    assert(!started_ && "start() is one-shot");
    started_ = true;
    firstPostAt_ = sim_.now();

    // destination() is pure, so per-host delivery expectations are
    // exact: each drain knows precisely how many messages to absorb
    // and the run ends when the last one lands.
    std::vector<unsigned> expected(hosts_.size(), 0);
    std::size_t total = 0;
    for (unsigned h = 0; h < hosts_.size(); ++h) {
        for (unsigned j = 0; j < messagesFrom(h); ++j)
            ++expected[destination(h, j)];
        total += messagesFrom(h);
    }
    posts_.reserve(total);
    deliveries_.reserve(total);

    for (unsigned h = 0; h < hosts_.size(); ++h)
        for (unsigned j = 0; j < messagesFrom(h); ++j)
            sim_.events().schedule(firstPostAt_ + j * spacing_,
                                   [this, h, j] { post(h, j); });

    for (unsigned h = 0; h < hosts_.size(); ++h)
        if (expected[h] > 0)
            sim_.spawn(drain(*hosts_[h], expected[h]));
}

TrafficReport
TrafficGen::report() const
{
    TrafficReport r;
    r.posted = posts_.size();
    r.firstPostAt = firstPostAt_;

    std::vector<std::uint64_t> fairBytes(hosts_.size(), 0);
    std::vector<sim::Tick> fairLast(hosts_.size(), 0);
    sim::Tick latSum = 0;
    sim::Tick latMax = 0;
    std::uint64_t latCount = 0;
    for (const Delivery &d : deliveries_) {
        const Post &p = posts_[d.tag - 1];
        ++r.delivered;
        r.deliveredBytes += d.bytes;
        r.lastDeliveryAt = std::max(r.lastDeliveryAt, d.at);
        if (hostGroup_[p.src] == hostGroup_[p.dst])
            ++r.intraGroup;
        else
            ++r.interGroup;
        if (!measured(p))
            continue;
        r.measuredBytes += d.bytes;
        r.measuredDoneAt = std::max(r.measuredDoneAt, d.at);
        fairBytes[p.src] += d.bytes;
        fairLast[p.src] = std::max(fairLast[p.src], d.at);
        latSum += d.at - p.at;
        latMax = std::max(latMax, d.at - p.at);
        ++latCount;
    }
    if (r.measuredDoneAt == 0)
        r.measuredDoneAt = r.lastDeliveryAt;
    for (const Delivery &d : deliveries_)
        if (d.at <= r.measuredDoneAt)
            r.bytesAtMeasuredDone += d.bytes;

    const auto window =
        static_cast<double>(r.measuredDoneAt - r.firstPostAt);
    if (window > 0) {
        // Ticks are picoseconds: bytes/ps * 1e12 / 1e9 = GB/s.
        r.aggregateGBps =
            static_cast<double>(r.bytesAtMeasuredDone) * 1e3 / window;
        r.goodputGBps =
            static_cast<double>(r.measuredBytes) * 1e3 / window;
    }
    if (latCount > 0)
        r.latencyMeanNs = static_cast<double>(latSum) /
                          static_cast<double>(latCount) / 1e3;
    r.latencyMaxNs = static_cast<double>(latMax) / 1e3;

    // Jain over per-sender goodput: bytes / (own completion window).
    double sum = 0.0, sumSq = 0.0;
    unsigned live = 0;
    for (std::size_t s = 0; s < hosts_.size(); ++s) {
        if (fairBytes[s] == 0)
            continue;
        const auto w = static_cast<double>(fairLast[s] - r.firstPostAt);
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
    assert(params_.spacing > 0);
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
