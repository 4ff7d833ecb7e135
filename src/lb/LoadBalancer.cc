#include "lb/LoadBalancer.hh"

#include <cassert>
#include <string>

#include "apps/DetHash.hh"
#include "fault/FaultPlan.hh"
#include "host/Host.hh"

namespace san::lb {

LoadBalancer::LoadBalancer(const LbParams &params,
                           std::vector<net::NodeId> backend_nodes,
                           net::NodeId punt_node,
                           fault::FaultPlan *faults)
    : params_(params), backendNodes_(std::move(backend_nodes)),
      puntNode_(punt_node), table_(params.table),
      maglev_(params.backends, params.hashSeed, params.maglevSize)
{
    assert(backendNodes_.size() == params_.backends);
    counters_.backendPackets.assign(params_.backends, 0);
    if (faults != nullptr) {
        downSite_ = faults->site(fault::FaultKind::BackendDown, "lb");
        upSite_ = faults->site(fault::FaultKind::BackendUp, "lb");
    }
}

void
LoadBalancer::pollFaultEvents(sim::Tick now)
{
    // Targets are backend indices as decimal strings, mirroring how
    // handler-crash events name handler ids.
    if (downSite_ != nullptr)
        for (unsigned b = 0; b < params_.backends; ++b)
            if (downSite_->hits(now, std::to_string(b)) &&
                maglev_.setAlive(b, false))
                ++counters_.backendDownEvents;
    if (upSite_ != nullptr)
        for (unsigned b = 0; b < params_.backends; ++b)
            if (upSite_->hits(now, std::to_string(b)) &&
                maglev_.setAlive(b, true))
                ++counters_.backendUpEvents;
}

LoadBalancer::Action
LoadBalancer::processPacket(std::uint32_t tag, sim::Tick now)
{
    pollFaultEvents(now);

    Action act;
    const std::uint64_t flowId = net::flowTagId(tag);
    const net::FlowOp op = net::flowTagOp(tag);
    const net::FiveTuple t = net::lfsrTuple(params_.tupleSeed, flowId);
    const std::uint64_t sig =
        apps::detTupleHash(params_.hashSeed, t.w0(), t.w1());

    ++counters_.lookups;
    // Every packet reads its hot set: one D$ line of ways.
    act.add(ConnTable::hotSetAddr(sig),
            sizeof(HotEntry) * HotIndex::kWays, mem::AccessKind::Load);

    if (op == net::FlowOp::Syn) {
        const std::uint8_t b = maglev_.pick(sig);
        act.add(maglev_.pickAddr(sig), 1, mem::AccessKind::Load);
        if (b == Maglev::kNone) {
            ++counters_.insertFailures;
            punt(act);
            return act;
        }
        const auto ir = table_.insert(sig, b);
        act.add(ConnTable::tableAddr(ir.firstBucket),
                ir.probes * sizeof(TableEntry), mem::AccessKind::Load);
        if (!ir.ok) {
            ++counters_.insertFailures;
            punt(act);
            return act;
        }
        act.add(ConnTable::tableAddr(ir.firstBucket),
                sizeof(TableEntry), mem::AccessKind::Store);
        act.add(ConnTable::hotSetAddr(sig), sizeof(HotEntry),
                mem::AccessKind::Store);
        if (!ir.existed) {
            ++counters_.inserts;
            counters_.peakFlows =
                std::max(counters_.peakFlows, table_.live());
        }
        forward(act, b);
        return act;
    }

    // DATA / FIN: look the connection up.
    auto lr = table_.lookup(sig);
    if (lr.probes > 0)
        act.add(ConnTable::tableAddr(lr.firstBucket),
                lr.probes * sizeof(TableEntry), mem::AccessKind::Load);
    if (lr.hotInstalled)
        act.add(ConnTable::hotSetAddr(sig), sizeof(HotEntry),
                mem::AccessKind::Store);
    if (!lr.hit) {
        ++counters_.misses;
        punt(act);
        return act;
    }
    if (lr.hotHit)
        ++counters_.hotHits;
    else
        ++counters_.tableHits;

    std::uint8_t b = lr.backend;
    if (!maglev_.alive(b)) {
        // Sticky backend died: lazily migrate this flow to a fresh
        // consistent-hash pick. Alive flows on other backends are
        // untouched — that is the consistency-under-churn invariant.
        const std::uint8_t nb = maglev_.pick(sig);
        act.add(maglev_.pickAddr(sig), 1, mem::AccessKind::Load);
        if (nb == Maglev::kNone) {
            if (op == net::FlowOp::Fin && table_.remove(sig).removed)
                ++counters_.removes;
            ++counters_.misses;
            punt(act);
            return act;
        }
        table_.reassign(sig, nb);
        act.add(ConnTable::tableAddr(lr.firstBucket),
                sizeof(TableEntry), mem::AccessKind::Store);
        ++counters_.migrations;
        b = nb;
    }

    if (op == net::FlowOp::Fin) {
        if (table_.remove(sig).removed)
            ++counters_.removes;
        act.add(ConnTable::tableAddr(lr.firstBucket),
                sizeof(TableEntry), mem::AccessKind::Store);
    }
    forward(act, b);
    return act;
}

sim::Task
LoadBalancer::handlerBody(active::HandlerContext &ctx)
{
    // Runs forever: the instance keeps its stream open for the whole
    // run (Host::demux precedent — suspended at simulation end).
    for (;;) {
        active::StreamChunk chunk = co_await ctx.nextChunk();
        co_await ctx.awaitValid(
            chunk, 0, std::min<std::uint32_t>(chunk.bytes, 64));

        sim::Tick cost = ctx.fetchCode(kCodeAddr, params_.codeBytes).ticks;
        cost += ctx.compute(params_.instructions).ticks;

        const Action act =
            processPacket(chunk.tag, ctx.sim().now());

        // Charge the table's memory traffic through the switch D$,
        // batched into one await (the stall is accounted per op).
        sim::Tick lookup_cost = 0;
        for (unsigned i = 0; i < act.opCount; ++i)
            lookup_cost += ctx.access(act.ops[i].addr, act.ops[i].bytes,
                                      act.ops[i].kind)
                               .ticks;
        cost += lookup_cost;
        if (chunk.telemetry)
            chunk.telemetry->noteLbLookup(lookup_cost);
        co_await sim::Delay{cost};

        if (act.punt)
            co_await ctx.send(puntNode_, chunk.bytes, std::nullopt,
                              chunk.payload, chunk.tag);
        else
            co_await ctx.send(backendNodes_[act.backend], chunk.bytes,
                              std::nullopt, chunk.payload, chunk.tag);
        ctx.deallocateOne(chunk.address);
    }
}

active::HandlerFn
LoadBalancer::makeHandler()
{
    return [this](active::HandlerContext &ctx) {
        return handlerBody(ctx);
    };
}

sim::Task
LoadBalancer::hostDrain(host::Host &lb_host)
{
    for (;;) {
        net::Message msg = co_await lb_host.appQueue().pop();
        cpu::HostCpu &cpu = lb_host.cpu();

        sim::Tick cost =
            cpu.fetchCode(kCodeAddr, params_.codeBytes).ticks;
        cost += cpu.compute(params_.instructions +
                            params_.hostExtraInstructions)
                    .ticks;

        const Action act = processPacket(msg.tag, cpu.now());
        for (unsigned i = 0; i < act.opCount; ++i)
            cost += cpu.touch(act.ops[i].addr, act.ops[i].bytes,
                              act.ops[i].kind)
                        .ticks;
        if (act.punt) {
            // The baseline host IS the fallback: unknown connections
            // are serviced right here instead of being forwarded.
            cost += cpu.compute(params_.puntInstructions).ticks;
        }
        co_await sim::Delay{cost};
        if (!act.punt) {
            co_await cpu.compute(32); // descriptor post
            lb_host.hca().sendMessage(backendNodes_[act.backend],
                                      msg.bytes, std::nullopt,
                                      msg.payload, msg.tag);
        }
    }
}

void
LoadBalancer::fillStats(apps::LbStats &out) const
{
    out = counters_;
    out.active = true;
    out.flowsTracked = table_.live();
    out.hotBytes = ConnTable::hotBytes();
    out.tableBytes = table_.memoryBytes();
    out.tableCapacity = table_.capacity();
    out.backendsAlive = maglev_.aliveCount();
    out.occupancy = static_cast<double>(table_.live()) /
                    static_cast<double>(table_.capacity());
}

} // namespace san::lb
