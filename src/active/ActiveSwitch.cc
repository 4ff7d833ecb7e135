#include "active/ActiveSwitch.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "io/IoRequest.hh"
#include "io/StorageNode.hh"

namespace san::active {

// ---------------------------------------------------------------------
// HandlerContext
// ---------------------------------------------------------------------

HandlerContext::HandlerContext(ActiveSwitch &sw, unsigned cpu_index,
                               std::uint8_t handler_id,
                               std::uint8_t cpu_id)
    : sw_(sw), cpuIndex_(cpu_index), handlerId_(handler_id),
      cpuId_(cpu_id),
      input_(std::make_unique<sim::Channel<StreamChunk>>(sw.sim()))
{}

sim::Simulation &
HandlerContext::sim()
{
    return sw_.sim();
}

cpu::SwitchCpu &
HandlerContext::cpu()
{
    return sw_.cpu(cpuIndex_);
}

sim::ValueTask<StreamChunk>
HandlerContext::nextChunk()
{
    StreamChunk chunk = co_await input_->pop();
    HandlerProfile &prof = sw_.profiles_[handlerId_];
    ++prof.chunks;
    prof.bytes += chunk.bytes;
    liveTelemetry_ = chunk.telemetry;
    co_return chunk;
}

sim::Task
HandlerContext::awaitValid(const StreamChunk &chunk, std::uint32_t offset,
                           std::uint32_t len)
{
    const sim::Tick ready =
        sw_.buffers().validAt(chunk.bufId, offset, len);
    const sim::Tick now = sw_.sim().now();
    if (ready > now)
        co_await sim::Delay{ready - now};
}

sim::Delay
HandlerContext::charge(sim::Delay d, sim::Tick HandlerProfile::*counter)
{
    sw_.profiles_[handlerId_].*counter += d.ticks;
    if (liveTelemetry_)
        liveTelemetry_->noteHandlerTicks(d.ticks);
    return d;
}

sim::Delay
HandlerContext::compute(std::uint64_t instructions)
{
    return charge(cpu().compute(instructions), &HandlerProfile::busyTicks);
}

sim::Delay
HandlerContext::access(mem::Addr addr, std::uint64_t bytes,
                       mem::AccessKind kind)
{
    return charge(cpu().touch(addr, bytes, kind),
                  &HandlerProfile::stallTicks);
}

sim::Delay
HandlerContext::fetchCode(mem::Addr pc, std::uint64_t bytes)
{
    return charge(cpu().fetchCode(pc, bytes), &HandlerProfile::stallTicks);
}

mem::MemorySystem &
HandlerContext::memory()
{
    return cpu().memory();
}

sim::Delay
HandlerContext::stallFor(sim::Tick ticks)
{
    return charge(cpu().stallFor(ticks), &HandlerProfile::stallTicks);
}

void
HandlerContext::deallocateThrough(std::uint32_t end_addr)
{
    auto freed = sw_.atb(cpuIndex_).releaseBelow(end_addr);
    for (unsigned id : freed)
        sw_.releaseBuffer(id);
    if (!freed.empty())
        sw_.retryPending();
}

void
HandlerContext::deallocateOne(std::uint32_t base)
{
    auto xlate = sw_.atb(cpuIndex_).translate(base);
    if (!xlate)
        return;
    sw_.atb(cpuIndex_).release(base);
    sw_.releaseBuffer(xlate->first);
    sw_.retryPending();
}

sim::Task
HandlerContext::send(net::NodeId dst, std::uint64_t bytes,
                     std::optional<net::ActiveHeader> active,
                     net::PayloadPtr payload, std::uint32_t tag)
{
    // Compose the header and hand the buffer to the Send unit.
    co_await charge(cpu().busyFor(sw_.config().sendLatency),
                    &HandlerProfile::busyTicks);
    sw_.sendUnit(dst, bytes, active, std::move(payload), tag);
}

sim::Task
HandlerContext::postRead(net::NodeId storage, std::uint64_t offset,
                         std::uint64_t bytes, net::NodeId reply_to,
                         std::optional<net::ActiveHeader> reply_active)
{
    // The small run-time kernel on the switch validates and posts
    // the request (the paper's "modest kernel support").
    co_await charge(cpu().busyFor(sim::us(1)), &HandlerProfile::busyTicks);
    io::IoRequest req;
    req.requestId = sw_.nextMessageId();
    req.offset = offset;
    req.bytes = bytes;
    req.replyTo = reply_to;
    req.replyActive = reply_active;
    sw_.sendUnit(storage, io::requestMessageBytes, std::nullopt,
                 io::makeRequestPayload(req), io::tagIoRequest);
}

// ---------------------------------------------------------------------
// ActiveSwitch
// ---------------------------------------------------------------------

ActiveSwitch::ActiveSwitch(sim::Simulation &sim, std::string name,
                           net::NodeId id,
                           const net::SwitchParams &params,
                           const ActiveConfig &config)
    : net::Switch(sim, std::move(name), id, params), config_(config),
      pool_(config.buffers), cpuLoad_(config.cpus, 0),
      bufOwner_(config.buffers.count)
{
    assert(config_.cpus >= 1 && config_.cpus <= 4);
    atbs_.reserve(config_.cpus);
    cpus_.reserve(config_.cpus);
    for (unsigned i = 0; i < config_.cpus; ++i) {
        atbs_.emplace_back(config_.atbEntries, config_.buffers.bytes);
        auto mem_params = config_.cpuMem;
        mem_params.name = this->name() + ".sp" + std::to_string(i);
        cpus_.push_back(std::make_unique<cpu::SwitchCpu>(
            sim, mem_params.name, mem_params, config_.cpuHz));
    }
    if (fault::FaultPlan *plan = sim.context().faults) {
        crashSite_ =
            plan->site(fault::FaultKind::HandlerCrash, this->name());
        rel_ = std::make_unique<fault::ReliableChannel>(
            sim, this->name(), id,
            [this](net::Packet pkt) { inject(std::move(pkt)); });
    }
}

void
ActiveSwitch::registerHandler(std::uint8_t handler_id, std::string name,
                              HandlerFn fn)
{
    assert(handler_id <= net::maxHandlerId);
    HandlerProfile &prof = profiles_[handler_id];
    prof.id = handler_id;
    prof.name = name;
    if (jumpTable_.empty())
        jumpTable_.resize(net::maxHandlerId + 1);
    jumpTable_[handler_id] = JumpEntry{std::move(name), std::move(fn)};
}

void
ActiveSwitch::registerMetrics(obs::MetricsRegistry &m) const
{
    // Transit-path gauges first: the active hardware rides on top of
    // whatever queueing policy the crossbar runs (non-default
    // policies only; see Switch::registerMetrics).
    net::Switch::registerMetrics(m);
    const std::string &n = name();
    m.add(n + ".dispatchQueue", obs::GaugeKind::Gauge,
          [this] { return static_cast<double>(pending_); });
    m.add(n + ".chunksStaged", obs::GaugeKind::Rate,
          [this] { return static_cast<double>(staged_); });
    m.add(n + ".dispatchStalls", obs::GaugeKind::Rate,
          [this] { return static_cast<double>(dispatchStalls_); });
    pool_.registerMetrics(m, n + ".buffers");
    for (unsigned i = 0; i < config_.cpus; ++i) {
        const std::string cpu_prefix = n + ".sp" + std::to_string(i);
        cpus_[i]->registerMetrics(m, cpu_prefix);
        atbs_[i].registerMetrics(m, cpu_prefix + ".atb");
    }
}

void
ActiveSwitch::deliverLocal(net::Arrival &&arrival)
{
    // Control packets are consumed inside the recovery protocol —
    // that is their delivery point. Data packets count as delivered
    // only once staged (tryStage), past the corrupt/duplicate filter.
    if (arrival.pkt.telemetry &&
        arrival.pkt.kind != net::PacketKind::Data)
        arrival.pkt.telemetry->noteDelivered(sim_.now());

    // Recovery protocol first: it consumes ACK/NACK control packets
    // addressed to the switch, corrupted packets and duplicates, so a
    // handler sees every chunk exactly once.
    if (rel_ && rel_->onArrival(arrival))
        return;
    if (!arrival.pkt.active) {
        sim_.warn(name(), "non-active packet addressed to switch; dropped");
        return;
    }
    // The Dispatch unit decodes the header and consults the jump
    // table in parallel with the payload copy into a data buffer.
    // The arrival moves into the event slot; dispatch() takes it by
    // value so a stalled arrival moves on into the pending queue.
    if (auto *tr = sim_.tracer())
        tr->span(name(), "dispatch", sim_.now(),
                 sim_.now() + config_.dispatchLatency);
    sim_.events().after(config_.dispatchLatency,
                        [this, a = std::move(arrival)]() mutable {
                            dispatch(std::move(a));
                        });
}

void
ActiveSwitch::dispatch(net::Arrival arrival)
{
    // Arrivals must stay ordered within one handler instance's
    // stream, so if that instance already has packets waiting for
    // buffers, queue behind them without trying to stage.
    const InstanceKey key{arrival.pkt.activeHdr.handlerId,
                          arrival.pkt.activeHdr.cpuId};
    auto q = std::find_if(waiting_.begin(), waiting_.end(),
                          [&key](const WaitQueue &w) {
                              return w.key == key;
                          });
    if (q == waiting_.end()) {
        if (tryStage(arrival))
            return;
        q = waiting_.insert(waiting_.end(), WaitQueue{key, {}});
    }
    ++dispatchStalls_;
    if (auto *tr = sim_.tracer())
        tr->instant(name(), "dispatch-stall", sim_.now());
    q->arrivals.emplace_back(arrivalsQueued_++, std::move(arrival));
    ++pending_;
}

void
ActiveSwitch::retryPending()
{
    // Streams are independent: a stalled instance (out of buffers or
    // ATB slots) must not block other instances' packets — only
    // per-instance order is preserved. Across instances the oldest
    // waiting arrival goes first, so attempts run in the order of one
    // shared arrival queue scanned front to back, skipping instances
    // that failed. That order matters: staging can start an instance
    // and so shrink every instance's buffer quota.
    for (WaitQueue &q : waiting_)
        q.blocked = false;
    for (;;) {
        WaitQueue *oldest = nullptr;
        for (WaitQueue &q : waiting_) {
            if (q.blocked)
                continue;
            if (oldest == nullptr ||
                q.arrivals.front().first < oldest->arrivals.front().first)
                oldest = &q;
        }
        if (oldest == nullptr)
            return;
        if (!tryStage(oldest->arrivals.front().second)) {
            oldest->blocked = true;
            continue;
        }
        oldest->arrivals.pop_front();
        --pending_;
        if (oldest->arrivals.empty()) {
            if (oldest != &waiting_.back())
                *oldest = std::move(waiting_.back());
            waiting_.pop_back();
        }
    }
}

bool
ActiveSwitch::tryStage(const net::Arrival &arrival)
{
    const net::Packet &pkt = arrival.pkt;
    const std::uint8_t hid = pkt.activeHdr.handlerId;
    if (hid >= jumpTable_.size() || !jumpTable_[hid]) {
        ++dropped_;
        const std::uint64_t bit = 1ull << (hid & 63u);
        if (!(warnedHandlers_ & bit)) {
            warnedHandlers_ |= bit;
            sim_.warn(name(), "no handler registered for id ",
                      static_cast<int>(hid),
                      "; dropping its packets (warned once per id, "
                      "counted in droppedPackets)");
        }
        return true; // drop rather than wedge the pending queue
    }

    Instance &inst = instanceFor(pkt);

    // Fair share: one stream's backlog must not monopolize the
    // buffer pool and starve the other switch CPUs' streams.
    if (inst.heldBuffers >= bufferQuota())
        return false;

    auto buf = pool_.allocate();
    if (!buf)
        return false;

    const std::uint32_t chunk_addr =
        pkt.activeHdr.address +
        pkt.seq * static_cast<std::uint32_t>(pool_.params().bytes);
    if (!atb(inst.cpuIndex).map(chunk_addr, *buf)) {
        pool_.release(*buf);
        return false;
    }

    // Payload streams in at the wire rate; recover it from the
    // arrival timestamps so any link speed works.
    if (pkt.payloadBytes > 0) {
        const double ps_per_byte =
            static_cast<double>(arrival.end - arrival.start) /
            static_cast<double>(pkt.wireBytes());
        const sim::Tick payload_first =
            arrival.start +
            static_cast<sim::Tick>(net::headerBytes * ps_per_byte);
        pool_.fill(*buf, payload_first, pkt.payloadBytes, ps_per_byte);
    } else {
        pool_.fillLocal(*buf, 0, sim_.now());
    }

    bufOwner_[*buf] = InstanceKey{pkt.activeHdr.handlerId,
                                  pkt.activeHdr.cpuId};
    ++inst.heldBuffers;

    StreamChunk chunk;
    chunk.address = chunk_addr;
    chunk.bytes = pkt.payloadBytes;
    chunk.bufId = *buf;
    chunk.src = pkt.src;
    chunk.tag = pkt.tag;
    chunk.payload = pkt.payload;
    chunk.lastOfMessage = pkt.last;
    chunk.messageBytes = pkt.messageBytes;
    if (pkt.telemetry) {
        // Staged into a data buffer = delivered to the active layer;
        // handler CPU time charged later accrues via the chunk copy.
        const sim::Tick now = sim_.now();
        pkt.telemetry->noteDelivered(now);
        chunk.telemetry = pkt.telemetry;
        if (auto *tr = sim_.tracer()) {
            tr->span(name(), "stage", now, now);
            tr->flowEnd(name(), "lineage", pkt.telemetry->uid, now);
        }
    }
    inst.ctx->input_->push(std::move(chunk));
    ++staged_;
    return true;
}

ActiveSwitch::Instance &
ActiveSwitch::instanceFor(const net::Packet &pkt)
{
    const InstanceKey key{pkt.activeHdr.handlerId, pkt.activeHdr.cpuId};
    auto it = instances_.find(key);
    if (it != instances_.end())
        return it->second;

    const unsigned cpu_index = pickCpu(pkt.activeHdr.cpuId);
    Instance inst;
    inst.handlerId = key.first;
    inst.cpuId = key.second;
    inst.cpuIndex = cpu_index;
    inst.ctx = std::make_unique<HandlerContext>(
        *this, cpu_index, key.first, key.second);
    auto [pos, inserted] = instances_.emplace(key, std::move(inst));
    assert(inserted);
    ++cpuLoad_[cpu_index];
    ++invoked_;
    ++profiles_[key.first].invocations;
    if (auto *tr = sim_.tracer())
        traceInstance(*tr, sim::TracePhase::AsyncBegin, key, cpu_index);
    sim_.spawn(runInstance(key, jumpTable_[key.first]->fn));
    return pos->second;
}

unsigned
ActiveSwitch::pickCpu(std::uint8_t cpu_id)
{
    if (cpuCount() > 1)
        return cpu_id % cpuCount();
    return 0;
}

sim::Task
ActiveSwitch::runInstance(InstanceKey key, HandlerFn fn)
{
    // Crash injection happens at instance launch (the handler faults
    // in its prologue, before consuming any stream state): the
    // dispatch unit's watchdog notices the dead instance and
    // relaunches it on the next switch CPU. Chunks staged meanwhile
    // queue in the instance channel, so no stream data is lost.
    if (crashSite_ != nullptr) {
        const std::string handler = std::to_string(key.first);
        unsigned crashes = 0;
        while (crashes < fault::maxFailovers &&
               crashSite_->hits(sim_.now(), handler)) {
            ++crashes;
            ++failovers_;
            Instance &inst = instances_.at(key);
            sim_.warn(name(), "handler ",
                      static_cast<int>(key.first), " crashed on sp",
                      inst.cpuIndex, "; failing over (attempt ",
                      crashes, ")");
            if (auto *tr = sim_.tracer())
                traceInstance(*tr, sim::TracePhase::AsyncEnd, key,
                              inst.cpuIndex, true);
            --cpuLoad_[inst.cpuIndex];
            inst.cpuIndex = (inst.cpuIndex + 1) % cpuCount();
            inst.ctx->cpuIndex_ = inst.cpuIndex;
            ++cpuLoad_[inst.cpuIndex];
            co_await sim::Delay{fault::failoverLatency};
            if (auto *tr = sim_.tracer())
                traceInstance(*tr, sim::TracePhase::AsyncBegin, key,
                              inst.cpuIndex);
        }
    }
    // The instance entry outlives the handler body (std::map nodes
    // are stable); it is reaped here once the handler returns.
    co_await fn(*instances_.at(key).ctx);
    auto it = instances_.find(key);
    assert(it != instances_.end());
    --cpuLoad_[it->second.cpuIndex];
    if (auto *tr = sim_.tracer())
        traceInstance(*tr, sim::TracePhase::AsyncEnd, key,
                      it->second.cpuIndex);
    instances_.erase(it);
}

void
ActiveSwitch::traceInstance(sim::Tracer &tr, sim::TracePhase phase,
                            InstanceKey key, unsigned cpu_index,
                            bool crashed) const
{
    const std::string track =
        name() + ".sp" + std::to_string(cpu_index);
    const sim::Tick now = sim_.now();
    if (crashed)
        tr.instant(track, "handler-crash", now);
    tr.emit(track, {phase, jumpTable_[key.first]->name.c_str(), now, 0,
                    (std::uint64_t(key.first) << 8) | key.second});
}

void
ActiveSwitch::releaseBuffer(unsigned buf_id)
{
    if (bufOwner_[buf_id]) {
        auto it = instances_.find(*bufOwner_[buf_id]);
        if (it != instances_.end() && it->second.heldBuffers > 0)
            --it->second.heldBuffers;
        bufOwner_[buf_id].reset();
    }
    pool_.release(buf_id);
}

unsigned
ActiveSwitch::bufferQuota() const
{
    const unsigned live =
        std::max<unsigned>(1, static_cast<unsigned>(instances_.size()));
    return std::max(2u, pool_.params().count / live);
}

void
ActiveSwitch::sendUnit(net::NodeId dst, std::uint64_t bytes,
                       std::optional<net::ActiveHeader> active,
                       net::PayloadPtr payload, std::uint32_t tag)
{
    net::packetize(id(), dst, bytes, active, std::move(payload), tag,
                   nextMessageId(), pool_.params().bytes,
                   sim_.context().telemetry, sim_.now(),
                   [this](net::Packet &&pkt) {
                       if (rel_)
                           rel_->send(std::move(pkt));
                       else
                           inject(std::move(pkt));
                   });
}

} // namespace san::active
