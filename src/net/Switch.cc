#include "net/Switch.hh"

#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "sim/Log.hh"

namespace san::net {

namespace {

/** The stock configuration the SAN_FORCE_SWITCH_POLICY override may
 * replace. Explicitly configured policies always win: a test that
 * asks for a bounded FIFO keeps it even under a forced-VOQ matrix. */
bool
isStockPolicy(const SwitchPolicyConfig &cfg)
{
    return cfg.kind == SwitchPolicyKind::CentralOutput &&
           cfg.sharedCapacityCells == 0;
}

SwitchPolicyConfig
resolvePolicy(const SwitchPolicyConfig &cfg, const std::string &name)
{
    if (!isStockPolicy(cfg))
        return cfg;
    if (const char *env = std::getenv("SAN_FORCE_SWITCH_POLICY")) {
        if (auto forced = parsePolicySpec(env))
            return *forced;
        sim::logAt(sim::LogLevel::Warn, name, 0,
                   "ignoring unparseable SAN_FORCE_SWITCH_POLICY: ",
                   env);
    }
    return cfg;
}

} // namespace

Switch::Switch(sim::Simulation &sim, std::string name, NodeId id,
               const SwitchParams &params)
    : sim_(sim), name_(std::move(name)), id_(id), params_(params),
      ports_(params.ports)
{
    params_.policy = resolvePolicy(params.policy, name_);
    policy_ = makeQueueingPolicy(*this, params_.policy);
}

void
Switch::attachPort(unsigned port, Link &out, Link &in)
{
    if (port >= ports_.size())
        throw std::out_of_range(name_ + ": attachPort(" +
                                std::to_string(port) + ") beyond " +
                                std::to_string(ports_.size()) +
                                " ports");
    if (ports_[port].out != nullptr || ports_[port].in != nullptr)
        throw std::logic_error(name_ + ": port " +
                               std::to_string(port) +
                               " is already wired");
    ports_[port].out = &out;
    ports_[port].in = &in;
    in.setSink([this, port](Arrival &&arrival) {
        receive(port, std::move(arrival));
    });
    policy_->portAttached(port);
}

void
Switch::setRoute(NodeId dst, unsigned port)
{
    if (port >= ports_.size())
        throw std::out_of_range(name_ + ": setRoute to port " +
                                std::to_string(port) + " beyond " +
                                std::to_string(ports_.size()) +
                                " ports");
    routes_.set(dst, port);
}

bool
Switch::hasRoute(NodeId dst) const
{
    return routes_.find(dst) != nullptr;
}

unsigned
Switch::route(NodeId dst) const
{
    const unsigned *port = routes_.find(dst);
    assert(port != nullptr && "no route to destination");
    return *port;
}

void
Switch::inject(Packet pkt)
{
    const unsigned port = route(pkt.dst);
    // Local injections enter the policy on the virtual local input
    // port: the Send unit contends for outputs like any input would.
    const sim::Tick now = sim_.now();
    if (auto *tel = sim_.context().telemetry)
        tel->countPacket(pkt.src, pkt.dst, pkt.wireBytes());
    if (pkt.telemetry)
        pkt.telemetry->noteSwitchIngress(id_, now);
    policy_->ingress(params_.ports, port,
                     Arrival{std::move(pkt), now, now});
}

void
Switch::receive(unsigned port, Arrival &&arrival)
{
    // Route after the fixed routing latency. Local deliveries drain
    // input staging right here (credit back, then dispatch); transit
    // cells are handed to the queueing policy, which owns the
    // credit-return point from there on. The arrival is moved into
    // the event slot and moved out on forward, never copied.
    sim_.events().after(
        params_.routingLatency,
        [this, port, a = std::move(arrival)]() mutable {
            if (auto *tel = sim_.context().telemetry)
                tel->countPacket(a.pkt.src, a.pkt.dst,
                                 a.pkt.wireBytes());
            if (a.pkt.dst == id_) {
                ports_[port].in->returnCredit();
                ++local_;
                // Terminal hop: locally-delivered packets get the
                // same ingress stamp transit cells do, so the final
                // (handler) hop shows up in the latency lineage.
                // noteDelivered() closes it.
                if (a.pkt.telemetry)
                    a.pkt.telemetry->noteSwitchIngress(id_,
                                                       sim_.now());
                deliverLocal(std::move(a));
                return;
            }
            ++routed_;
            if (a.pkt.telemetry)
                a.pkt.telemetry->noteSwitchIngress(id_, sim_.now());
            const unsigned out_port = route(a.pkt.dst);
            policy_->ingress(port, out_port, std::move(a));
        });
}

void
Switch::registerMetrics(obs::MetricsRegistry &m) const
{
    if (!policy_->isPassthrough())
        policy_->registerMetrics(m, name_ + ".policy");
}

void
Switch::deliverLocal(Arrival &&arrival)
{
    sim::logAt(sim::LogLevel::Warn, name_, sim_.now(),
               "dropping local packet from node ", arrival.pkt.src,
               " (non-active switch)");
}

} // namespace san::net
