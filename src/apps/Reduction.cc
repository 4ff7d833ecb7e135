#include "apps/Reduction.hh"

#include <cassert>
#include <memory>

#include "active/ActiveSwitch.hh"
#include "apps/DetHash.hh"
#include "apps/StreamCommon.hh"
#include "host/Host.hh"
#include "net/Fabric.hh"
#include "obs/Fingerprint.hh"
#include "sim/Simulation.hh"

namespace san::apps {

namespace {

using Vec = std::vector<std::int32_t>;
using VecPtr = std::shared_ptr<const Vec>;

/** Elementwise a += b. */
void
addInto(Vec &a, const Vec &b)
{
    assert(a.size() == b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] += b[i];
}

/** The reduction system: hosts + a tree of active-capable switches. */
struct ReduceSystem {
    sim::Simulation sim;
    net::Fabric fabric{sim};
    std::vector<host::Host *> hosts;
    std::vector<active::ActiveSwitch *> switches;

    struct SwInfo {
        int parent = -1;          //!< switch index of parent
        unsigned childOrdinal = 0; //!< position among parent children
        unsigned children = 0;    //!< hosts (leaf) or switches (inner)
        bool leaf = false;
    };
    std::vector<SwInfo> info;
    std::vector<unsigned> hostLeaf;     //!< leaf switch per host
    std::vector<unsigned> hostChildIdx; //!< ordinal among leaf children
    unsigned root = 0;

    explicit ReduceSystem(const ReductionParams &p) : sim(p.run)
    {
        const unsigned leaves =
            (p.nodes + p.hostsPerLeaf - 1) / p.hostsPerLeaf;
        // Leaf switches and their hosts.
        for (unsigned l = 0; l < leaves; ++l) {
            switches.push_back(&fabric.addSwitch<active::ActiveSwitch>(
                net::SwitchParams{p.switchPorts}, p.switchConfig));
            info.push_back(SwInfo{-1, 0, 0, true});
        }
        for (unsigned n = 0; n < p.nodes; ++n) {
            const unsigned leaf = n / p.hostsPerLeaf;
            auto *h = new host::Host(sim, "node" + std::to_string(n),
                                     fabric);
            hosts.push_back(h);
            const unsigned ordinal = info[leaf].children++;
            fabric.connect(*switches[leaf], ordinal, h->hca());
            hostLeaf.push_back(leaf);
            hostChildIdx.push_back(ordinal);
        }
        // Inner levels: arity hostsPerLeaf, uplink on the last port.
        std::vector<unsigned> level;
        for (unsigned l = 0; l < leaves; ++l)
            level.push_back(l);
        while (level.size() > 1) {
            std::vector<unsigned> next;
            for (std::size_t g = 0; g < level.size();
                 g += p.hostsPerLeaf) {
                switches.push_back(
                    &fabric.addSwitch<active::ActiveSwitch>(
                        net::SwitchParams{p.switchPorts},
                        p.switchConfig));
                info.push_back(SwInfo{-1, 0, 0, false});
                const unsigned parent =
                    static_cast<unsigned>(switches.size() - 1);
                for (std::size_t c = g;
                     c < std::min(level.size(),
                                  g + p.hostsPerLeaf);
                     ++c) {
                    const unsigned child = level[c];
                    const unsigned ordinal = info[parent].children++;
                    fabric.connectSwitches(*switches[parent], ordinal,
                                           *switches[child],
                                           p.switchPorts - 1);
                    info[child].parent = static_cast<int>(parent);
                    info[child].childOrdinal = ordinal;
                }
                next.push_back(parent);
            }
            level = next;
        }
        root = level[0];
        fabric.computeRoutes();
        for (auto *h : hosts)
            h->start();

        // Threaded run: one shard per switch, hosts riding with
        // their leaf, so only the inter-switch tree cables cross
        // shards. The partition depends on the topology alone, never
        // on p.threads, which is what keeps N-thread fingerprints
        // stable across N. (The demux tasks started above schedule
        // nothing until traffic arrives, so they may stay on shard 0.)
        if (p.threads > 1)
            fabric.applyShardPlan(fabric.planShards(switches.size()));
    }

    ~ReduceSystem()
    {
        for (auto *h : hosts)
            delete h;
    }
};

/**
 * Address stride between child vectors: mapping addresses must be
 * data-buffer (512 B) aligned so each child occupies whole buffers.
 */
std::uint32_t
mapStride(const ReductionParams &p)
{
    return (p.vectorBytes + 511) / 512 * 512;
}

std::string
vecChecksum(const Vec &v)
{
    if (v.empty())
        return "empty";
    std::int64_t sum = 0;
    for (auto x : v)
        sum += x;
    return std::to_string(v.front()) + "/" + std::to_string(v.back()) +
           "/" + std::to_string(sum);
}

} // namespace

Vec
nodeVector(const ReductionParams &p, unsigned node)
{
    const unsigned elements = p.vectorBytes / p.elementBytes;
    Vec v(elements);
    for (unsigned e = 0; e < elements; ++e)
        v[e] = static_cast<std::int32_t>(
            detHash(p.seed, node * elements + e) % 1000);
    return v;
}

Vec
reduceReference(const ReductionParams &p)
{
    Vec sum(p.vectorBytes / p.elementBytes, 0);
    for (unsigned n = 0; n < p.nodes; ++n)
        addInto(sum, nodeVector(p, n));
    return sum;
}

ReductionRun
runReduction(bool active, ReduceKind kind, const ReductionParams &p)
{
    ReduceSystem sys(p);
    const unsigned elements = p.vectorBytes / p.elementBytes;
    const Vec reference = reduceReference(p);

    // What each host ends up holding.
    auto results = std::make_shared<std::vector<Vec>>(p.nodes);

    obs::ShardedFingerprint fp;
    fp.attach(sys.sim);

    if (!active) {
        // ---- Binomial (MST) software reduction -------------------
        unsigned rounds = 0;
        while ((1u << rounds) < p.nodes)
            ++rounds;

        for (unsigned n = 0; n < p.nodes; ++n) {
            sim::ShardGuard guard(sys.sim,
                                  sys.fabric.shardOf(sys.hosts[n]->hca()));
            sys.sim.spawn([](ReduceSystem &s, const ReductionParams &pp,
                             unsigned self, unsigned n_rounds,
                             ReduceKind k,
                             std::shared_ptr<std::vector<Vec>> out)
                              -> sim::Task {
                host::Host &me = *s.hosts[self];
                const unsigned elems = pp.vectorBytes / pp.elementBytes;
                Vec acc = nodeVector(pp, self);

                // Pairwise-exchange machinery shared by the
                // reduce-scatter (Distributed) and recursive-doubling
                // (ToAll) algorithms: rounds from different partners
                // can arrive out of order, so messages carry their
                // round number and strays are stashed.
                struct RoundMsg {
                    unsigned round;
                    Vec slice;
                };
                std::vector<std::shared_ptr<const RoundMsg>> stash;
                auto recv_round =
                    [&](unsigned want)
                    -> sim::ValueTask<std::shared_ptr<const RoundMsg>> {
                    for (;;) {
                        for (std::size_t i = 0; i < stash.size(); ++i) {
                            if (stash[i]->round == want) {
                                auto m = stash[i];
                                stash.erase(stash.begin() +
                                            static_cast<long>(i));
                                co_return m;
                            }
                        }
                        net::Message msg = co_await me.recv();
                        auto m = std::static_pointer_cast<
                            const RoundMsg>(msg.payload);
                        if (m->round == want)
                            co_return m;
                        stash.push_back(m);
                    }
                };

                if (k == ReduceKind::ToAll) {
                    // Recursive doubling: log2(p) rounds of full
                    // pairwise exchange; every node ends with the
                    // complete result vector.
                    unsigned round = 0;
                    for (unsigned bit = 1; bit < pp.nodes; bit <<= 1) {
                        const unsigned partner = self ^ bit;
                        auto out_msg = std::make_shared<RoundMsg>();
                        out_msg->round = round;
                        out_msg->slice = acc;
                        co_await me.cpu().compute(
                            pp.sendProtocolInstr);
                        co_await me.send(s.hosts[partner]->id(),
                                         pp.vectorBytes, std::nullopt,
                                         out_msg, tagData);
                        auto in_msg = co_await recv_round(round);
                        co_await me.cpu().compute(
                            pp.recvProtocolInstr);
                        const mem::Addr buf =
                            me.allocBuffer(pp.vectorBytes);
                        co_await me.cpu().touch(
                            buf, pp.vectorBytes, mem::AccessKind::Load);
                        co_await me.cpu().compute(
                            elems * pp.addInstrPerElement);
                        addInto(acc, in_msg->slice);
                        ++round;
                    }
                    (*out)[self] = std::move(acc);
                    co_return;
                }

                if (k == ReduceKind::Distributed) {
                    // Recursive-halving reduce-scatter: log2(p)
                    // rounds; each pair exchanges the half of the
                    // current segment the other needs and combines
                    // its own half.
                    unsigned lo = 0, hi = elems;
                    unsigned round = 0;
                    for (unsigned d = pp.nodes / 2; d >= 1; d /= 2) {
                        const unsigned partner = self ^ d;
                        const unsigned mid = lo + (hi - lo) / 2;
                        const bool keep_upper = (self & d) != 0;
                        auto out_msg = std::make_shared<RoundMsg>();
                        out_msg->round = round;
                        out_msg->slice.assign(
                            acc.begin() + (keep_upper ? lo : mid),
                            acc.begin() + (keep_upper ? mid : hi));
                        co_await me.cpu().compute(
                            pp.sendProtocolInstr);
                        co_await me.send(
                            s.hosts[partner]->id(),
                            out_msg->slice.size() * pp.elementBytes,
                            std::nullopt, out_msg, tagData);
                        auto in_msg = co_await recv_round(round);
                        co_await me.cpu().compute(
                            pp.recvProtocolInstr);
                        if (keep_upper)
                            lo = mid;
                        else
                            hi = mid;
                        const mem::Addr buf =
                            me.allocBuffer(in_msg->slice.size() *
                                           pp.elementBytes);
                        co_await me.cpu().touch(
                            buf, in_msg->slice.size() * pp.elementBytes,
                            mem::AccessKind::Load);
                        co_await me.cpu().compute(
                            (hi - lo) * pp.addInstrPerElement);
                        for (unsigned e = lo; e < hi; ++e)
                            acc[e] += in_msg->slice[e - lo];
                        ++round;
                    }
                    (*out)[self] =
                        Vec(acc.begin() + lo, acc.begin() + hi);
                    co_return;
                }

                // Reduce phase: partner exchange up the binomial tree.
                bool sent_up = false;
                for (unsigned k_r = 0; k_r < n_rounds; ++k_r) {
                    const unsigned bit = 1u << k_r;
                    if (self & bit) {
                        co_await me.cpu().compute(pp.sendProtocolInstr);
                        co_await me.send(
                            s.hosts[self - bit]->id(), pp.vectorBytes,
                            std::nullopt,
                            std::make_shared<Vec>(acc), tagData);
                        sent_up = true;
                        break;
                    }
                    if (self + bit < pp.nodes) {
                        net::Message m = co_await me.recv();
                        assert(m.tag == tagData);
                        co_await me.cpu().compute(
                            pp.recvProtocolInstr);
                        const Vec &in =
                            *static_cast<const Vec *>(m.payload.get());
                        const mem::Addr buf =
                            me.allocBuffer(pp.vectorBytes);
                        co_await me.cpu().touch(
                            buf, pp.vectorBytes, mem::AccessKind::Load);
                        co_await me.cpu().compute(
                            elems * pp.addInstrPerElement);
                        addInto(acc, in);
                    }
                }
                // Only node 0 holds the full result.
                if (self == 0)
                    (*out)[self] = acc;
                (void)sent_up;
            }(sys, p, n, rounds, kind, results));
        }
    } else {
        // ---- Active switch-tree reduction -------------------------
        // Every switch runs the same handler: combine vectors from
        // all children, then pass the partial up (or emit results).
        for (unsigned s = 0; s < sys.switches.size(); ++s) {
            const auto inf = sys.info[s];
            auto handler = [&sys, p, inf, s, kind,
                            elements](active::HandlerContext &ctx)
                -> sim::Task {
                co_await ctx.fetchCode(0x1000, p.handlerCodeBytes);
                Vec acc(elements, 0);
                const unsigned line =
                    ctx.owner().buffers().params().lineBytes;
                for (unsigned c = 0; c < inf.children; ++c) {
                    active::StreamChunk ch = co_await ctx.nextChunk();
                    // Combine line by line as the vector streams in:
                    // the valid bits let the adds overlap the copy.
                    for (std::uint32_t off = 0; off < ch.bytes;
                         off += line) {
                        const std::uint32_t n =
                            std::min<std::uint32_t>(line,
                                                    ch.bytes - off);
                        co_await ctx.awaitValid(ch, off, n);
                        co_await ctx.compute(
                            (n / p.elementBytes) *
                            p.addInstrPerElement);
                    }
                    addInto(acc,
                            *static_cast<const Vec *>(ch.payload.get()));
                    ctx.deallocateOne(ch.address);
                }
                if (inf.parent >= 0) {
                    // Partial to the parent switch's handler.
                    co_await ctx.send(
                        sys.switches[static_cast<unsigned>(
                                         inf.parent)]
                            ->id(),
                        p.vectorBytes,
                        net::ActiveHeader{
                            1,
                            inf.childOrdinal * mapStride(p), 0},
                        std::make_shared<Vec>(acc), tagData);
                    co_return;
                }
                // Root: emit the result.
                if (kind == ReduceKind::ToOne) {
                    co_await ctx.send(sys.hosts[0]->id(), p.vectorBytes,
                                      std::nullopt,
                                      std::make_shared<Vec>(acc),
                                      tagResult);
                    co_return;
                }
                if (kind == ReduceKind::ToAll) {
                    // Broadcast the whole result to every node (the
                    // messages fan back down the switch tree).
                    auto full = std::make_shared<Vec>(acc);
                    for (unsigned n = 0; n < p.nodes; ++n)
                        co_await ctx.send(sys.hosts[n]->id(),
                                          p.vectorBytes, std::nullopt,
                                          full, tagResult);
                    co_return;
                }
                // Distributed: one segment per node.
                const unsigned per =
                    std::max(1u, elements / p.nodes);
                for (unsigned n = 0; n < p.nodes; ++n) {
                    const unsigned lo = n * per;
                    const unsigned hi =
                        n + 1 == p.nodes ? elements : (n + 1) * per;
                    auto seg = std::make_shared<Vec>(
                        acc.begin() + lo, acc.begin() + hi);
                    co_await ctx.send(sys.hosts[n]->id(),
                                      (hi - lo) * p.elementBytes,
                                      std::nullopt, seg, tagResult);
                }
            };
            sys.switches[s]->registerHandler(1, "reduce", handler);
        }

        // Hosts: fire the vector, then await the result/segment.
        for (unsigned n = 0; n < p.nodes; ++n) {
            sim::ShardGuard guard(sys.sim,
                                  sys.fabric.shardOf(sys.hosts[n]->hca()));
            sys.sim.spawn(
                [](ReduceSystem &s, const ReductionParams &pp,
                   unsigned self, ReduceKind k,
                   std::shared_ptr<std::vector<Vec>> out) -> sim::Task {
                    host::Host &me = *s.hosts[self];
                    auto v = std::make_shared<Vec>(
                        nodeVector(pp, self));
                    co_await me.cpu().compute(pp.sendProtocolInstr);
                    co_await me.send(
                        s.switches[s.hostLeaf[self]]->id(),
                        pp.vectorBytes,
                        net::ActiveHeader{
                            1,
                            s.hostChildIdx[self] * mapStride(pp), 0},
                        v, tagData);
                    const bool expects =
                        (k != ReduceKind::ToOne) || self == 0;
                    if (!expects)
                        co_return;
                    net::Message m = co_await me.recv();
                    co_await me.cpu().compute(pp.recvProtocolInstr);
                    const mem::Addr buf = me.allocBuffer(m.bytes);
                    co_await me.cpu().touch(buf, m.bytes,
                                            mem::AccessKind::Load);
                    (*out)[self] =
                        *static_cast<const Vec *>(m.payload.get());
                }(sys, p, n, kind, results));
        }
    }

    const sim::Tick end = sys.sim.runSharded(p.threads);

    // ---- Verify against the sequential reference ------------------
    bool correct = true;
    Vec assembled;
    if (kind == ReduceKind::ToOne) {
        assembled = (*results)[0];
        correct = (assembled == reference);
    } else if (kind == ReduceKind::ToAll) {
        assembled = (*results)[0];
        for (unsigned n = 0; n < p.nodes; ++n)
            correct = correct && ((*results)[n] == reference);
    } else {
        for (unsigned n = 0; n < p.nodes; ++n)
            assembled.insert(assembled.end(), (*results)[n].begin(),
                             (*results)[n].end());
        correct = (assembled == reference);
    }

    ReductionRun run;
    run.latency = end;
    run.correct = correct;
    run.checksum = vecChecksum(assembled);
    run.fingerprint = fp.value();
    run.events = fp.eventsFolded();
    return run;
}

} // namespace san::apps
