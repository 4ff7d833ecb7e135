#include "apps/ParallelSort.hh"

#include <memory>
#include <string>
#include <vector>

#include "apps/Cluster.hh"
#include "apps/DetHash.hh"
#include "apps/StreamCommon.hh"
#include "io/IoRequest.hh"

namespace san::apps {

namespace {

/** Records whose start offset falls in [start, start+len). */
std::uint64_t
recordsIn(const SortParams &p, std::uint64_t start, std::uint64_t len)
{
    auto starts_below = [&](std::uint64_t x) {
        return (x + p.recordBytes - 1) / p.recordBytes;
    };
    return starts_below(start + len) - starts_below(start);
}

/** First record whose start offset is >= start. */
std::uint64_t
firstRecordAt(const SortParams &p, std::uint64_t start)
{
    return (start + p.recordBytes - 1) / p.recordBytes;
}

} // namespace

unsigned
sortDestination(const SortParams &p, std::uint64_t record)
{
    return static_cast<unsigned>(detHash(p.seed, record) % p.nodes);
}

RunStats
runParallelSort(Mode mode, const SortParams &params)
{
    ClusterParams cp = params.cluster;
    cp.hosts = params.nodes;
    cp.storageNodes = params.nodes;
    cp.switchPorts = 16;
    Cluster cluster(cp);
    auto &sw = cluster.sw();

    const std::uint64_t total_records =
        params.totalBytes / params.recordBytes;
    const std::uint64_t per_node_records = total_records / params.nodes;
    const std::uint64_t per_node_bytes =
        per_node_records * params.recordBytes;

    // Expected incoming records per node (used for completion and
    // the semantic checksum).
    std::vector<std::uint64_t> owned(params.nodes, 0);
    for (std::uint64_t r = 0; r < per_node_records * params.nodes; ++r)
        ++owned[sortDestination(params, r)];

    auto received =
        std::make_shared<std::vector<std::uint64_t>>(params.nodes, 0);

    // Stream address bases keep the four disk streams from
    // colliding in the (direct-mapped) ATB.
    auto stream_base = [](unsigned node) {
        return static_cast<std::uint32_t>(node * (0x800000 + 512));
    };

    if (!isActive(mode)) {
        for (unsigned n = 0; n < params.nodes; ++n) {
            auto &h = cluster.host(n);
            const net::NodeId st = cluster.storage(n).id();

            // Reader: scan own partition, ship records to owners.
            cluster.sim().spawn(
                [](host::Host &host, net::NodeId storage, Cluster &cl,
                   const SortParams &p, unsigned self,
                   std::uint64_t my_records, unsigned outstanding,
                   std::shared_ptr<std::vector<std::uint64_t>> recv_ctr)
                    -> sim::Task {
                    const std::uint64_t base_record =
                        self * my_records;
                    auto on_block = [&p, &cl, self, base_record,
                                     recv_ctr](
                                        host::Host &hh, mem::Addr buf,
                                        std::uint64_t bytes,
                                        std::uint64_t off) -> sim::Task {
                        const std::uint64_t first =
                            base_record + firstRecordAt(p, off);
                        const std::uint64_t recs =
                            recordsIn(p, off, bytes);
                        co_await hh.cpu().compute(
                            recs * (p.classifyInstrPerRecord +
                                    p.gatherInstrPerRecord));
                        co_await hh.cpu().touch(
                            buf, bytes, mem::AccessKind::Load);
                        // Count destinations, ship batches to peers;
                        // records we own stay local.
                        std::vector<std::uint64_t> bins(p.nodes, 0);
                        for (std::uint64_t i = 0; i < recs; ++i)
                            ++bins[sortDestination(p, first + i)];
                        for (unsigned d = 0; d < p.nodes; ++d) {
                            if (bins[d] == 0)
                                continue;
                            if (d == self) {
                                (*recv_ctr)[self] += bins[d];
                                continue;
                            }
                            co_await hh.send(
                                cl.host(d).id(),
                                bins[d] * p.recordBytes, std::nullopt,
                                nullptr, tagData);
                        }
                    };

                    co_await normalHostLoop(host, storage,
                                            my_records * p.recordBytes,
                                            p.blockBytes, outstanding,
                                            on_block);
                }(h, st, cluster, params, n, per_node_records,
                  outstandingRequests(mode), received));

            // Receiver: drain peer batches.
            cluster.sim().spawn(
                [](host::Host &host, const SortParams &p, unsigned self,
                   std::uint64_t expect_from_peers,
                   std::shared_ptr<std::vector<std::uint64_t>> recv_ctr)
                    -> sim::Task {
                    std::uint64_t got = 0;
                    while (got < expect_from_peers) {
                        net::Message m = co_await host.recv();
                        const std::uint64_t recs =
                            m.bytes / p.recordBytes;
                        got += recs;
                        (*recv_ctr)[self] += recs;
                        const mem::Addr buf = host.allocBuffer(m.bytes);
                        co_await host.cpu().compute(
                            recs * p.gatherInstrPerRecord);
                        co_await host.cpu().touch(
                            buf, m.bytes, mem::AccessKind::Store);
                    }
                }(h, params, n,
                  owned[n] - [&] {
                      // Records node n keeps locally (sourced by n).
                      std::uint64_t local = 0;
                      for (std::uint64_t r = n * per_node_records;
                           r < (n + 1) * per_node_records; ++r)
                          local += (sortDestination(params, r) == n);
                      return local;
                  }(),
                  received));
        }
    } else {
        // ---- Switch handler: classify + route every record --------
        struct StreamState {
            std::uint64_t consumed = 0;
            std::uint64_t blockConsumed = 0;
        };
        struct SortCtl {
            std::vector<StreamState> streams;
            std::vector<std::uint64_t> batchRecords;
            std::uint64_t totalConsumed = 0;
        };
        std::vector<net::NodeId> host_ids;
        for (unsigned n = 0; n < params.nodes; ++n)
            host_ids.push_back(cluster.host(n).id());

        auto handler = [params, host_ids, stream_base, per_node_bytes,
                        per_node_records](active::HandlerContext &ctx)
            -> sim::Task {
            co_await ctx.fetchCode(0x1000, params.handlerCodeBytes);
            SortCtl ctl;
            ctl.streams.resize(params.nodes);
            ctl.batchRecords.assign(params.nodes, 0);
            const std::uint64_t total =
                per_node_bytes * params.nodes;
            const unsigned batch_cap = 512 / params.recordBytes;

            while (ctl.totalConsumed < total) {
                active::StreamChunk c = co_await ctx.nextChunk();
                // Identify the source stream by address range.
                unsigned src_node = 0;
                for (unsigned n = 0; n < params.nodes; ++n)
                    if (c.address >= stream_base(n) &&
                        c.address < stream_base(n) + per_node_bytes)
                        src_node = n;
                StreamState &st = ctl.streams[src_node];
                const std::uint64_t off = c.address - stream_base(src_node);

                co_await ctx.awaitValid(c, 0, c.bytes);
                const std::uint64_t first =
                    src_node * per_node_records +
                    firstRecordAt(params, off);
                const std::uint64_t recs = recordsIn(params, off,
                                                     c.bytes);
                co_await ctx.compute(
                    params.chunkOverheadInstr +
                    recs * (params.classifyInstrPerRecord +
                            params.gatherInstrPerRecord));
                for (std::uint64_t i = 0; i < recs; ++i) {
                    const unsigned d =
                        sortDestination(params, first + i);
                    if (++ctl.batchRecords[d] >= batch_cap) {
                        co_await ctx.send(
                            host_ids[d],
                            ctl.batchRecords[d] * params.recordBytes,
                            std::nullopt, nullptr, tagData);
                        ctl.batchRecords[d] = 0;
                    }
                }
                st.consumed += c.bytes;
                st.blockConsumed += c.bytes;
                ctl.totalConsumed += c.bytes;
                // Four streams interleave in one address space, so
                // buffers are released per chunk (an address-exact
                // ATB release), not with the below-address sweep.
                ctx.deallocateOne(c.address);
                if (st.blockConsumed >= params.blockBytes ||
                    st.consumed >= per_node_bytes) {
                    st.blockConsumed = 0;
                    co_await ctx.send(host_ids[src_node], 0,
                                      std::nullopt, nullptr, tagResult);
                }
            }
            // Flush the tails.
            for (unsigned d = 0; d < params.nodes; ++d)
                if (ctl.batchRecords[d] > 0)
                    co_await ctx.send(
                        host_ids[d],
                        ctl.batchRecords[d] * params.recordBytes,
                        std::nullopt, nullptr, tagData);
        };
        sw.registerHandler(1, "sort-distribute", handler);

        // ---- Hosts: post reads, count acks and arriving records ---
        for (unsigned n = 0; n < params.nodes; ++n) {
            cluster.sim().spawn(
                [](host::Host &host, net::NodeId storage,
                   net::NodeId sw_id, const SortParams &p, unsigned self,
                   std::uint64_t file_bytes, std::uint64_t expected_recs,
                   std::uint32_t base, unsigned outstanding,
                   std::shared_ptr<std::vector<std::uint64_t>> recv_ctr)
                    -> sim::Task {
                    const std::uint64_t blocks =
                        (file_bytes + p.blockBytes - 1) / p.blockBytes;
                    std::uint64_t posted = 0, acked = 0;
                    std::uint64_t got_records = 0;

                    auto post = [&]() -> sim::Task {
                        const std::uint64_t off = posted * p.blockBytes;
                        const std::uint64_t len =
                            std::min<std::uint64_t>(p.blockBytes,
                                                    file_bytes - off);
                        co_await host.postReadTo(
                            storage, off, len, sw_id,
                            net::ActiveHeader{
                                1,
                                base + static_cast<std::uint32_t>(off),
                                0});
                        ++posted;
                    };
                    while (posted < blocks && posted < outstanding)
                        co_await post();

                    while (acked < blocks ||
                           got_records < expected_recs) {
                        net::Message m = co_await host.recv();
                        if (m.tag == tagResult) {
                            ++acked;
                            if (posted < blocks)
                                co_await post();
                        } else {
                            const std::uint64_t recs =
                                m.bytes / p.recordBytes;
                            got_records += recs;
                            (*recv_ctr)[self] += recs;
                            const mem::Addr buf =
                                host.allocBuffer(m.bytes);
                            co_await host.cpu().compute(
                                recs * p.gatherInstrPerRecord);
                            co_await host.cpu().touch(
                                buf, m.bytes, mem::AccessKind::Store);
                        }
                    }
                }(cluster.host(n), cluster.storage(n).id(), sw.id(),
                  params, n, per_node_bytes, owned[n], stream_base(n),
                  outstandingRequests(mode), received));
        }
    }

    RunStats stats = cluster.collect(mode);
    std::string sum;
    std::uint64_t total_received = 0;
    for (unsigned n = 0; n < params.nodes; ++n) {
        total_received += (*received)[n];
        sum += std::to_string((*received)[n]) + (n + 1 < params.nodes
                                                     ? ","
                                                     : "");
    }
    stats.checksum = sum + "=" + std::to_string(total_received);
    return stats;
}

} // namespace san::apps
