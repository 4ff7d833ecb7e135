#include "host/Host.hh"

#include <cassert>

#include "io/StorageNode.hh"

namespace san::host {

std::atomic<std::uint64_t> Host::nextRequestId_{1};

Host::Host(sim::Simulation &sim, const std::string &name,
           net::Fabric &fabric, const mem::MemorySystemParams &mem_params,
           const OsCostParams &os_params)
    : sim_(sim), name_(name), osParams_(os_params),
      cpu_(sim, name + ".cpu", mem_params),
      hca_(&fabric.addAdapter(name + ".hca")), appRecv_(sim)
{}

void
Host::start()
{
    sim_.spawn(demux());
}

sim::Task
Host::demux()
{
    for (;;) {
        net::Message msg = co_await hca_->recvQueue().pop();
        if (msg.tag == io::tagIoReply) {
            const io::IoReply &reply = io::replyOf(msg);
            auto it = pending_.find(reply.requestId);
            if (it == pending_.end())
                continue; // unsolicited (e.g. redirected) data
            Pending &p = it->second;
            if (p.received == 0)
                p.firstChunkAt = msg.firstArrival;
            p.received += reply.bytes;
            if (reply.status != io::IoStatus::Ok) {
                p.status = reply.status;
                ++ioErrors_;
                if (auto *tr = sim_.tracer())
                    tr->instant(name_, "io-error", sim_.now());
            }
            // Completion rides the final chunk's flag (not a byte
            // count): an active storage device may filter the stream,
            // delivering fewer bytes than were read from the media.
            if (reply.last) {
                p.complete = true;
                p.completedAt = msg.completedAt;
                if (auto *tr = sim_.tracer())
                    tr->asyncEnd(name_, "io", reply.requestId,
                                 sim_.now());
                if (p.gate)
                    p.gate->open();
            }
        } else {
            appRecv_.push(std::move(msg));
        }
    }
}

sim::ValueTask<std::uint64_t>
Host::postRead(net::NodeId storage, std::uint64_t offset,
               std::uint64_t bytes)
{
    // Normal path: the kernel is on the issue side of every request.
    co_await cpu_.busyFor(osRequestCost(osParams_, bytes));
    const std::uint64_t id = nextRequestId_++;
    Pending &p = pending_[id];
    p.expected = bytes;
    p.gate = std::make_unique<sim::Gate>(sim_);
    io::IoRequest req;
    req.requestId = id;
    req.offset = offset;
    req.bytes = bytes;
    req.replyTo = hca_->id();
    if (auto *tr = sim_.tracer())
        tr->asyncBegin(name_, "io", id, sim_.now());
    hca_->sendMessage(storage, io::requestMessageBytes, std::nullopt,
                      io::makeRequestPayload(req), io::tagIoRequest);
    co_return id;
}

sim::ValueTask<std::uint64_t>
Host::postReadTo(net::NodeId storage, std::uint64_t offset,
                 std::uint64_t bytes, net::NodeId reply_to,
                 std::optional<net::ActiveHeader> active)
{
    // Active path: user-level queue-pair post; the data never enters
    // this host, so no kernel request cost applies.
    co_await cpu_.busyFor(osParams_.qpPost);
    const std::uint64_t id = nextRequestId_++;
    io::IoRequest req;
    req.requestId = id;
    req.offset = offset;
    req.bytes = bytes;
    req.replyTo = reply_to;
    req.replyActive = active;
    if (auto *tr = sim_.tracer())
        tr->instant(name_, "post-read-to", sim_.now());
    hca_->sendMessage(storage, io::requestMessageBytes, std::nullopt,
                      io::makeRequestPayload(req), io::tagIoRequest);
    co_return id;
}

sim::ValueTask<IoCompletion>
Host::awaitIo(std::uint64_t id)
{
    auto it = pending_.find(id);
    assert(it != pending_.end() && "awaiting unknown request");
    Pending &p = it->second;
    if (!p.complete)
        co_await p.gate->wait();
    IoCompletion done;
    done.requestId = id;
    done.bytes = p.received; // may be < requested if device-filtered
    done.firstChunkAt = p.firstChunkAt;
    done.completedAt = p.completedAt;
    done.status = p.status;
    pending_.erase(id);
    co_return done;
}

sim::ValueTask<IoCompletion>
Host::readBlocking(net::NodeId storage, std::uint64_t offset,
                   std::uint64_t bytes)
{
    const std::uint64_t id = co_await postRead(storage, offset, bytes);
    co_return co_await awaitIo(id);
}

sim::Task
Host::send(net::NodeId dst, std::uint64_t bytes,
           std::optional<net::ActiveHeader> active,
           net::PayloadPtr payload, std::uint32_t tag)
{
    co_await cpu_.busyFor(osParams_.qpPost);
    hca_->sendMessage(dst, bytes, active, std::move(payload), tag);
}

sim::ValueTask<net::Message>
Host::recv()
{
    net::Message msg = co_await appRecv_.pop();
    co_await cpu_.busyFor(osParams_.pollCost);
    co_return msg;
}

mem::Addr
Host::allocBuffer(std::uint64_t bytes)
{
    const mem::Addr addr = bufferBrk_;
    // Keep regions page-aligned so TLB behaviour is realistic.
    const std::uint64_t page = cpu_.memory().params().pageSize;
    bufferBrk_ += (bytes + page - 1) / page * page;
    return addr;
}

} // namespace san::host
