/**
 * @file
 * A unidirectional SAN link with credit-based flow control.
 *
 * The sender enqueues packets; each consumes one credit and occupies
 * the wire for its serialization time (wire bytes / bandwidth). The
 * receiver returns the credit when it has drained the packet from its
 * input staging, as in InfiniBand's per-link credit scheme.
 */

#ifndef SAN_NET_LINK_HH
#define SAN_NET_LINK_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>

#include "fault/FaultPlan.hh"
#include "net/Packet.hh"
#include "obs/Metrics.hh"
#include "sim/RingQueue.hh"
#include "sim/Simulation.hh"
#include "sim/Types.hh"

namespace san::net {

/** Link configuration. */
struct LinkParams {
    double bandwidthBytesPerSec = 1e9;  //!< paper: 1 GB/s per direction
    sim::Tick propagation = sim::ns(5); //!< cable flight time
    unsigned credits = 16;              //!< receiver buffer slots
};

/** One direction of a SAN cable. */
class Link
{
  public:
    /**
     * Receives each delivered packet. The arrival is handed over as
     * an rvalue so receivers forward or stage the ~100-byte Packet
     * (and its payload refcount) with a move instead of a copy;
     * read-only sinks may still bind a `const Arrival &` parameter.
     */
    using Sink = std::function<void(Arrival &&)>;

    Link(sim::Simulation &sim, std::string name, const LinkParams &params)
        : sim_(sim), name_(std::move(name)), params_(params),
          psPerByte_(sim::bytesPerSec(params.bandwidthBytesPerSec)),
          credits_(params.credits)
    {
        if (fault::FaultPlan *plan = sim.context().faults) {
            berSite_ = plan->site(fault::FaultKind::LinkBitError, name_);
            creditSite_ = plan->site(fault::FaultKind::CreditLoss, name_);
        }
    }

    Link(const Link &) = delete;
    Link &operator=(const Link &) = delete;

    /** Attach the receiving component. Must be set before traffic. */
    void setSink(Sink sink) { sink_ = std::move(sink); }

    /**
     * Notify @p fn every time a transmit credit comes back to this
     * link's sender. Paced switch policies (VOQ, crosspoint, bounded
     * central memory) install this on their output links: a grant
     * loop that stalled because the downstream hop withheld credits
     * resumes on the returned credit instead of polling. Unset (the
     * default, and the passthrough policy's state) it costs one
     * branch per credit return, so default-policy runs schedule
     * exactly the same events as before the policy layer existed.
     */
    void
    setCreditObserver(std::function<void()> fn)
    {
        creditObserver_ = std::move(fn);
    }

    /**
     * Mark this link as a shard boundary: the sender lives on shard
     * @p src, the receiver on shard @p dst. Deliveries and credit
     * returns then cross via Simulation::crossSchedule instead of
     * direct scheduling. Set by net::Fabric::applyShardPlan; only
     * meaningful once the simulation is sharded.
     */
    void
    setCrossShard(std::size_t src, std::size_t dst)
    {
        assert(src != dst && "not a boundary link");
        assert(params_.propagation >= 1 &&
               "boundary links need nonzero flight time for lookahead");
        cross_ = true;
        srcShard_ = src;
        dstShard_ = dst;
    }

    /** Queue a packet for transmission. Never blocks the caller. */
    void
    send(Packet pkt)
    {
        if (pkt.telemetry)
            pkt.telemetry->noteTxEnqueue(sim_.now());
        if (queue_.empty() && credits_ > 0) {
            // Nothing waits ahead of it and a credit is free: onto
            // the wire now, and the queue is never touched.
            transmit(std::move(pkt));
            return;
        }
        // Every credit that comes back pumps the queue, so packets
        // only ever wait here while the link is out of credits.
        assert(credits_ == 0 && "a free credit left packets queued");
        queue_.push(std::move(pkt));
    }

    /**
     * Return one receiver credit (the receiver drained a packet from
     * its input staging).
     *
     * Cross-shard links model the credit-update flit explicitly: the
     * receiver's shard posts it back to the sender's shard, arriving
     * one propagation delay later (which also keeps the timestamp
     * within the conservative lookahead bound). Same-shard links
     * keep the historical zero-delay return, so one-shard runs are
     * bit-identical.
     */
    void
    returnCredit()
    {
        if (cross_) {
            sim_.crossSchedule(srcShard_,
                               sim_.now() + params_.propagation,
                               [this] { creditReturned(); });
            return;
        }
        creditReturned();
    }

  private:
    void
    creditReturned()
    {
        // A credit return for a packet that was never charged (or
        // charged twice) would silently inflate the pool past the
        // receiver's real buffer capacity.
        assert(credits_ < params_.credits &&
               "Link::returnCredit: credit underflow (double return?)");
        if (creditSite_ != nullptr &&
            creditSite_->hits(sim_.now(), name_)) {
            // The credit update flit was lost. Model the periodic
            // link-level flow-control sync that rebuilds the count.
            ++creditsLost_;
            if (auto *tr = sim_.tracer())
                tr->instant(name_, "credit-loss", sim_.now());
            sim_.events().after(fault::creditSyncDelay,
                                [this] {
                                    ++credits_;
                                    pump();
                                    if (creditObserver_)
                                        creditObserver_();
                                });
            return;
        }
        ++credits_;
        pump();
        if (creditObserver_)
            creditObserver_();
    }

  public:
    const std::string &name() const { return name_; }
    const LinkParams &params() const { return params_; }
    std::size_t queued() const { return queue_.size(); }
    unsigned credits() const { return credits_; }
    std::uint64_t packetsSent() const { return packets_; }
    std::uint64_t bytesSent() const { return bytes_; }
    /** Packets corrupted in flight by injected bit errors. */
    std::uint64_t packetsCorrupted() const { return corrupted_; }
    /** Credit-update flits lost to injected faults. */
    std::uint64_t creditsLost() const { return creditsLost_; }
    /** Cumulative wire occupancy (serialization time) in ticks. */
    sim::Tick busyTicks() const { return busyTicks_; }

    /** Serialization time of one packet on this link. */
    sim::Tick
    serialization(const Packet &pkt) const
    {
        return sim::transferTime(pkt.wireBytes(), psPerByte_);
    }

    /**
     * Register this link's timeline gauges: bytes per interval, wire
     * utilization (serialization time / elapsed), send-queue depth,
     * and credits remaining, all named after the link. The credits
     * gauge makes credit-starved backlogs diagnosable: a link with
     * .queued > 0 and .credits == 0 is blocked on the receiver, not
     * on the wire.
     */
    void
    registerMetrics(obs::MetricsRegistry &m) const
    {
        m.add(name_ + ".bytes", obs::GaugeKind::Rate,
              [this] { return static_cast<double>(bytes_); });
        m.add(name_ + ".util", obs::GaugeKind::TimeShare,
              [this] { return static_cast<double>(busyTicks_); });
        m.add(name_ + ".queued", obs::GaugeKind::Gauge,
              [this] { return static_cast<double>(queue_.size()); });
        m.add(name_ + ".credits", obs::GaugeKind::Gauge,
              [this] { return static_cast<double>(credits_); });
    }

  private:
    void
    pump()
    {
        while (!queue_.empty() && credits_ > 0)
            transmit(queue_.pop());
    }

    /** Put @p pkt on the wire, spending one credit. */
    void
    transmit(Packet &&pkt)
    {
        const sim::Tick now = sim_.now();
        const sim::Tick start = std::max(now, wireFree_);
        --credits_;
        const sim::Tick ser = serialization(pkt);
        wireFree_ = start + ser;
        ++packets_;
        bytes_ += pkt.wireBytes();
        busyTicks_ += ser;
        // Fault checks and trace instants happen at the actual
        // transmission tick `start`, not the enqueue tick: under
        // wire backlog the two differ, and a one-shot
        // --fault-at TICK fault must hit the packet that is on
        // the wire at TICK (with timestamps to match).
        if (berSite_ != nullptr && bitErrorHits(pkt, start)) {
            // Flip Packet::corrupt instead of any header field:
            // routing stays deterministic (cut-through forwards
            // the header before any CRC could run) and the
            // consuming endpoint's checksum verification fails.
            pkt.corrupt = true;
            ++corrupted_;
            if (auto *tr = sim_.tracer())
                tr->instant(name_, "bit-error", start);
        }
        const sim::Tick first = start + params_.propagation;
        const sim::Tick end = first + ser;
        if (auto *tr = sim_.tracer())
            tr->span(name_, "packet", start, end);
        if (pkt.telemetry) {
            // Queue + credit-stall wait ends at the transmission
            // tick; the stamp lands at `start` for the same
            // reason the fault checks above do.
            pkt.telemetry->noteTxStart(start);
            if (auto *tr = sim_.tracer()) {
                // The flow point sits inside this link's
                // "packet" span, which anchors the arrow chain.
                if (!pkt.telemetry->flowTraced) {
                    pkt.telemetry->flowTraced = true;
                    tr->flowBegin(name_, "lineage",
                                  pkt.telemetry->uid, start);
                } else {
                    tr->flowStep(name_, "lineage",
                                 pkt.telemetry->uid, start);
                }
            }
        }
        // Virtual cut-through: the receiver sees the packet as
        // soon as the header is in, and may begin routing or
        // processing while the payload is still streaming.
        // Arrival.start/.end describe the payload timing.
        const sim::Tick header_in =
            first + sim::transferTime(headerBytes, psPerByte_);
        if (cross_) {
            // Boundary link: the delivery executes on the
            // receiver's shard. header_in >= start + propagation
            // >= now + lookahead, so the stamp is always safe to
            // hand over at the next barrier.
            sim_.crossSchedule(
                dstShard_, header_in,
                [this, p = std::move(pkt), first, end]() mutable {
                    sink_(Arrival{std::move(p), first, end});
                });
        } else {
            sim_.events().schedule(
                header_in,
                [this, p = std::move(pkt), first, end]() mutable {
                    sink_(Arrival{std::move(p), first, end});
                });
        }
    }

    /**
     * One injected bit error hits @p pkt on this transmission?
     * @p start is the tick the packet's first bit goes on the wire
     * (>= now() under backlog) — one-shot fault events trigger
     * against it, not against the enqueue time.
     */
    bool
    bitErrorHits(const Packet &pkt, sim::Tick start)
    {
        // Per-packet corruption probability: wire bits times the
        // configured bit-error rate (linear approximation of
        // 1-(1-ber)^bits; plain multiply keeps gcc and clang
        // bit-identical).
        const double p = std::min(
            1.0, static_cast<double>(pkt.wireBytes()) * 8.0 *
                     berSite_->rate());
        return berSite_->hits(start, name_, p);
    }

    sim::Simulation &sim_;
    std::string name_;
    LinkParams params_;
    sim::PsPerByte psPerByte_;
    Sink sink_;
    std::function<void()> creditObserver_; //!< sender-side wakeup
    sim::RingQueue<Packet> queue_; //!< storage on first backlog
    unsigned credits_;
    sim::Tick wireFree_ = 0;
    std::uint64_t packets_ = 0;
    std::uint64_t bytes_ = 0;
    sim::Tick busyTicks_ = 0;

    // Shard-boundary marking (sharded runs only; see setCrossShard).
    bool cross_ = false;
    std::size_t srcShard_ = 0;
    std::size_t dstShard_ = 0;

    fault::FaultSite *berSite_ = nullptr;
    fault::FaultSite *creditSite_ = nullptr;
    std::uint64_t corrupted_ = 0;
    std::uint64_t creditsLost_ = 0;
};

} // namespace san::net

#endif // SAN_NET_LINK_HH
