/**
 * @file
 * End-to-end reliable delivery for SAN endpoints.
 *
 * A ReliableChannel is the recovery engine one endpoint (an HCA/TCA
 * adapter, or the active switch itself) runs when a fault plan is
 * installed. It implements a per-flow go-back-N protocol:
 *
 *  Sender, per (this endpoint -> dst) flow
 *  ---------------------------------------
 *   - every data packet is stamped with a per-flow sequence number
 *     and a 32-bit FNV checksum, then held in a bounded send window;
 *     packets beyond the window queue in a backlog;
 *   - a cumulative ACK slides the window and releases the backlog;
 *   - a NACK(seq) — or a retransmit timeout with bounded exponential
 *     backoff — retransmits every unacknowledged packet from seq on;
 *   - after maxRetries consecutive timeouts the flow is abandoned
 *     (counted in aborts(); the simulation never wedges on a fault
 *     the protocol cannot recover from).
 *
 *  Receiver, per (src -> this endpoint) flow
 *  -----------------------------------------
 *   - a packet whose checksum fails (a link bit error hit it) is
 *     dropped and NACKed — at most one NACK per expected sequence
 *     number, so a burst of in-flight packets behind a corrupt one
 *     triggers exactly one go-back-N, not a retransmission storm;
 *   - in-order packets are delivered, advancing the cumulative ACK;
 *   - duplicates (flowSeq below expected: a spurious retransmission)
 *     are dropped and re-ACKed — the upper layer sees every payload
 *     exactly once;
 *   - out-of-order packets (a gap where the corrupt packet was) are
 *     dropped; the sender's go-back-N resends them in order.
 *
 * Control packets (ACK/NACK) are header-only, travel the normal
 * fabric paths, consume credits and serialization time like any
 * packet, and are themselves protected by the checksum: a corrupted
 * ACK is ignored and the retransmit timer recovers.
 */

#ifndef SAN_FAULT_RELIABLE_HH
#define SAN_FAULT_RELIABLE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "fault/FaultPlan.hh"
#include "net/Packet.hh"
#include "sim/Simulation.hh"

namespace san::fault {

/** Message tag carried by ACK/NACK control packets. */
inline constexpr std::uint32_t tagControl = 0xfa017c71u;

/** One endpoint's reliable-delivery engine. */
class ReliableChannel
{
  public:
    /** Raw transmit: hand one packet to the wire/crossbar. */
    using Forward = std::function<void(net::Packet)>;

    ReliableChannel(sim::Simulation &sim, std::string name,
                    net::NodeId self, Forward forward)
        : sim_(sim), name_(std::move(name)), self_(self),
          forward_(std::move(forward))
    {}

    ReliableChannel(const ReliableChannel &) = delete;
    ReliableChannel &operator=(const ReliableChannel &) = delete;

    /**
     * Send one data packet reliably: stamp flowSeq + checksum, hold
     * it in the send window (or backlog), and forward it.
     */
    void send(net::Packet pkt);

    /**
     * Inspect one arrival. Returns true when the packet was consumed
     * by the protocol (control packet, checksum failure, duplicate,
     * out-of-order) — the caller must not process it further. Returns
     * false for an in-order, verified data packet, which has been
     * ACKed and should be delivered to the upper layer.
     */
    bool onArrival(const net::Arrival &arrival);

    const std::string &name() const { return name_; }

    /** @{ Recovery counters (see DESIGN.md "Fault model"). */
    std::uint64_t retransmits() const { return retransmits_; }
    std::uint64_t timeouts() const { return timeouts_; }
    std::uint64_t crcDrops() const { return crcDrops_; }
    std::uint64_t dupDrops() const { return dupDrops_; }
    std::uint64_t oooDrops() const { return oooDrops_; }
    std::uint64_t controlDrops() const { return controlDrops_; }
    std::uint64_t acksSent() const { return acksSent_; }
    std::uint64_t nacksSent() const { return nacksSent_; }
    std::uint64_t aborts() const { return aborts_; }
    /** @} */

  private:
    struct TxFlow {
        std::uint32_t nextSeq = 0;
        std::deque<net::Packet> window;  //!< sent, unacknowledged
        std::deque<net::Packet> backlog; //!< waiting for window room
        sim::Tick rto = 0;               //!< current timeout (0: unset)
        unsigned retries = 0;            //!< consecutive timeouts
        std::uint64_t timerGen = 0;      //!< cancels stale timers
        bool dead = false;               //!< gave up; best-effort now
    };

    struct RxFlow {
        std::uint32_t expected = 0;
        bool nacked = false; //!< already NACKed this expected seq
    };

    static bool
    verified(const net::Packet &pkt)
    {
        return pkt.checksum == net::packetChecksum(pkt);
    }

    void sendControl(net::PacketKind kind, net::NodeId dst,
                     std::uint32_t seq);
    void onAck(net::NodeId from, std::uint32_t seq);
    void onNack(net::NodeId from, std::uint32_t seq);
    void retransmitFrom(TxFlow &flow, std::uint32_t seq);
    void armTimer(net::NodeId dst, TxFlow &flow);
    void onTimer(net::NodeId dst, std::uint64_t gen);
    void instant(const char *what);

    sim::Simulation &sim_;
    std::string name_;
    net::NodeId self_;
    Forward forward_;

    std::map<net::NodeId, TxFlow> tx_;
    std::map<net::NodeId, RxFlow> rx_;

    std::uint64_t retransmits_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t crcDrops_ = 0;
    std::uint64_t dupDrops_ = 0;
    std::uint64_t oooDrops_ = 0;
    std::uint64_t controlDrops_ = 0;
    std::uint64_t acksSent_ = 0;
    std::uint64_t nacksSent_ = 0;
    std::uint64_t aborts_ = 0;
};

} // namespace san::fault

#endif // SAN_FAULT_RELIABLE_HH
