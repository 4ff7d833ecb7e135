/**
 * @file
 * SAN packet format.
 *
 * Packets follow the paper's InfiniBand-style Raw format: a 128-bit
 * header, of which 64 bits form the *active header* carrying a 6-bit
 * handler ID, a 32-bit mapped address, and (for multi-processor
 * switches) a switch-CPU id. Payloads are at most one MTU (512 B).
 */

#ifndef SAN_NET_PACKET_HH
#define SAN_NET_PACKET_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

#include "obs/Telemetry.hh"
#include "sim/Types.hh"

namespace san::net {

/** Globally unique endpoint/switch address within a fabric. */
using NodeId = std::uint32_t;

inline constexpr NodeId invalidNode = ~NodeId(0);

/** Bytes of packet header on the wire (128 bits). */
inline constexpr unsigned headerBytes = 16;

/** Default maximum transfer unit (payload bytes per packet). */
inline constexpr unsigned defaultMtu = 512;

/** The 64-bit active portion of the header. */
struct ActiveHeader {
    std::uint8_t handlerId = 0;  //!< 6 significant bits
    std::uint32_t address = 0;   //!< data-buffer mapping address
    std::uint8_t cpuId = 0;      //!< target switch CPU (multi-CPU)
};

/** Maximum handler id representable in the 6-bit header field. */
inline constexpr std::uint8_t maxHandlerId = 63;

/**
 * Id of message number @p n posted by node @p src. Each sender numbers
 * its own messages (and each host its own I/O requests, see
 * host::Host), so ids are unique within a run (node ids are) and
 * never depend on thread timing or on other runs in the process. The
 * high word is src + 1, so no id is 0.
 */
constexpr std::uint64_t
messageIdOf(NodeId src, std::uint32_t n)
{
    return (std::uint64_t(src) + 1) << 32 | n;
}

/**
 * Opaque application payload carried alongside the timing model.
 * Most packets carry none (timing only); semantic tests attach real
 * data (reduction vectors, matched lines, record keys...).
 */
using PayloadPtr = std::shared_ptr<const void>;

/**
 * Link-level packet classes of the recovery protocol (fault/). Data
 * packets carry application traffic; Ack/Nack are header-only
 * control packets of the reliable-delivery layer, emitted only when a
 * fault plan is installed.
 */
enum class PacketKind : std::uint8_t { Data = 0, Ack = 1, Nack = 2 };

/** One packet on the wire. */
struct Packet {
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    std::uint32_t payloadBytes = 0;

    bool active = false;         //!< destination is a switch handler
    ActiveHeader activeHdr{};

    std::uint64_t messageId = 0; //!< groups packets of one message
    std::uint32_t seq = 0;       //!< packet index within the message
    bool last = true;            //!< final packet of its message
    std::uint64_t messageBytes = 0; //!< total payload of the message
    std::uint32_t tag = 0;       //!< protocol discriminator

    PayloadPtr payload;          //!< set only on the last packet

    /** @{ Reliable-delivery fields (see fault/Reliable.hh). All four
     * stay at their defaults — and cost nothing — unless a fault plan
     * is installed. */
    PacketKind kind = PacketKind::Data;
    std::uint32_t flowSeq = 0;   //!< per-(src,dst) sequence number
    std::uint32_t checksum = 0;  //!< FNV-1a over the header fields
    /** A link bit error hit this packet in flight. The CRC check at
     * the consuming endpoint — not the cut-through switches, which
     * forward the header before the payload has arrived — detects it
     * and triggers retransmission. */
    bool corrupt = false;
    /** @} */

    /**
     * In-band telemetry record, null unless --telemetry sampled this
     * packet at birth. Shared (not per-copy) on purpose: the clean
     * copy the reliable channel retransmits stamps the same lineage,
     * so retransmit counts and the extra hops accumulate. Not part
     * of the wire image: excluded from packetChecksum(), carries no
     * bytes, and never influences timing.
     */
    std::shared_ptr<obs::TelemetryRecord> telemetry;

    std::uint32_t
    wireBytes() const
    {
        return payloadBytes + headerBytes;
    }
};

/**
 * Split message @p id of @p bytes from @p src to @p dst into packets
 * of at most @p mtu payload bytes, and hand each to @p sink in
 * order. Every packet carries the message's header fields and size;
 * the last one carries @p payload. A zero-byte message (a pure
 * notification) still occupies one header-only packet. Under
 * telemetry (@p tel non-null) each packet is offered to the sampler
 * as it is born, at @p now. Every sender (adapters, the active
 * switch's send unit) packetizes through this one function.
 */
template <typename Sink>
void
packetize(NodeId src, NodeId dst, std::uint64_t bytes,
          const std::optional<ActiveHeader> &active, PayloadPtr payload,
          std::uint32_t tag, std::uint64_t id, unsigned mtu,
          obs::Telemetry *tel, sim::Tick now, Sink &&sink)
{
    std::uint64_t remaining = bytes;
    std::uint32_t seq = 0;
    do {
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining, mtu));
        remaining -= chunk;
        Packet pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.payloadBytes = chunk;
        pkt.active = active.has_value();
        if (active)
            pkt.activeHdr = *active;
        pkt.messageId = id;
        pkt.tag = tag;
        pkt.seq = seq++;
        pkt.last = (remaining == 0);
        pkt.messageBytes = bytes;
        if (pkt.last)
            pkt.payload = std::move(payload);
        if (tel != nullptr)
            pkt.telemetry = tel->sample(src, dst,
                                        pkt.active ? obs::FlowClass::Active
                                                   : obs::FlowClass::Data,
                                        now);
        sink(std::move(pkt));
    } while (remaining > 0);
}

/**
 * 32-bit FNV-1a over the packet's identifying header fields: the
 * modelled equivalent of the invariant CRC an HCA/TCA verifies on
 * arrival. Payload contents are not modelled, so in-flight corruption
 * is carried by Packet::corrupt and folded in here.
 */
inline std::uint32_t
packetChecksum(const Packet &pkt)
{
    std::uint32_t h = 0x811c9dc5u;
    auto fold = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= static_cast<std::uint8_t>(v >> (i * 8));
            h *= 0x01000193u;
        }
    };
    fold(pkt.src);
    fold(pkt.dst);
    fold(pkt.payloadBytes);
    fold(pkt.messageId);
    fold(pkt.seq);
    fold(pkt.tag);
    fold(pkt.flowSeq);
    fold(static_cast<std::uint64_t>(pkt.kind));
    fold(pkt.corrupt ? 0x0ddba11u : 0u);
    return h;
}

/** Delivery record: a packet plus its first/last byte times. */
struct Arrival {
    Packet pkt;
    sim::Tick start = 0; //!< first byte on the receiving wire
    sim::Tick end = 0;   //!< last byte received
};

} // namespace san::net

#endif // SAN_NET_PACKET_HH
