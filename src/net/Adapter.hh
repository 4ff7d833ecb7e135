/**
 * @file
 * Channel adapters: the fabric endpoints.
 *
 * An Adapter is the common model for the paper's HCA (host channel
 * adapter, integrated into the memory controller) and TCA (target
 * channel adapter, fronting I/O devices). It exposes a queue-pair
 * style interface: sendMessage() segments a message into MTU-sized
 * packets and posts them; received packets are reassembled in order
 * and completed messages appear on the receive channel.
 */

#ifndef SAN_NET_ADAPTER_HH
#define SAN_NET_ADAPTER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "fault/Reliable.hh"
#include "net/Link.hh"
#include "net/Packet.hh"
#include "sim/Simulation.hh"
#include "sim/Sync.hh"

namespace san::net {

/** A fully reassembled message as seen by the receiving endpoint. */
struct Message {
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    std::uint64_t bytes = 0;
    bool active = false;
    ActiveHeader activeHdr{};
    std::uint32_t tag = 0;      //!< protocol discriminator
    PayloadPtr payload;
    sim::Tick firstArrival = 0; //!< first byte of first packet
    sim::Tick completedAt = 0;  //!< last byte of last packet
};

/** Endpoint adapter configuration. */
struct AdapterParams {
    unsigned mtu = defaultMtu;
};

/** An HCA/TCA endpoint on the fabric. */
class Adapter
{
  public:
    Adapter(sim::Simulation &sim, std::string name, NodeId id,
            const AdapterParams &params = {});

    Adapter(const Adapter &) = delete;
    Adapter &operator=(const Adapter &) = delete;

    NodeId id() const { return id_; }
    const std::string &name() const { return name_; }
    unsigned mtu() const { return params_.mtu; }

    /** Wire this endpoint to its switch-facing links. */
    void attach(Link &out, Link &in);

    /**
     * Post a message of @p bytes payload to @p dst. If @p active is
     * set the message targets a switch handler. The optional payload
     * pointer rides on the last packet.
     */
    void sendMessage(NodeId dst, std::uint64_t bytes,
                     std::optional<ActiveHeader> active = std::nullopt,
                     PayloadPtr payload = nullptr, std::uint32_t tag = 0);

    /** Completed inbound messages, in arrival order. */
    sim::Channel<Message> &recvQueue() { return recv_; }

    std::uint64_t bytesSent() const { return bytesOut_; }
    std::uint64_t bytesReceived() const { return bytesIn_; }
    std::uint64_t messagesSent() const { return msgsOut_; }
    std::uint64_t messagesReceived() const { return msgsIn_; }

    /**
     * The recovery engine, armed iff a fault plan was installed when
     * this adapter attached to the fabric; nullptr otherwise.
     */
    const fault::ReliableChannel *reliable() const { return rel_.get(); }

  private:
    void receive(Arrival &&arrival);

    sim::Simulation &sim_;
    std::string name_;
    NodeId id_;
    AdapterParams params_;
    Link *out_ = nullptr;
    Link *in_ = nullptr;
    std::unique_ptr<fault::ReliableChannel> rel_;
    sim::Channel<Message> recv_;

    struct Partial {
        Message msg;
        std::uint64_t received = 0;
    };
    std::unordered_map<std::uint64_t, Partial> partial_;

    std::uint64_t bytesOut_ = 0, bytesIn_ = 0;
    std::uint64_t msgsOut_ = 0, msgsIn_ = 0;
};

} // namespace san::net

#endif // SAN_NET_ADAPTER_HH
