/**
 * @file
 * Flits and packets — the units of data movement in the network.
 *
 * Packets are segmented into flits by the source network interface.
 * The head flit carries routing information (destination); body and
 * tail flits follow the wormhole set up by the head. Every flit carries
 * its packet id and sequence number so the golden-reference comparator
 * can detect drops, duplicates, mixing, and reordering exactly.
 */

#ifndef NOCALERT_NOC_FLIT_HPP
#define NOCALERT_NOC_FLIT_HPP

#include <cstdint>
#include <string>

#include "noc/types.hpp"

namespace nocalert::noc {

/** Position of a flit inside its packet. */
enum class FlitType : std::uint8_t {
    Head,     ///< First flit of a multi-flit packet.
    Body,     ///< Middle flit.
    Tail,     ///< Last flit of a multi-flit packet.
    HeadTail, ///< Sole flit of a single-flit packet.
};

/** Name of a flit type ("H", "B", "T", "HT"). */
const char *flitTypeName(FlitType type);

/** True for Head and HeadTail flits. */
constexpr bool
isHead(FlitType type)
{
    return type == FlitType::Head || type == FlitType::HeadTail;
}

/** True for Tail and HeadTail flits. */
constexpr bool
isTail(FlitType type)
{
    return type == FlitType::Tail || type == FlitType::HeadTail;
}

/** Globally unique packet identifier. */
using PacketId = std::uint64_t;

/** Sentinel for "no packet". */
inline constexpr PacketId kInvalidPacket = ~0ULL;

/**
 * One flit on a wire or in a buffer.
 *
 * The @c vc field models the virtual-channel identifier that travels
 * with the flit on the link: it selects the input VC buffer at the
 * downstream router (the input demultiplexer in Figure 1). It is
 * rewritten during switch traversal to the output VC allocated by VA.
 */
struct Flit
{
    FlitType type = FlitType::Head;
    PacketId packet = kInvalidPacket;
    std::uint16_t seq = 0;        ///< Position within the packet (0-based).
    NodeId src = kInvalidNode;    ///< Source node.
    NodeId dst = kInvalidNode;    ///< Destination node (head flits route on it).
    std::uint8_t msgClass = 0;    ///< Protocol-level message class.
    std::uint8_t vc = 0;          ///< VC id on the current link.
    Cycle injected = 0;           ///< Cycle the packet entered the source NI.

    /**
     * kInvalidPacket for ordinary data flits. For end-to-end
     * acknowledgement packets (recovery subsystem), the id of the
     * packet being acknowledged. ACKs travel as regular ctrl-class
     * packets; only the destination NI interprets this field.
     */
    PacketId ackFor = kInvalidPacket;

    bool operator==(const Flit &) const = default;

    /** Compact debug representation. */
    std::string toString() const;
};

/**
 * A packet awaiting injection at a network interface.
 */
struct Packet
{
    PacketId id = kInvalidPacket;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint8_t msgClass = 0;
    std::uint16_t length = 1;     ///< Number of flits.
    Cycle created = 0;            ///< Cycle the traffic generator made it.

    /** Packet id this packet acknowledges (kInvalidPacket for data). */
    PacketId ackFor = kInvalidPacket;

    bool operator==(const Packet &) const = default;

    /** Build flit number @p seq of this packet. */
    Flit makeFlit(std::uint16_t seq) const;
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_FLIT_HPP
