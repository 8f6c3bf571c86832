/**
 * @file
 * Static configuration of routers and the network.
 *
 * The defaults reproduce the paper's evaluation platform (Section 5.1):
 * an 8x8 mesh of five-stage pipelined routers with four 5-flit-deep
 * atomic VCs per input port, 128-bit links, wormhole switching,
 * credit-based flow control, and deterministic XY routing.
 */

#ifndef NOCALERT_NOC_CONFIG_HPP
#define NOCALERT_NOC_CONFIG_HPP

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "noc/types.hpp"

namespace nocalert::noc {

/** Selectable routing algorithms (see routing.hpp). */
enum class RoutingAlgo {
    XY,        ///< Dimension-ordered, X first (paper baseline).
    YX,        ///< Dimension-ordered, Y first.
    WestFirst, ///< Turn-model adaptive: west hops first, then adaptive.
    O1Turn,    ///< Per-packet random choice between XY and YX.
    QAdaptive, ///< Quarantine-aware west-first: XY when fault-free,
               ///< detours around quarantined ports after recovery.
};

/** Name of a routing algorithm. */
const char *routingAlgoName(RoutingAlgo algo);

/** Inverse of routingAlgoName (nullopt for unknown names). */
std::optional<RoutingAlgo> routingAlgoFromName(std::string_view name);

/**
 * One protocol-level message class.
 *
 * Classes model the cache-coherence message types sharing the network;
 * VCs are statically partitioned among classes so protocol deadlock is
 * avoided, and every packet of a class has the same fixed length
 * (which invariant 28 checks).
 */
struct MessageClassSpec
{
    std::string name;
    std::uint16_t packetLength = 1; ///< Flits per packet of this class.
};

/** Per-router micro-architectural parameters. */
struct RouterParams
{
    /** Virtual channels per input port. */
    unsigned numVcs = 4;

    /** Buffer depth (flits) of each VC. */
    unsigned bufferDepth = 5;

    /**
     * Atomic VCs: a buffer may hold flits of only one packet at a
     * time, and an output VC is only granted when the downstream
     * buffer is completely empty. Non-atomic VCs may interleave whole
     * packets back-to-back (invariant 27 applies instead of 26).
     */
    bool atomicBuffers = true;

    /**
     * Speculative pipeline (Section 4.4 variant): SA may be won in the
     * same cycle VA completes, shortening the pipeline by one stage
     * and relaxing the VA-before-SA ordering invariant.
     */
    bool speculative = false;

    /** Flit (and link) width in bits; used by the hardware model. */
    unsigned flitWidthBits = 128;

    /**
     * Arm the extension checkers beyond the paper's Table-1 set:
     * cross-module allocation-consistency assertions (an occupied
     * output VC must have a live owner whose route registers point
     * back at it). Off by default — the faithful 32-checker
     * configuration. These close part of the silent-starvation gap
     * that single-VC designs expose (see EXPERIMENTS.md).
     */
    bool extendedChecks = false;

    /** Protocol message classes sharing the network. */
    std::vector<MessageClassSpec> classes = {
        {"ctrl", 1},
        {"data", 5},
    };

    /** Message class a VC belongs to (contiguous partition). */
    unsigned
    vcClass(unsigned vc) const
    {
        // Contiguous partition: with C classes and V VCs, class c
        // owns VCs [c*V/C, (c+1)*V/C).
        auto c = static_cast<unsigned>(classes.size());
        return static_cast<unsigned>(
            (static_cast<std::uint64_t>(vc) * c) / numVcs);
    }

    /** A contiguous range of VC indices, [lo, hi). */
    struct VcRange
    {
        unsigned lo = 0;
        unsigned hi = 0;
    };

    /**
     * The VCs of message class @p cls (empty for a class past the
     * last). vcClass(w) = floor(w * C / V) is monotone in w, so class
     * c owns exactly the w with c * V <= w * C < (c + 1) * V:
     * [ceil(c * V / C), ceil((c + 1) * V / C)).
     */
    VcRange
    classVcRange(unsigned cls) const
    {
        const auto c = static_cast<unsigned>(classes.size());
        if (c == 0)
            return {0, numVcs};
        const auto bound = [&](unsigned k) {
            return std::min((k * numVcs + c - 1) / c, numVcs);
        };
        return {bound(cls), bound(cls + 1)};
    }

    /** Packet length of message class @p cls. */
    std::uint16_t
    classLength(unsigned cls) const
    {
        return classes[cls].packetLength;
    }

    /** Abort with a message if the parameters are inconsistent. */
    void validate() const;
};

/**
 * End-to-end retransmission parameters (the recovery subsystem's
 * network-interface half). When enabled, every injected packet is
 * held by its source NI until the destination NI acknowledges a
 * clean, complete delivery; on timeout the packet is re-injected
 * with capped exponential backoff, and the destination suppresses
 * duplicate deliveries so the ejection log sees each packet once.
 */
struct RetransmitParams
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;

    /** Base cycles to wait for an ACK after the tail is injected. */
    Cycle ackTimeout = 600;

    /** Retransmissions attempted before a packet is abandoned. */
    unsigned maxRetries = 3;

    /** Cap on the exponential backoff multiplier (1, 2, 4, ...). */
    unsigned backoffCap = 4;
};

/** Whole-network configuration. */
struct NetworkConfig
{
    /** Mesh width (columns). */
    int width = 8;

    /** Mesh height (rows). */
    int height = 8;

    /** Router micro-architecture. */
    RouterParams router;

    /** Routing algorithm. */
    RoutingAlgo routing = RoutingAlgo::XY;

    /** End-to-end retransmission (recovery support). */
    RetransmitParams retransmit;

    /** Number of nodes in the mesh. */
    int numNodes() const { return width * height; }

    /** Coordinate of a node id. */
    Coord
    coordOf(NodeId node) const
    {
        return {node % width, node / width};
    }

    /** Node id of a coordinate. */
    NodeId
    nodeAt(Coord c) const
    {
        return c.y * width + c.x;
    }

    /** Neighbor of @p node through mesh port @p port, or kInvalidNode. */
    NodeId
    neighborOf(NodeId node, int port) const
    {
        Coord c = coordOf(node);
        switch (static_cast<Port>(port)) {
          case Port::North: c.y += 1; break;
          case Port::South: c.y -= 1; break;
          case Port::East: c.x += 1; break;
          case Port::West: c.x -= 1; break;
          default: return kInvalidNode;
        }
        if (c.x < 0 || c.x >= width || c.y < 0 || c.y >= height)
            return kInvalidNode;
        return nodeAt(c);
    }

    /** True iff @p node has a link on mesh port @p port. */
    bool
    portConnected(NodeId node, int port) const
    {
        if (port == portIndex(Port::Local))
            return true;
        return neighborOf(node, port) != kInvalidNode;
    }

    /** Minimal hop distance between two nodes. */
    int
    hopDistance(NodeId a, NodeId b) const
    {
        const Coord ca = coordOf(a);
        const Coord cb = coordOf(b);
        const int dx = ca.x - cb.x;
        const int dy = ca.y - cb.y;
        return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
    }

    /** Abort with a message if the configuration is inconsistent. */
    void validate() const;
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_CONFIG_HPP
