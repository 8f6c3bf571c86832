/**
 * @file
 * Network interface (NI): the boundary between a processing element
 * and its router.
 *
 * The injection side segments queued packets into flits and streams
 * them into the router's local input port, playing the role an
 * upstream router would: it picks a free input VC of the packet's
 * message class and respects credit-based flow control.
 *
 * The ejection side reassembles arriving flits into packets, returns
 * credits, keeps the per-flit ejection log the golden-reference
 * comparator consumes, and evaluates the network-level (end-to-end)
 * invariances: delivery to the wrong destination, flits without an
 * open packet, intra-packet order violations, and packet length
 * violations (Table 1, invariances 28 and 32).
 */

#ifndef NOCALERT_NOC_INTERFACE_HPP
#define NOCALERT_NOC_INTERFACE_HPP

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "noc/types.hpp"

namespace nocalert::noc {

/** One delivered flit, as recorded by the ejection log. */
struct EjectionRecord
{
    Cycle cycle = 0;
    NodeId node = kInvalidNode; ///< Node the flit was ejected at.
    Flit flit;

    bool operator==(const EjectionRecord &) const = default;
};

/** End-to-end anomaly bits raised by the ejection-side checks. */
enum NiAnomaly : std::uint32_t {
    kNiWrongDestination = 1u << 0, ///< Header ejected at dst != node.
    kNiUnexpectedFlit = 1u << 1,   ///< Flit without a matching open packet.
    kNiOrderViolation = 1u << 2,   ///< Packet id / sequence mismatch.
    kNiCountViolation = 1u << 3,   ///< Packet length differs from its class.
};

/** Per-cycle observable signals of an NI (for the checker engines). */
struct NiWires
{
    Cycle cycle = 0;
    NodeId node = kInvalidNode;
    bool injectValid = false;
    Flit injectFlit;
    bool ejectValid = false;
    Flit ejectFlit;
    std::uint32_t anomalies = 0;
};

/**
 * Bit set in the packet id of end-to-end acknowledgement packets so
 * ACK ids can never collide with traffic-generator ids (which are
 * (node << 40) | count).
 */
inline constexpr PacketId kAckPacketBit = 1ULL << 63;

/** Network interface of one node. */
class NetworkInterface
{
  public:
    /** Flit/credit exchange with the local links for one cycle. */
    struct LinkIo
    {
        bool inValid = false;      ///< Flit arriving from the router.
        Flit inFlit;
        std::uint32_t creditIn = 0; ///< Credits returning from the router.
        bool outValid = false;     ///< Flit injected toward the router.
        Flit outFlit;
        std::uint32_t creditOut = 0; ///< Credits returned for ejected flits.
    };

    /** Construct the NI of node @p node. */
    NetworkInterface(const NetworkConfig &config, NodeId node);

    /** Node this NI belongs to. */
    NodeId node() const { return node_; }

    /** Queue a packet for injection. */
    void enqueue(const Packet &packet);

    /** Packets waiting (not yet fully streamed into the router). */
    std::size_t queueDepth() const { return queue_.size(); }

    /**
     * True iff nothing is queued, streaming, or awaiting an end-to-end
     * ACK. Pending retransmission state keeps the NI non-idle so the
     * active-set kernel evaluates it every cycle (retry timers must
     * fire on schedule) and drain() waits for retransmission closure.
     */
    bool idle() const
    {
        return queue_.empty() && !streaming_ && pending_.empty();
    }

    /**
     * Architectural-state equality with the NI of the same node and
     * configuration: injection queue, the outgoing stream, VC
     * trackers, reassembly (staged flits included), the class
     * round-robin, and the retransmission state (pending ACKs,
     * delivered set, ACK count). The wire record, the ejection log
     * and the statistics counters are ignored, as are the stream
     * registers while not streaming and the reassembly dirty bit
     * without retransmission, which nothing reads then (DESIGN.md §16).
     */
    bool sameState(const NetworkInterface &other) const;

    /** Evaluate one cycle of injection and ejection. */
    void evaluate(Cycle cycle, LinkIo &io);

    /**
     * Credit-only fast path for the active-set kernel: apply credits
     * returning from the router (@p credit_in, per-VC mask) to an
     * idle NI without evaluating it. For an idle NI with no arriving
     * flit this is the only state change evaluate() would make —
     * nothing can inject or eject — so the skip is unobservable.
     */
    void applyCreditIncrements(std::uint32_t credit_in);

    /** Observable signals of the most recent cycle. */
    const NiWires &wires() const { return wires_; }

    /** Every flit delivered to this node, in arrival order. */
    const std::vector<EjectionRecord> &ejectionLog() const { return log_; }

    /** Discard the ejection log (keeps counters). */
    void clearLog() { log_.clear(); }

    /** Exchange the ejection log with @p log (no copy). */
    void swapLog(std::vector<EjectionRecord> &log) { log_.swap(log); }

    /** Total packets fully injected. */
    std::uint64_t packetsInjected() const { return packets_injected_; }

    /** Total flits injected. */
    std::uint64_t flitsInjected() const { return flits_injected_; }

    /** Total flits ejected. */
    std::uint64_t flitsEjected() const { return flits_ejected_; }

    /** Total packets whose tail was ejected cleanly. */
    std::uint64_t packetsEjected() const { return packets_ejected_; }

    /** Sum over ejected packets of (tail ejection - injection) cycles. */
    std::uint64_t latencySum() const { return latency_sum_; }

    // ------------------------------------------------------------------
    // End-to-end retransmission (recovery subsystem). All of this is
    // inert unless NetworkConfig::retransmit.enabled.
    // ------------------------------------------------------------------

    /** Packets awaiting an ACK (including queued/streaming retries). */
    std::size_t pendingAcks() const { return pending_.size(); }

    /** Packets re-injected after an ACK timeout or a recovery purge. */
    std::uint64_t retransmits() const { return retransmits_; }

    /** Acknowledgement packets sent by the ejection side. */
    std::uint64_t acksSent() const { return acks_sent_; }

    /** Cleanly delivered packets suppressed as duplicates. */
    std::uint64_t duplicatesSuppressed() const
    {
        return duplicates_suppressed_;
    }

    /** Packets given up on after maxRetries timeouts. */
    std::uint64_t packetsAbandoned() const { return packets_abandoned_; }

    /** Grant back @p count injection credits on VC @p vc (capped). */
    void restoreCredits(unsigned vc, unsigned count);

    /**
     * Recovery purge: abort the outgoing stream if it belongs to a
     * suspect packet (re-queueing it for retransmission when enabled)
     * and discard staged ejection state of suspect packets. Buffer and
     * link flits are handled by Network::purgePackets.
     */
    void purgePackets(const std::unordered_set<PacketId> &suspects);

    /**
     * Flits not yet handed to the router, grouped as (destination,
     * count) pairs: the unsent remainder of the streaming packet, plus
     * — when @p include_queued — the packets still waiting in the
     * injection queue.
     */
    std::vector<std::pair<NodeId, unsigned>>
    pendingFlitsByDst(bool include_queued = true) const;

  private:
    /** Mirror of one local-input VC's availability at the router. */
    struct VcTracker
    {
        bool free = true;
        std::uint8_t credits = 0;

        bool operator==(const VcTracker &) const = default;
    };

    /** Reassembly state of one ejection-side VC. */
    struct Reassembly
    {
        bool open = false;
        PacketId packet = kInvalidPacket;
        std::uint16_t nextSeq = 0;

        /** Recovery mode: an anomaly hit the open packet. */
        bool dirty = false;

        /**
         * Recovery mode: flits of the open packet, committed to the
         * ejection log only when its tail arrives clean — a corrupted
         * or duplicate delivery must leave no trace in the log the
         * golden comparator reads.
         */
        std::vector<EjectionRecord> staged;
    };

    /** One packet awaiting its end-to-end acknowledgement. */
    struct PendingAck
    {
        Packet packet;
        Cycle deadline = 0;    ///< Next retry time (once not queued).
        unsigned attempts = 0; ///< Retransmissions performed so far.
        bool queued = false;   ///< A copy is in queue_ or streaming.
        bool acked = false;    ///< ACK arrived while still streaming.

        bool operator==(const PendingAck &) const = default;
    };

    void doInject(Cycle cycle, LinkIo &io);
    void doEject(Cycle cycle, LinkIo &io);
    void doRetryTimeouts(Cycle cycle);
    void onTailInjected(Cycle cycle);
    void handleAck(PacketId id);
    void sendAck(const Flit &tail, Cycle cycle);
    Cycle retryDelay(unsigned attempts) const;
    PendingAck *findPending(PacketId id);
    void erasePending(PacketId id);

    NodeId node_;
    RouterParams params_;
    RetransmitParams retransmit_;
    int num_nodes_ = 0;

    std::deque<Packet> queue_;
    bool streaming_ = false;
    Packet current_;
    std::uint16_t next_seq_ = 0;
    unsigned stream_vc_ = 0;

    std::vector<VcTracker> trackers_;    // [vc]
    std::vector<Reassembly> reassembly_; // [vc]
    std::vector<std::uint8_t> class_rr_; // next VC to try per class

    NiWires wires_;
    std::vector<EjectionRecord> log_;

    std::uint64_t packets_injected_ = 0;
    std::uint64_t flits_injected_ = 0;
    std::uint64_t flits_ejected_ = 0;
    std::uint64_t packets_ejected_ = 0;
    std::uint64_t latency_sum_ = 0;

    std::vector<PendingAck> pending_;        ///< Awaiting end-to-end ACK.
    std::unordered_set<PacketId> delivered_; ///< Duplicate suppression.
    std::uint64_t ack_count_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t acks_sent_ = 0;
    std::uint64_t duplicates_suppressed_ = 0;
    std::uint64_t packets_abandoned_ = 0;
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_INTERFACE_HPP
