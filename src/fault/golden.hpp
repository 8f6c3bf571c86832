/**
 * @file
 * The Golden Reference (paper Section 5.2): the per-flit ejection log
 * of a fault-free run, and the comparator that decides whether a
 * fault-injected run violated network correctness.
 *
 * The four correctness conditions (Section 4.1) are evaluated at flit
 * granularity, which the paper argues is strictly stronger than the
 * packet-level formulation: (1) bounded delivery, (2) no flit drop,
 * (3) no new flit generation, (4) no data corruption / packet mixing,
 * plus preservation of intra-packet flit order.
 */

#ifndef NOCALERT_FAULT_GOLDEN_HPP
#define NOCALERT_FAULT_GOLDEN_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/invariant.hpp"
#include "forever/forever.hpp"
#include "noc/interface.hpp"
#include "noc/network.hpp"

namespace nocalert::fault {

/** One detected divergence from the golden run. */
struct GoldenViolation
{
    enum class Type : std::uint8_t {
        FlitLost,         ///< A golden flit never ejected (drop/stuck).
        NewFlit,          ///< An ejected flit the golden run never saw.
        WrongDestination, ///< Ejected at a different node than golden.
        OrderViolation,   ///< Intra-packet sequence order broken.
        NotDrained,       ///< Traffic still in flight at the horizon.
    };

    Type type = Type::FlitLost;
    noc::PacketId packet = noc::kInvalidPacket;
    std::uint16_t seq = 0;
    noc::NodeId node = noc::kInvalidNode;

    /** Human-readable description. */
    std::string describe() const;
};

/** Name of a violation type. */
const char *violationTypeName(GoldenViolation::Type type);

/** Outcome of comparing a faulty run against the golden reference. */
struct GoldenComparison
{
    std::vector<GoldenViolation> violations;

    /** True iff the run violated network correctness in any way. */
    bool violated() const { return !violations.empty(); }

    /** CorrectnessCondition bits that were breached. */
    std::uint8_t conditions() const;
};

/**
 * The golden run, as fault runs are judged against it: its ejection
 * log, stored flat (the golden flits in log order plus an index of
 * their log positions sorted by (packet, seq)), and optionally
 * checkpoints of its trajectory that let a converged fault run stop
 * early (DESIGN.md §16).
 */
class GoldenReference
{
  public:
    /**
     * The golden run's state at one cycle boundary after the warm
     * instant: the network without ejection logs, plus ForEVeR's
     * state when the campaign runs ForEVeR. A fault run whose
     * network and ForEVeR state equal a checkpoint's at its cycle
     * replays golden from there on.
     */
    struct Checkpoint
    {
        noc::Network network;
        std::optional<forever::ForeverState> forever;

        noc::Cycle cycle() const { return network.cycle(); }
    };

    /**
     * Build a bare reference from a fault-free run's ejection records:
     * no checkpoints, so runs against it never converge to golden.
     * Panics if the log holds a flit twice or a packet whose flits
     * ejected at two nodes; neither can happen fault-free.
     */
    explicit GoldenReference(
        const std::vector<noc::EjectionRecord> &golden);

    /**
     * Build a checkpointed reference. @p golden must be the golden
     * network's collectEjections() (grouped by node, time-ordered per
     * node); @p checkpoints are in increasing cycle order, and
     * @p forever_alarms are the cycles of every ForEVeR alert golden
     * raised over the fault runs' full horizon, in order.
     */
    GoldenReference(const std::vector<noc::EjectionRecord> &golden,
                    std::vector<Checkpoint> checkpoints,
                    std::vector<noc::Cycle> forever_alarms);

    /** Number of flits the golden run delivered. */
    std::size_t flitCount() const { return entries_.size(); }

    /** Checkpoints of the golden trajectory (empty for a bare log). */
    const std::vector<Checkpoint> &checkpoints() const
    {
        return checkpoints_;
    }

    /** Cycle of golden's first ForEVeR alert at or after @p cycle. */
    std::optional<noc::Cycle> foreverAlarmFrom(noc::Cycle cycle) const;

    /**
     * Compare a faulty run's ejection records against the reference.
     *
     * @param faulty  All flits the faulty run ejected (any node order;
     *                per-node records must be time-ordered).
     * @param drained True iff the faulty network reached quiescence
     *                within its horizon; false adds a bounded-delivery
     *                violation.
     * @param golden_from Set when the run stopped at this cycle in a
     *                checkpoint's state. @p faulty must then be in
     *                collectEjections() order, and each node's records
     *                are followed by golden's records of that node at
     *                cycles >= golden_from: exactly the sequence the
     *                full run would have ejected.
     */
    GoldenComparison compare(
        const std::vector<noc::EjectionRecord> &faulty, bool drained,
        std::optional<noc::Cycle> golden_from = std::nullopt) const;

  private:
    /** One golden flit. */
    struct Entry
    {
        noc::PacketId packet = noc::kInvalidPacket;
        std::uint16_t seq = 0;
        noc::NodeId node = noc::kInvalidNode;
        std::uint32_t packetSlot = 0; ///< Dense index of the packet.
        std::uint32_t cycle = 0;      ///< Ejection cycle (fits padding).
    };

    /** One node's records: entries_[begin, end). */
    struct NodeRange
    {
        noc::NodeId node = noc::kInvalidNode;
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

    /** Log position of one golden flit, keyed for binary search. */
    struct Key
    {
        noc::PacketId packet = noc::kInvalidPacket;
        std::uint16_t seq = 0;
        std::uint32_t pos = 0;

        bool operator<(const Key &other) const
        {
            if (packet != other.packet)
                return packet < other.packet;
            return seq < other.seq;
        }
    };

    /**
     * Log position of flit (@p packet, @p seq), or flitCount() if the
     * golden run never ejected it. Tries position @p hint first.
     */
    std::size_t find(noc::PacketId packet, std::uint16_t seq,
                     std::size_t hint) const;

    std::vector<Entry> entries_; ///< Golden log order.
    std::vector<Key> sorted_;    ///< (packet, seq) order.
    std::uint32_t packets_ = 0;  ///< Distinct golden packets.

    std::vector<NodeRange> nodes_; ///< Checkpointed only, node order.
    std::vector<Checkpoint> checkpoints_;
    std::vector<noc::Cycle> forever_alarms_;
};

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_GOLDEN_HPP
