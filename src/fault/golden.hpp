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
#include <string>
#include <vector>

#include "core/invariant.hpp"
#include "noc/interface.hpp"

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
 * Indexed golden ejection log, stored flat: the golden flits in log
 * order plus an index of their log positions sorted by (packet, seq).
 */
class GoldenReference
{
  public:
    /**
     * Build the reference from a fault-free run's ejection records.
     * Panics if the log holds a flit twice or a packet whose flits
     * ejected at two nodes; neither can happen fault-free.
     */
    explicit GoldenReference(
        const std::vector<noc::EjectionRecord> &golden);

    /** Number of flits the golden run delivered. */
    std::size_t flitCount() const { return entries_.size(); }

    /**
     * Compare a faulty run's ejection records against the reference.
     *
     * @param faulty  All flits the faulty run ejected (any node order;
     *                per-node records must be time-ordered).
     * @param drained True iff the faulty network reached quiescence
     *                within its horizon; false adds a bounded-delivery
     *                violation.
     */
    GoldenComparison compare(
        const std::vector<noc::EjectionRecord> &faulty,
        bool drained) const;

  private:
    /** One golden flit. */
    struct Entry
    {
        noc::PacketId packet = noc::kInvalidPacket;
        std::uint16_t seq = 0;
        noc::NodeId node = noc::kInvalidNode;
        std::uint32_t packetSlot = 0; ///< Dense index of the packet.
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
};

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_GOLDEN_HPP
