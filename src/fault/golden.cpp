#include "fault/golden.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/log.hpp"

namespace nocalert::fault {

using core::kBoundedDelivery;
using core::kNoCorruptionOrMixing;
using core::kNoFlitDrop;
using core::kNoNewFlitGeneration;

const char *
violationTypeName(GoldenViolation::Type type)
{
    switch (type) {
      case GoldenViolation::Type::FlitLost: return "flit-lost";
      case GoldenViolation::Type::NewFlit: return "new-flit";
      case GoldenViolation::Type::WrongDestination: return "wrong-dest";
      case GoldenViolation::Type::OrderViolation: return "order";
      case GoldenViolation::Type::NotDrained: return "not-drained";
    }
    return "?";
}

std::string
GoldenViolation::describe() const
{
    std::ostringstream os;
    os << violationTypeName(type) << " pkt=" << packet << " seq=" << seq
       << " node=" << node;
    return os.str();
}

std::uint8_t
GoldenComparison::conditions() const
{
    std::uint8_t bits = 0;
    for (const GoldenViolation &v : violations) {
        switch (v.type) {
          case GoldenViolation::Type::FlitLost:
            bits |= kNoFlitDrop;
            break;
          case GoldenViolation::Type::NewFlit:
            bits |= kNoNewFlitGeneration;
            break;
          case GoldenViolation::Type::WrongDestination:
          case GoldenViolation::Type::OrderViolation:
            bits |= kNoCorruptionOrMixing;
            break;
          case GoldenViolation::Type::NotDrained:
            bits |= kBoundedDelivery;
            break;
        }
    }
    return bits;
}

GoldenReference::GoldenReference(
    const std::vector<noc::EjectionRecord> &golden)
{
    NOCALERT_ASSERT(golden.size() < UINT32_MAX,
                    "golden log too large to index: ", golden.size());
    entries_.reserve(golden.size());
    sorted_.reserve(golden.size());
    for (const noc::EjectionRecord &rec : golden) {
        NOCALERT_ASSERT(rec.cycle >= 0 && rec.cycle < UINT32_MAX,
                        "golden ejection cycle out of range: ", rec.cycle);
        const auto pos = static_cast<std::uint32_t>(entries_.size());
        sorted_.push_back({rec.flit.packet, rec.flit.seq, pos});
        entries_.push_back({rec.flit.packet, rec.flit.seq, rec.node, 0,
                            static_cast<std::uint32_t>(rec.cycle)});
    }
    std::sort(sorted_.begin(), sorted_.end());

    // A packet's flits are adjacent in key order: number the packets
    // and check each flit against its predecessor.
    for (std::size_t i = 0; i < sorted_.size(); ++i) {
        const Key &key = sorted_[i];
        Entry &entry = entries_[key.pos];
        if (i == 0 || sorted_[i - 1].packet != key.packet) {
            entry.packetSlot = packets_++;
            continue;
        }
        const Entry &prev = entries_[sorted_[i - 1].pos];
        if (prev.seq == key.seq) {
            NOCALERT_PANIC("golden run ejected flit twice: pkt=", key.packet,
                           " seq=", key.seq);
        }
        // compare() keeps one last-seq slot per packet, which is
        // exact only while each packet ejects at one node.
        if (prev.node != entry.node) {
            NOCALERT_PANIC("golden run ejected packet at two nodes: pkt=",
                           key.packet, " nodes ", prev.node, " and ",
                           entry.node);
        }
        entry.packetSlot = prev.packetSlot;
    }
}

GoldenReference::GoldenReference(
    const std::vector<noc::EjectionRecord> &golden,
    std::vector<Checkpoint> checkpoints,
    std::vector<noc::Cycle> forever_alarms)
    : GoldenReference(golden)
{
    checkpoints_ = std::move(checkpoints);
    forever_alarms_ = std::move(forever_alarms);
    // compare() splices golden suffixes per node, which needs each
    // node's records contiguous and time-ordered, as collectEjections()
    // lists them.
    for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
        const Entry &entry = entries_[pos];
        if (nodes_.empty() || nodes_.back().node != entry.node) {
            NOCALERT_ASSERT(nodes_.empty() || nodes_.back().node < entry.node,
                            "golden log not grouped by node at ", pos);
            nodes_.push_back({entry.node, static_cast<std::uint32_t>(pos),
                              static_cast<std::uint32_t>(pos)});
        } else {
            NOCALERT_ASSERT(entries_[pos - 1].cycle <= entry.cycle,
                            "golden log of node ", entry.node,
                            " not time-ordered at ", pos);
        }
        nodes_.back().end = static_cast<std::uint32_t>(pos + 1);
    }
}

std::optional<noc::Cycle>
GoldenReference::foreverAlarmFrom(noc::Cycle cycle) const
{
    const auto it = std::lower_bound(forever_alarms_.begin(),
                                     forever_alarms_.end(), cycle);
    if (it == forever_alarms_.end())
        return std::nullopt;
    return *it;
}

std::size_t
GoldenReference::find(noc::PacketId packet, std::uint16_t seq,
                      std::size_t hint) const
{
    if (hint < entries_.size() && entries_[hint].packet == packet &&
        entries_[hint].seq == seq)
        return hint;
    const Key probe{packet, seq};
    const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), probe);
    if (it == sorted_.end() || it->packet != packet || it->seq != seq)
        return entries_.size();
    return it->pos;
}

GoldenComparison
GoldenReference::compare(const std::vector<noc::EjectionRecord> &faulty,
                         bool drained,
                         std::optional<noc::Cycle> golden_from) const
{
    GoldenComparison result;
    std::vector<std::uint8_t> seen(entries_.size(), 0);
    // Last ejected sequence number + 1 per golden packet, to verify
    // intra-packet order within its node's time-ordered log.
    std::vector<std::uint32_t> last_seq(packets_, 0);

    // Judge one delivered flit, found at golden log position pos
    // (flitCount() when golden never ejected it).
    const auto deliver = [&](noc::PacketId packet, std::uint16_t seq,
                             noc::NodeId node, std::size_t pos) {
        if (pos == entries_.size() || seen[pos]) {
            result.violations.push_back(
                {GoldenViolation::Type::NewFlit, packet, seq, node});
            return;
        }
        seen[pos] = 1;

        const Entry &golden = entries_[pos];
        if (golden.node != node) {
            result.violations.push_back(
                {GoldenViolation::Type::WrongDestination, packet, seq,
                 node});
            return;
        }

        std::uint32_t &last = last_seq[golden.packetSlot];
        const std::uint32_t next = std::uint32_t{seq} + 1;
        if (next <= last) {
            result.violations.push_back(
                {GoldenViolation::Type::OrderViolation, packet, seq,
                 node});
        } else {
            last = next;
        }
    };

    // A stopped run's remaining ejections are golden's: after the
    // records of each node, deliver golden's records of that node
    // from the stop cycle on. nodes_ is in node order, so the
    // suffixes of all nodes below the next faulty record's are due.
    std::size_t next_range = 0;
    const auto deliverSuffixesBelow = [&](noc::NodeId limit) {
        for (; next_range < nodes_.size() &&
               nodes_[next_range].node < limit;
             ++next_range) {
            const NodeRange &range = nodes_[next_range];
            const auto first = std::partition_point(
                entries_.begin() + range.begin,
                entries_.begin() + range.end,
                [&](const Entry &e) {
                    return noc::Cycle{e.cycle} < *golden_from;
                });
            for (auto it = first; it != entries_.begin() + range.end; ++it)
                deliver(it->packet, it->seq, it->node,
                        static_cast<std::size_t>(it - entries_.begin()));
        }
    };
    NOCALERT_ASSERT(!golden_from || !checkpoints_.empty(),
                    "a golden suffix needs a checkpointed reference");

    // Each node's log is time-ordered and collectEjections() lists
    // the nodes in order, so a run that delivers what golden did
    // replays golden's log: the flit after the previous match is
    // usually the one at the next log position.
    std::size_t hint = 0;
    noc::NodeId prev_node = noc::kInvalidNode;
    for (const noc::EjectionRecord &rec : faulty) {
        if (golden_from) {
            NOCALERT_ASSERT(prev_node == noc::kInvalidNode ||
                                prev_node <= rec.node,
                            "stopped run's log not in node order");
            prev_node = rec.node;
            deliverSuffixesBelow(rec.node);
        }
        const std::size_t pos = find(rec.flit.packet, rec.flit.seq, hint);
        if (pos != entries_.size())
            hint = pos + 1;
        deliver(rec.flit.packet, rec.flit.seq, rec.node, pos);
    }
    if (golden_from)
        deliverSuffixesBelow(std::numeric_limits<noc::NodeId>::max());

    for (const Key &key : sorted_) {
        if (!seen[key.pos]) {
            result.violations.push_back(
                {GoldenViolation::Type::FlitLost, key.packet, key.seq,
                 entries_[key.pos].node});
        }
    }

    if (!drained) {
        result.violations.push_back(
            {GoldenViolation::Type::NotDrained, noc::kInvalidPacket, 0,
             noc::kInvalidNode});
    }

    return result;
}

} // namespace nocalert::fault
