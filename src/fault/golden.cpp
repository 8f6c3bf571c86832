#include "fault/golden.hpp"

#include <algorithm>
#include <cstdint>
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
        const auto pos = static_cast<std::uint32_t>(entries_.size());
        sorted_.push_back({rec.flit.packet, rec.flit.seq, pos});
        entries_.push_back({rec.flit.packet, rec.flit.seq, rec.node, 0});
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
                         bool drained) const
{
    GoldenComparison result;
    std::vector<std::uint8_t> seen(entries_.size(), 0);
    // Last ejected sequence number + 1 per golden packet, to verify
    // intra-packet order within its node's time-ordered log.
    std::vector<std::uint32_t> last_seq(packets_, 0);

    // Each node's log is time-ordered and collectEjections() lists
    // the nodes in order, so a run that delivers what golden did
    // replays golden's log: the flit after the previous match is
    // usually the one at the next log position.
    std::size_t hint = 0;
    for (const noc::EjectionRecord &rec : faulty) {
        const std::size_t pos = find(rec.flit.packet, rec.flit.seq, hint);
        if (pos == entries_.size()) {
            result.violations.push_back(
                {GoldenViolation::Type::NewFlit, rec.flit.packet,
                 rec.flit.seq, rec.node});
            continue;
        }
        hint = pos + 1;

        if (seen[pos]) {
            result.violations.push_back(
                {GoldenViolation::Type::NewFlit, rec.flit.packet,
                 rec.flit.seq, rec.node});
            continue;
        }
        seen[pos] = 1;

        const Entry &golden = entries_[pos];
        if (golden.node != rec.node) {
            result.violations.push_back(
                {GoldenViolation::Type::WrongDestination,
                 rec.flit.packet, rec.flit.seq, rec.node});
            continue;
        }

        std::uint32_t &last = last_seq[golden.packetSlot];
        const std::uint32_t next = std::uint32_t{rec.flit.seq} + 1;
        if (next <= last) {
            result.violations.push_back(
                {GoldenViolation::Type::OrderViolation,
                 rec.flit.packet, rec.flit.seq, rec.node});
        } else {
            last = next;
        }
    }

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
