#include "fault/golden.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "noc/network.hpp"
#include "util/rng.hpp"

namespace nocalert::fault {
namespace {

noc::EjectionRecord
rec(noc::PacketId pkt, std::uint16_t seq, noc::NodeId node,
    noc::Cycle cycle)
{
    noc::EjectionRecord record;
    record.cycle = cycle;
    record.node = node;
    record.flit.packet = pkt;
    record.flit.seq = seq;
    record.flit.dst = node;
    return record;
}

std::vector<noc::EjectionRecord>
goldenLog()
{
    return {rec(1, 0, 5, 10), rec(1, 1, 5, 11), rec(1, 2, 5, 12),
            rec(2, 0, 7, 20)};
}

TEST(GoldenReference, IdenticalLogIsClean)
{
    GoldenReference golden(goldenLog());
    EXPECT_EQ(golden.flitCount(), 4u);
    const auto cmp = golden.compare(goldenLog(), /*drained=*/true);
    EXPECT_FALSE(cmp.violated());
    EXPECT_EQ(cmp.conditions(), 0);
}

TEST(GoldenReference, TimingShiftsAreBenign)
{
    GoldenReference golden(goldenLog());
    auto late = goldenLog();
    for (auto &record : late)
        record.cycle += 500; // slower delivery is not a violation
    EXPECT_FALSE(golden.compare(late, true).violated());
}

TEST(GoldenReference, MissingFlitIsDrop)
{
    GoldenReference golden(goldenLog());
    auto faulty = goldenLog();
    faulty.erase(faulty.begin() + 1); // lose pkt 1 seq 1
    const auto cmp = golden.compare(faulty, true);
    ASSERT_TRUE(cmp.violated());
    EXPECT_EQ(cmp.violations[0].type, GoldenViolation::Type::FlitLost);
    EXPECT_EQ(cmp.violations[0].packet, 1u);
    EXPECT_EQ(cmp.violations[0].seq, 1);
    EXPECT_TRUE(cmp.conditions() & core::kNoFlitDrop);
}

TEST(GoldenReference, UnknownFlitIsNew)
{
    GoldenReference golden(goldenLog());
    auto faulty = goldenLog();
    faulty.push_back(rec(9, 0, 3, 30)); // never created in golden
    const auto cmp = golden.compare(faulty, true);
    ASSERT_TRUE(cmp.violated());
    EXPECT_EQ(cmp.violations[0].type, GoldenViolation::Type::NewFlit);
    EXPECT_TRUE(cmp.conditions() & core::kNoNewFlitGeneration);
}

TEST(GoldenReference, DuplicateFlitIsNew)
{
    GoldenReference golden(goldenLog());
    auto faulty = goldenLog();
    faulty.push_back(rec(2, 0, 7, 25));
    const auto cmp = golden.compare(faulty, true);
    ASSERT_TRUE(cmp.violated());
    EXPECT_EQ(cmp.violations[0].type, GoldenViolation::Type::NewFlit);
}

TEST(GoldenReference, WrongNodeIsMisdelivery)
{
    GoldenReference golden(goldenLog());
    auto faulty = goldenLog();
    faulty[3].node = 8; // pkt 2 ejected at node 8 instead of 7
    const auto cmp = golden.compare(faulty, true);
    ASSERT_TRUE(cmp.violated());
    bool wrong_dest = false;
    for (const auto &v : cmp.violations)
        wrong_dest |= v.type == GoldenViolation::Type::WrongDestination;
    EXPECT_TRUE(wrong_dest);
    EXPECT_TRUE(cmp.conditions() & core::kNoCorruptionOrMixing);
}

TEST(GoldenReference, ReorderIsOrderViolation)
{
    GoldenReference golden(goldenLog());
    std::vector<noc::EjectionRecord> faulty = {
        rec(1, 0, 5, 10), rec(1, 2, 5, 11), rec(1, 1, 5, 12),
        rec(2, 0, 7, 20)};
    const auto cmp = golden.compare(faulty, true);
    ASSERT_TRUE(cmp.violated());
    bool order = false;
    for (const auto &v : cmp.violations)
        order |= v.type == GoldenViolation::Type::OrderViolation;
    EXPECT_TRUE(order);
}

TEST(GoldenReference, NotDrainedIsBoundedDeliveryViolation)
{
    GoldenReference golden(goldenLog());
    const auto cmp = golden.compare(goldenLog(), /*drained=*/false);
    ASSERT_TRUE(cmp.violated());
    EXPECT_EQ(cmp.violations[0].type, GoldenViolation::Type::NotDrained);
    EXPECT_TRUE(cmp.conditions() & core::kBoundedDelivery);
}

TEST(GoldenReference, MultipleViolationsAccumulate)
{
    GoldenReference golden(goldenLog());
    std::vector<noc::EjectionRecord> faulty = {
        rec(1, 0, 5, 10), // seq 1, 2 lost
        rec(9, 0, 3, 15), // new
    };
    const auto cmp = golden.compare(faulty, false);
    EXPECT_GE(cmp.violations.size(), 4u);
    const std::uint8_t conditions = cmp.conditions();
    EXPECT_TRUE(conditions & core::kNoFlitDrop);
    EXPECT_TRUE(conditions & core::kNoNewFlitGeneration);
    EXPECT_TRUE(conditions & core::kBoundedDelivery);
}

TEST(GoldenReference, DescribeIsReadable)
{
    GoldenViolation v{GoldenViolation::Type::FlitLost, 12, 3, 4};
    const std::string text = v.describe();
    EXPECT_NE(text.find("flit-lost"), std::string::npos);
    EXPECT_NE(text.find("pkt=12"), std::string::npos);
}

TEST(GoldenReference, DuplicateGoldenEjectionIsAnInternalBug)
{
    auto bad = goldenLog();
    bad.push_back(bad.front());
    EXPECT_DEATH(GoldenReference{bad}, "ejected flit twice");
}

TEST(GoldenReference, PacketEjectedAtTwoNodesIsAnInternalBug)
{
    // The reference keeps one last-seq slot per packet, so a golden
    // packet must eject at a single node.
    auto bad = goldenLog();
    bad[1].node = 6; // pkt 1: seq 0 and 2 at node 5, seq 1 at node 6
    EXPECT_DEATH(GoldenReference{bad}, "ejected packet at two nodes");
}

/**
 * The std::map comparator GoldenReference used before its flat
 * arrays, kept as the oracle for the differential test.
 */
std::vector<GoldenViolation>
mapOracle(const std::vector<noc::EjectionRecord> &golden,
          const std::vector<noc::EjectionRecord> &faulty, bool drained)
{
    using Key = std::pair<noc::PacketId, std::uint16_t>;
    std::map<Key, noc::NodeId> flits;
    for (const noc::EjectionRecord &rec : golden)
        flits.emplace(Key{rec.flit.packet, rec.flit.seq}, rec.node);

    std::vector<GoldenViolation> violations;
    std::map<Key, unsigned> seen;
    std::map<std::pair<noc::PacketId, noc::NodeId>, int> last_seq;

    for (const noc::EjectionRecord &rec : faulty) {
        const Key key{rec.flit.packet, rec.flit.seq};
        const auto golden_it = flits.find(key);

        if (golden_it == flits.end()) {
            violations.push_back({GoldenViolation::Type::NewFlit,
                                  rec.flit.packet, rec.flit.seq,
                                  rec.node});
            continue;
        }

        unsigned &count = seen[key];
        ++count;
        if (count > 1) {
            violations.push_back({GoldenViolation::Type::NewFlit,
                                  rec.flit.packet, rec.flit.seq,
                                  rec.node});
            continue;
        }

        if (golden_it->second != rec.node) {
            violations.push_back(
                {GoldenViolation::Type::WrongDestination,
                 rec.flit.packet, rec.flit.seq, rec.node});
            continue;
        }

        auto &last = last_seq[{rec.flit.packet, rec.node}];
        if (static_cast<int>(rec.flit.seq) + 1 <= last) {
            violations.push_back(
                {GoldenViolation::Type::OrderViolation,
                 rec.flit.packet, rec.flit.seq, rec.node});
        }
        if (static_cast<int>(rec.flit.seq) + 1 > last)
            last = static_cast<int>(rec.flit.seq) + 1;
    }

    for (const auto &[key, node] : flits) {
        if (seen.find(key) == seen.end()) {
            violations.push_back({GoldenViolation::Type::FlitLost,
                                  key.first, key.second, node});
        }
    }

    if (!drained) {
        violations.push_back({GoldenViolation::Type::NotDrained,
                              noc::kInvalidPacket, 0,
                              noc::kInvalidNode});
    }
    return violations;
}

/** The ejection log of a fault-free, drained 4x4 run. */
std::vector<noc::EjectionRecord>
realGoldenLog()
{
    noc::NetworkConfig config;
    config.width = 4;
    config.height = 4;
    noc::TrafficSpec traffic;
    traffic.injectionRate = 0.05;
    traffic.seed = 17;
    traffic.stopCycle = 400;

    noc::Network net(config, traffic);
    net.run(400);
    EXPECT_TRUE(net.drain(4000));
    return net.collectEjections();
}

/** One random edit of the kinds a faulty run produces. */
void
applyRandomEdit(std::vector<noc::EjectionRecord> &log, Pcg32 &rng,
                int nodes)
{
    if (log.empty())
        return;
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.nextBounded(static_cast<std::uint32_t>(n)));
    };
    const std::size_t i = pick(log.size());
    switch (rng.nextBounded(7)) {
      case 0: // drop
        log.erase(log.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 1: { // duplicate, anywhere in the log
        const noc::EjectionRecord copy = log[i];
        log.insert(log.begin() +
                       static_cast<std::ptrdiff_t>(pick(log.size() + 1)),
                   copy);
        break;
      }
      case 2: // move to another node
        log[i].node = static_cast<noc::NodeId>(
            (log[i].node + 1 + static_cast<int>(pick(nodes - 1))) %
            nodes);
        break;
      case 3: { // swap with another flit of the same packet
        for (std::size_t j = 0; j < log.size(); ++j) {
            if (j != i && log[j].flit.packet == log[i].flit.packet) {
                std::swap(log[i], log[j]);
                break;
            }
        }
        break;
      }
      case 4: { // a flit of a packet golden never saw
        noc::EjectionRecord extra = log[i];
        extra.flit.packet = 0xF00D0000u + rng.nextBounded(4);
        log.insert(log.begin() +
                       static_cast<std::ptrdiff_t>(pick(log.size() + 1)),
                   extra);
        break;
      }
      case 5: { // an unknown seq of a known packet
        noc::EjectionRecord extra = log[i];
        extra.flit.seq = static_cast<std::uint16_t>(
            100 + rng.nextBounded(4));
        log.insert(log.begin() +
                       static_cast<std::ptrdiff_t>(pick(log.size() + 1)),
                   extra);
        break;
      }
      case 6: // truncate
        log.resize(i);
        break;
    }
}

TEST(GoldenReference, FlatCompareMatchesMapOracleUnderRandomEdits)
{
    const std::vector<noc::EjectionRecord> golden = realGoldenLog();
    ASSERT_GT(golden.size(), 500u);
    const GoldenReference reference(golden);
    constexpr int kNodes = 16;

    std::map<GoldenViolation::Type, unsigned> types_seen;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Pcg32 rng(seed);
        std::vector<noc::EjectionRecord> faulty = golden;
        // Seed 0 keeps the log whole: a replay must stay clean.
        const unsigned edits = seed == 0 ? 0 : 1 + rng.nextBounded(5);
        for (unsigned e = 0; e < edits; ++e)
            applyRandomEdit(faulty, rng, kNodes);

        for (const bool drained : {true, false}) {
            const std::vector<GoldenViolation> want =
                mapOracle(golden, faulty, drained);
            const GoldenComparison got =
                reference.compare(faulty, drained);
            ASSERT_EQ(got.violations.size(), want.size())
                << "drained=" << drained;
            for (std::size_t k = 0; k < want.size(); ++k) {
                const GoldenViolation &w = want[k];
                const GoldenViolation &g = got.violations[k];
                ASSERT_TRUE(w.type == g.type && w.packet == g.packet &&
                            w.seq == g.seq && w.node == g.node)
                    << "violation " << k << ": want " << w.describe()
                    << ", got " << g.describe();
                ++types_seen[w.type];
            }
        }
        if (seed == 0) {
            EXPECT_FALSE(reference.compare(faulty, true).violated());
        }
    }

    // Every violation type occurred, so no branch went untested.
    for (const auto type :
         {GoldenViolation::Type::FlitLost, GoldenViolation::Type::NewFlit,
          GoldenViolation::Type::WrongDestination,
          GoldenViolation::Type::OrderViolation,
          GoldenViolation::Type::NotDrained}) {
        EXPECT_GT(types_seen[type], 0u) << violationTypeName(type);
    }
}

} // namespace
} // namespace nocalert::fault
