#include "core/invariant.hpp"

#include <gtest/gtest.h>

#include <set>

#include "noc/config.hpp"

namespace nocalert::core {
namespace {

TEST(InvariantCatalog, HasAll32InTableOrder)
{
    const auto &catalog = invariantCatalog();
    ASSERT_EQ(catalog.size(), kNumInvariants);
    for (unsigned i = 0; i < kNumInvariants; ++i)
        EXPECT_EQ(invariantIndex(catalog[i].id), i + 1);
}

TEST(InvariantCatalog, NamesAndDescriptionsNonEmpty)
{
    for (const InvariantInfo &info : invariantCatalog()) {
        EXPECT_NE(info.name[0], '\0');
        EXPECT_GT(std::string(info.description).size(), 20u);
    }
}

TEST(InvariantCatalog, InfoLookupRoundTrips)
{
    for (unsigned i = 1; i <= kNumInvariants; ++i) {
        const auto id = static_cast<InvariantId>(i);
        EXPECT_EQ(invariantInfo(id).id, id);
        EXPECT_STREQ(invariantName(id), invariantInfo(id).name);
    }
}

TEST(InvariantCatalog, RiskLevelsMatchPaperObservations)
{
    // Observation 2: invariants 1 and 3 are the low-risk pair.
    EXPECT_EQ(invariantInfo(InvariantId::IllegalTurn).risk,
              RiskLevel::Low);
    EXPECT_EQ(invariantInfo(InvariantId::NonMinimalRoute).risk,
              RiskLevel::Low);
    // Observation 3: invariant 5 is benign-transient/fatal-permanent.
    EXPECT_EQ(invariantInfo(InvariantId::GrantToNobody).risk,
              RiskLevel::PermanentSensitive);
    // Nothing else is special.
    std::set<unsigned> special = {1, 3, 5};
    for (const InvariantInfo &info : invariantCatalog()) {
        if (!special.count(invariantIndex(info.id))) {
            EXPECT_EQ(info.risk, RiskLevel::Standard)
                << invariantIndex(info.id);
        }
    }
}

TEST(InvariantCatalog, ApplicabilityFlags)
{
    EXPECT_TRUE(
        invariantInfo(InvariantId::BufferAtomicityViolation).atomicOnly);
    EXPECT_TRUE(
        invariantInfo(InvariantId::NonAtomicPacketMixing).nonAtomicOnly);
    EXPECT_TRUE(
        invariantInfo(InvariantId::ConcurrentRcMultipleVcs).atomicOnly);
    EXPECT_TRUE(invariantInfo(InvariantId::NonMinimalRoute).minimalOnly);
    EXPECT_TRUE(invariantInfo(InvariantId::VaAgreesWithRc).needsVcs);
    EXPECT_FALSE(invariantInfo(InvariantId::IllegalTurn).needsVcs);

    // invariantApplies arms the flags against a router design.
    const noc::RouterParams baseline; // atomic buffers, 4 VCs
    noc::RouterParams non_atomic;
    non_atomic.atomicBuffers = false;
    noc::RouterParams wormhole;
    wormhole.numVcs = 1;
    const InvariantInfo &atomicity =
        invariantInfo(InvariantId::BufferAtomicityViolation);
    const InvariantInfo &mixing =
        invariantInfo(InvariantId::NonAtomicPacketMixing);
    const InvariantInfo &va = invariantInfo(InvariantId::VaAgreesWithRc);
    EXPECT_TRUE(invariantApplies(atomicity, baseline));
    EXPECT_FALSE(invariantApplies(atomicity, non_atomic));
    EXPECT_FALSE(invariantApplies(mixing, baseline));
    EXPECT_TRUE(invariantApplies(mixing, non_atomic));
    EXPECT_TRUE(invariantApplies(va, baseline));
    EXPECT_FALSE(invariantApplies(va, wormhole));
    EXPECT_TRUE(invariantApplies(invariantInfo(InvariantId::IllegalTurn),
                                 wormhole));
}

TEST(InvariantCatalog, EveryInvariantGuardsSomeCondition)
{
    for (const InvariantInfo &info : invariantCatalog()) {
        EXPECT_NE(info.conditions, 0)
            << "invariant " << invariantIndex(info.id)
            << " maps to no correctness condition";
    }
}

TEST(InvariantCatalog, AllFourConditionsCovered)
{
    std::uint8_t combined = 0;
    for (const InvariantInfo &info : invariantCatalog())
        combined |= info.conditions;
    EXPECT_EQ(combined, kBoundedDelivery | kNoFlitDrop |
                            kNoNewFlitGeneration | kNoCorruptionOrMixing);
}

TEST(InvariantCatalog, ModuleClassesPartitionTable1)
{
    // Table 1 sections: 1-3 RC, 4-13 arbiters, 14-16 crossbar,
    // 17-23 VC state, 24-28 buffer, 29-31 port, 32 network.
    auto module_of = [](unsigned i) {
        return invariantInfo(static_cast<InvariantId>(i)).module;
    };
    for (unsigned i = 1; i <= 3; ++i)
        EXPECT_EQ(module_of(i), ModuleClass::RoutingComputation) << i;
    for (unsigned i = 4; i <= 13; ++i)
        EXPECT_EQ(module_of(i), ModuleClass::Arbiters) << i;
    for (unsigned i = 14; i <= 16; ++i)
        EXPECT_EQ(module_of(i), ModuleClass::Crossbar) << i;
    for (unsigned i = 17; i <= 23; ++i)
        EXPECT_EQ(module_of(i), ModuleClass::VcState) << i;
    for (unsigned i = 24; i <= 28; ++i)
        EXPECT_EQ(module_of(i), ModuleClass::Buffer) << i;
    for (unsigned i = 29; i <= 31; ++i)
        EXPECT_EQ(module_of(i), ModuleClass::PortLevel) << i;
    EXPECT_EQ(module_of(32), ModuleClass::NetworkLevel);
}

TEST(InvariantCatalog, ModuleClassNames)
{
    EXPECT_STREQ(moduleClassName(ModuleClass::Crossbar), "Crossbar");
    EXPECT_STREQ(moduleClassName(ModuleClass::NetworkLevel),
                 "Network-level");
}

} // namespace
} // namespace nocalert::core
