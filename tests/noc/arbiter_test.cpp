#include "noc/arbiter.hpp"

#include <gtest/gtest.h>

#include "util/bits.hpp"

namespace nocalert::noc {
namespace {

TEST(RoundRobin, NoRequestNoGrant)
{
    EXPECT_EQ(RoundRobinArbiter::compute(0, 0, 4), 0u);
}

TEST(RoundRobin, SingleRequestWins)
{
    for (unsigned v = 0; v < 4; ++v)
        EXPECT_EQ(RoundRobinArbiter::compute(1ULL << v, 0, 4),
                  1ULL << v);
}

TEST(RoundRobin, PointerSelectsFirstAtOrAfter)
{
    // Requests from clients 1 and 3.
    const std::uint64_t req = 0b1010;
    EXPECT_EQ(RoundRobinArbiter::compute(req, 0, 4), 0b0010u);
    EXPECT_EQ(RoundRobinArbiter::compute(req, 1, 4), 0b0010u);
    EXPECT_EQ(RoundRobinArbiter::compute(req, 2, 4), 0b1000u);
    EXPECT_EQ(RoundRobinArbiter::compute(req, 3, 4), 0b1000u);
}

TEST(RoundRobin, CorruptedPointerWraps)
{
    // A pointer beyond the client count behaves like pointer % n.
    EXPECT_EQ(RoundRobinArbiter::compute(0b0001, 17, 4), 0b0001u);
}

TEST(RoundRobin, GrantAlwaysOneHotAndRequested)
{
    for (std::uint64_t req = 1; req < 32; ++req) {
        for (unsigned ptr = 0; ptr < 5; ++ptr) {
            const std::uint64_t grant =
                RoundRobinArbiter::compute(req, ptr, 5);
            EXPECT_TRUE(isOneHot(grant));
            EXPECT_EQ(grant & ~req, 0u);
        }
    }
}

TEST(RoundRobin, CommitAdvancesPastWinner)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.pointer(), 0u);
    arb.commit(0b0100); // winner 2
    EXPECT_EQ(arb.pointer(), 3u);
    arb.commit(0b1000); // winner 3 -> wraps
    EXPECT_EQ(arb.pointer(), 0u);
}

TEST(RoundRobin, CommitIgnoresNonOneHot)
{
    RoundRobinArbiter arb(4);
    arb.setPointer(2);
    arb.commit(0);
    EXPECT_EQ(arb.pointer(), 2u);
    arb.commit(0b0110);
    EXPECT_EQ(arb.pointer(), 2u);
}

TEST(RoundRobin, FairnessOverWindow)
{
    // All four clients always request: each must win exactly 25%.
    RoundRobinArbiter arb(4);
    int wins[4] = {0, 0, 0, 0};
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t grant =
            RoundRobinArbiter::compute(0b1111, arb.pointer(), 4);
        ++wins[lowestSetBit(grant)];
        arb.commit(grant);
    }
    for (int w : wins)
        EXPECT_EQ(w, 100);
}

TEST(RoundRobin, SixtyFourClients)
{
    RoundRobinArbiter arb(64);
    const std::uint64_t req = (1ULL << 63) | 1;
    EXPECT_EQ(RoundRobinArbiter::compute(req, 1, 64), 1ULL << 63);
    EXPECT_EQ(RoundRobinArbiter::compute(req, 0, 64), 1ULL);
}

} // namespace
} // namespace nocalert::noc
