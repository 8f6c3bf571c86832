#include "noc/network.hpp"

#include <gtest/gtest.h>

#include <map>

namespace nocalert::noc {
namespace {

NetworkConfig
mesh(int w, int h)
{
    NetworkConfig config;
    config.width = w;
    config.height = h;
    return config;
}

TrafficSpec
traffic(double rate, Cycle stop = -1, std::uint64_t seed = 1)
{
    TrafficSpec spec;
    spec.injectionRate = rate;
    spec.stopCycle = stop;
    spec.seed = seed;
    return spec;
}

TEST(Network, AllPacketsDeliveredAndDrained)
{
    Network net(mesh(4, 4), traffic(0.05, 1000));
    net.run(1000);
    EXPECT_TRUE(net.drain(3000));
    const NetworkStats stats = net.stats();
    EXPECT_GT(stats.packetsCreated, 100u);
    EXPECT_EQ(stats.packetsCreated, stats.packetsInjected);
    EXPECT_EQ(stats.packetsInjected, stats.packetsEjected);
    EXPECT_EQ(stats.flitsInjected, stats.flitsEjected);
}

TEST(Network, EveryFlitReachesItsDestinationExactlyOnce)
{
    Network net(mesh(4, 4), traffic(0.08, 600));
    net.run(600);
    ASSERT_TRUE(net.drain(3000));

    std::map<std::pair<PacketId, std::uint16_t>, int> seen;
    for (const EjectionRecord &rec : net.collectEjections()) {
        EXPECT_EQ(rec.flit.dst, rec.node);
        ++seen[{rec.flit.packet, rec.flit.seq}];
    }
    for (const auto &[key, count] : seen)
        EXPECT_EQ(count, 1);
    EXPECT_EQ(seen.size(), net.stats().flitsEjected);
}

TEST(Network, IntraPacketOrderPreserved)
{
    Network net(mesh(4, 4), traffic(0.08, 600, 5));
    net.run(600);
    ASSERT_TRUE(net.drain(3000));

    std::map<PacketId, std::uint16_t> next_seq;
    for (const EjectionRecord &rec : net.collectEjections()) {
        auto [it, fresh] = next_seq.try_emplace(rec.flit.packet, 0);
        EXPECT_EQ(rec.flit.seq, it->second)
            << "packet " << rec.flit.packet;
        ++it->second;
    }
}

TEST(Network, ZeroTrafficStaysQuiescent)
{
    Network net(mesh(3, 3), traffic(0.0));
    net.run(100);
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.stats().flitsEjected, 0u);
}

TEST(Network, DeterministicAcrossInstances)
{
    Network a(mesh(4, 4), traffic(0.05, 500, 9));
    Network b(mesh(4, 4), traffic(0.05, 500, 9));
    a.run(800);
    b.run(800);
    const auto ea = a.collectEjections();
    const auto eb = b.collectEjections();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].cycle, eb[i].cycle);
        EXPECT_EQ(ea[i].node, eb[i].node);
        EXPECT_EQ(ea[i].flit, eb[i].flit);
    }
}

TEST(Network, CopyResumesIdentically)
{
    Network a(mesh(4, 4), traffic(0.06, 700, 11));
    a.run(300);
    Network b(a);
    EXPECT_EQ(b.cycle(), a.cycle());
    a.run(500);
    b.run(500);
    const auto ea = a.collectEjections();
    const auto eb = b.collectEjections();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i)
        EXPECT_EQ(ea[i].flit, eb[i].flit);
    EXPECT_EQ(a.stats().flitsEjected, b.stats().flitsEjected);
}

TEST(Network, DenseObserversSeeEveryCycle)
{
    Network net(mesh(3, 3), traffic(0.1, 50));
    net.setKernelMode(KernelMode::Dense);
    int router_calls = 0;
    int ni_calls = 0;
    int cycle_calls = 0;
    net.setRouterObserver(
        [&](const Router &, const RouterWires &) { ++router_calls; });
    net.setNiObserver(
        [&](const NetworkInterface &, const NiWires &) { ++ni_calls; });
    net.setCycleObserver([&](const Network &) { ++cycle_calls; });
    net.run(10);
    EXPECT_EQ(router_calls, 9 * 10);
    EXPECT_EQ(ni_calls, 9 * 10);
    EXPECT_EQ(cycle_calls, 10);
}

TEST(Network, ActiveObserversSeeEveryEvaluatedModule)
{
    // The active kernel fires per-module observers exactly for the
    // modules it evaluates, and the cycle observer for every cycle.
    Network net(mesh(3, 3), traffic(0.1, 50));
    std::uint64_t router_calls = 0;
    std::uint64_t ni_calls = 0;
    int cycle_calls = 0;
    net.setRouterObserver(
        [&](const Router &, const RouterWires &) { ++router_calls; });
    net.setNiObserver(
        [&](const NetworkInterface &, const NiWires &) { ++ni_calls; });
    net.setCycleObserver([&](const Network &) { ++cycle_calls; });
    net.run(10);
    EXPECT_EQ(router_calls, net.routerEvaluations());
    EXPECT_EQ(ni_calls, net.niEvaluations());
    EXPECT_EQ(cycle_calls, 10);
    // At 10% load something must have happened, but not everywhere.
    EXPECT_GT(router_calls, 0u);
    EXPECT_LT(router_calls, 9u * 10u);
}

TEST(Network, ActiveKernelSkipsQuiescentWork)
{
    // Zero traffic: the active kernel evaluates nothing at all, while
    // the dense kernel touches every module every cycle.
    Network active(mesh(3, 3), traffic(0.0));
    active.run(100);
    EXPECT_EQ(active.routerEvaluations(), 0u);
    EXPECT_EQ(active.niEvaluations(), 0u);
    EXPECT_TRUE(active.quiescent());

    Network dense(mesh(3, 3), traffic(0.0));
    dense.setKernelMode(KernelMode::Dense);
    dense.run(100);
    EXPECT_EQ(dense.routerEvaluations(), 9u * 100u);
    EXPECT_EQ(dense.niEvaluations(), 9u * 100u);
}

TEST(Network, SettingATapHookPinsAllRoutersActive)
{
    Network net(mesh(3, 3), traffic(0.0));
    int taps = 0;
    net.setTapHook(
        [&](Router &, TapPoint tap, RouterWires &) {
            if (tap == TapPoint::CycleEnd)
                ++taps;
        });
    net.run(5);
    EXPECT_EQ(taps, 9 * 5); // every router, every cycle
    EXPECT_EQ(net.routerEvaluations(), 9u * 5u);

    // Narrowing the focus releases the pin on the other routers.
    net.setTapFocus({4});
    taps = 0;
    net.run(5);
    EXPECT_EQ(taps, 5); // only the focused router evaluates
}

TEST(Network, ClearingTheTapHookReleasesEveryPin)
{
    Network net(mesh(3, 3), traffic(0.0));
    net.setTapHook([](Router &, TapPoint, RouterWires &) {});
    net.setTapFocus({4});
    net.run(5);
    EXPECT_EQ(net.routerEvaluations(), 5u); // the focused router only

    // A null hook unpins the focused router too: an idle network
    // evaluates nothing.
    net.setTapHook(nullptr);
    net.run(5);
    EXPECT_EQ(net.routerEvaluations(), 5u);
}

TEST(Network, MutableRouterAccessWakesTheRouter)
{
    Network net(mesh(3, 3), traffic(0.0));
    net.run(3);
    EXPECT_EQ(net.routerEvaluations(), 0u);
    net.router(4); // direct-state-mutation surface
    net.run(1);
    EXPECT_EQ(net.routerEvaluations(), 1u);
    // A quiescent router retires from the active set again.
    net.run(3);
    EXPECT_EQ(net.routerEvaluations(), 1u);
}

TEST(Network, CopyDropsObservers)
{
    Network a(mesh(3, 3), traffic(0.1, 50));
    int calls = 0;
    a.setCycleObserver([&](const Network &) { ++calls; });
    Network b(a);
    b.run(5);
    EXPECT_EQ(calls, 0);
    a.run(5);
    EXPECT_EQ(calls, 5);
}

TEST(Network, HigherLoadHigherLatency)
{
    Network light(mesh(4, 4), traffic(0.02, 1500));
    Network heavy(mesh(4, 4), traffic(0.15, 1500));
    light.run(2000);
    heavy.run(2000);
    EXPECT_GT(heavy.stats().avgPacketLatency(),
              light.stats().avgPacketLatency());
}

TEST(Network, NonSquareMeshWorks)
{
    Network net(mesh(6, 2), traffic(0.05, 500));
    net.run(500);
    ASSERT_TRUE(net.drain(4000));
    const NetworkStats stats = net.stats();
    EXPECT_EQ(stats.flitsInjected, stats.flitsEjected);
    EXPECT_GT(stats.packetsEjected, 20u);
}

TEST(Network, AllRoutingAlgorithmsDeliver)
{
    for (RoutingAlgo algo : {RoutingAlgo::XY, RoutingAlgo::YX,
                             RoutingAlgo::WestFirst, RoutingAlgo::O1Turn}) {
        NetworkConfig config = mesh(4, 4);
        config.routing = algo;
        Network net(config, traffic(0.05, 500));
        net.run(500);
        ASSERT_TRUE(net.drain(4000)) << routingAlgoName(algo);
        EXPECT_EQ(net.stats().flitsInjected, net.stats().flitsEjected)
            << routingAlgoName(algo);
    }
}

TEST(Network, InFlightCensusMatchesAccounting)
{
    Network net(mesh(4, 4), traffic(0.08, 400, 3));
    net.run(200);
    const auto census = net.countInFlightFlitsPerDst(true);
    std::uint64_t in_flight = 0;
    for (std::uint64_t n : census)
        in_flight += n;
    const NetworkStats stats = net.stats();
    // Everything created but not yet ejected is somewhere in flight.
    const std::uint64_t expected =
        stats.flitsInjected - stats.flitsEjected;
    // Census additionally counts queued/unstreamed flits.
    EXPECT_GE(in_flight, expected);
    // After draining, nothing is left.
    ASSERT_TRUE(net.drain(4000));
    for (std::uint64_t n : net.countInFlightFlitsPerDst(true))
        EXPECT_EQ(n, 0u);
}

TEST(Network, StatsSummaryIsPopulated)
{
    Network net(mesh(3, 3), traffic(0.1, 100));
    net.run(200);
    const std::string summary = net.stats().summary();
    EXPECT_NE(summary.find("cycles=200"), std::string::npos);
    EXPECT_NE(summary.find("avgLat="), std::string::npos);
    EXPECT_GT(net.stats().throughput(9), 0.0);
}

} // namespace
} // namespace nocalert::noc
