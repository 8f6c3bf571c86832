/**
 * @file
 * Quickstart: build an 8x8 mesh with NoCAlert attached, run uniform
 * random traffic, then inject a single transient fault and watch the
 * checkers catch it in real time.
 *
 *   ./quickstart [--width N] [--height N] [--rate R] [--cycles N]
 */

#include <cstdio>
#include <string>

#include "core/nocalert.hpp"
#include "fault/injector.hpp"
#include "noc/network.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace nocalert;

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv,
                    {"width", "height", "rate", "cycles", "seed"});

    noc::NetworkConfig config;
    config.width = static_cast<int>(cli.getInt("width", 8));
    config.height = static_cast<int>(cli.getInt("height", 8));

    noc::TrafficSpec traffic;
    traffic.injectionRate = cli.getDouble("rate", 0.05);
    traffic.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));

    const noc::Cycle cycles = cli.getInt("cycles", 2000);

    // ---- Phase 1: fault-free operation ----
    noc::Network network(config, traffic);
    core::NoCAlertEngine nocalert(network);

    network.run(cycles);
    const noc::NetworkStats clean = network.stats();
    std::printf("fault-free: %s\n", clean.summary().c_str());
    std::printf("fault-free alerts: %zu (expected 0)\n\n",
                nocalert.log().count());

    // ---- Phase 2: inject one transient fault ----
    // Flip one bit of an SA2 grant vector at the mesh center (output
    // East, bit 2 = input port South): the switch forwards a flit
    // nobody arbitrated for.
    const int center = config.nodeAt({config.width / 2, config.height / 2});
    fault::FaultSite site;
    const std::string error = fault::parseFaultSite(
        "r" + std::to_string(center) + ":Sa2Grant:E:2", config, site);
    if (!error.empty())
        NOCALERT_FATAL("cannot inject: ", error);

    fault::FaultInjector injector;
    injector.arm({site, network.cycle(), fault::FaultKind::Transient});
    injector.attach(network);

    nocalert.onAlert([](const core::Assertion &assertion) {
        std::printf("  ALERT cycle=%lld router=%d invariant=%u (%s)\n",
                    static_cast<long long>(assertion.cycle),
                    assertion.router,
                    core::invariantIndex(assertion.id),
                    core::invariantName(assertion.id));
    });

    std::printf("injecting %s at cycle %lld...\n",
                site.describe().c_str(),
                static_cast<long long>(network.cycle()));
    network.run(50);

    std::printf("\nalerts raised: %zu\n", nocalert.log().count());
    if (auto first = nocalert.log().firstCycle()) {
        std::printf("first detection latency: %lld cycle(s)\n",
                    static_cast<long long>(*first) -
                        (network.cycle() - 50));
    }
    return 0;
}
