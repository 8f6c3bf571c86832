/**
 * @file
 * Router-variant tour (paper Section 4.4): NoCAlert adapts to
 * micro-architectural variations because the invariant set is derived
 * from each design's functional rules. This example runs the same
 * traffic over four router variants and shows which invariants are
 * armed and that all variants stay alert-free when healthy.
 *
 *   ./router_variants [--cycles N]
 */

#include <cstdio>

#include "core/nocalert.hpp"
#include "noc/network.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace nocalert;

namespace {

unsigned
armedInvariants(const noc::RouterParams &params)
{
    unsigned count = 0;
    for (const core::InvariantInfo &info : core::invariantCatalog())
        count += core::invariantApplies(info, params);
    return count;
}

struct Variant
{
    const char *name;
    noc::NetworkConfig config;
};

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv, {"cycles", "rate"});
    const noc::Cycle cycles = cli.getInt("cycles", 3000);

    noc::TrafficSpec traffic;
    traffic.injectionRate = cli.getDouble("rate", 0.04);

    std::vector<Variant> variants;

    Variant baseline{"baseline (atomic, 4 VCs, XY)", {}};
    variants.push_back(baseline);

    Variant non_atomic{"non-atomic buffers", {}};
    non_atomic.config.router.atomicBuffers = false;
    variants.push_back(non_atomic);

    Variant speculative{"speculative VA+SA", {}};
    speculative.config.router.speculative = true;
    variants.push_back(speculative);

    Variant no_vcs{"no VCs (wormhole only)", {}};
    no_vcs.config.router.numVcs = 1;
    no_vcs.config.router.classes = {{"data", 5}};
    variants.push_back(no_vcs);

    Variant adaptive{"west-first adaptive routing", {}};
    adaptive.config.routing = noc::RoutingAlgo::WestFirst;
    variants.push_back(adaptive);

    Table table({"variant", "armed invariants", "pkts delivered",
                 "avg latency", "alerts"});

    for (Variant &variant : variants) {
        variant.config.width = 6;
        variant.config.height = 6;

        noc::Network network(variant.config, traffic);
        core::NoCAlertEngine engine(network);
        network.run(cycles);

        const noc::NetworkStats stats = network.stats();
        table.addRow({variant.name,
                      std::to_string(armedInvariants(
                          variant.config.router)),
                      std::to_string(stats.packetsEjected),
                      Table::num(stats.avgPacketLatency(), 1),
                      std::to_string(engine.log().count())});
    }

    table.setTitle("NoCAlert across router variants (fault-free; "
                   "alerts must be 0)");
    table.print();
    return 0;
}
