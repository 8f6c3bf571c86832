/**
 * @file
 * A full-featured command-line simulator: configure the mesh, the
 * router micro-architecture, the routing algorithm, and the traffic;
 * optionally inject a fault; run with NoCAlert and the recovery
 * policy attached; print statistics, the alert summary, and (with
 * --trace) the event window around the injection.
 *
 *   ./simulate --mesh 8 --vcs 4 --routing xy --pattern uniform \
 *              --rate 0.05 --cycles 5000 \
 *              [--kernel dense|active|bitmask] \
 *              [--fault r36:Sa2Grant:E:2 [--kind permanent]] [--trace]
 *
 * Workload backends beyond the stationary synthetic default:
 *
 *   --phases "0:2000:uniform:0.05,2000:4000:transpose:0.1"
 *       piecewise phase program (begin:end:pattern:rate per segment,
 *       optionally :hotspotNode:hotspotFraction)
 *   --burst "64:0.5:2:0[:layers]"   MMPP-style on/off burst modulation
 *   --phase-repeat                  wrap the program instead of idling
 *   --trace-replay <file>           replay a recorded injection trace
 *   --record-trace <file>           record this run's injections
 */

#include <cstdio>
#include <string>

#include "core/nocalert.hpp"
#include "fault/flags.hpp"
#include "fault/injector.hpp"
#include "noc/network.hpp"
#include "noc/trace.hpp"
#include "recovery/policy.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace nocalert;

namespace {

noc::RoutingAlgo
parseRouting(const std::string &name)
{
    if (name == "xy")
        return noc::RoutingAlgo::XY;
    if (name == "yx")
        return noc::RoutingAlgo::YX;
    if (name == "west-first")
        return noc::RoutingAlgo::WestFirst;
    if (name == "o1turn")
        return noc::RoutingAlgo::O1Turn;
    if (name == "qadaptive")
        return noc::RoutingAlgo::QAdaptive;
    NOCALERT_FATAL("unknown routing '", name,
                   "' (xy, yx, west-first, o1turn, qadaptive)");
}

noc::TrafficPattern
parsePattern(const std::string &name)
{
    if (const auto pattern = noc::trafficPatternFromName(name))
        return *pattern;
    NOCALERT_FATAL("unknown pattern '", name, "' (uniform, transpose, "
                   "bit-complement, hotspot, tornado, shuffle, "
                   "bit-reverse, neighbor)");
}

fault::FaultKind
parseKind(const std::string &name)
{
    if (const auto kind = fault::faultKindFromName(name))
        return *kind;
    NOCALERT_FATAL("unknown fault kind '", name,
                   "' (transient, intermittent, permanent)");
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv,
                    fault::workloadFlags(
                        {"mesh", "width", "height", "vcs", "depth",
                         "routing", "pattern", "rate", "cycles", "seed",
                         "fault", "kind", "trace", "non-atomic",
                         "speculative", "kernel",
                         "record-trace"}));

    noc::NetworkConfig config;
    config.width = static_cast<int>(
        cli.getInt("width", cli.getInt("mesh", 8)));
    config.height = static_cast<int>(
        cli.getInt("height", cli.getInt("mesh", 8)));
    config.router.numVcs =
        static_cast<unsigned>(cli.getInt("vcs", 4));
    config.router.bufferDepth =
        static_cast<unsigned>(cli.getInt("depth", 5));
    config.router.atomicBuffers = !cli.getBool("non-atomic", false);
    config.router.speculative = cli.getBool("speculative", false);
    if (config.router.numVcs == 1)
        config.router.classes = {{"data", 5}};
    config.routing = parseRouting(cli.getString("routing", "xy"));
    const fault::FaultKind kind =
        parseKind(cli.getString("kind", "transient"));

    const noc::Cycle cycles = cli.getInt("cycles", 5000);
    const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 1));

    traffic::WorkloadSpec workload;
    if (!fault::workloadFromFlags(cli, workload)) {
        noc::TrafficSpec traffic;
        traffic.pattern =
            parsePattern(cli.getString("pattern", "uniform"));
        traffic.injectionRate = cli.getDouble("rate", 0.05);
        workload = traffic::WorkloadSpec::fromSynthetic(traffic);
    }
    workload.setSeed(seed);
    workload.setStopCycle(cycles);
    {
        const std::string error =
            traffic::validateWorkloadSpec(config, workload);
        if (!error.empty())
            NOCALERT_FATAL("invalid workload: ", error);
    }

    if (cli.has("record-trace")) {
        const std::string path = cli.getString("record-trace", "");
        std::string error;
        if (!traffic::recordTrace(config, workload, cycles, path,
                                  &error))
            NOCALERT_FATAL("--record-trace failed: ", error);
        std::printf("recorded a %lld-cycle injection trace to %s\n",
                    static_cast<long long>(cycles), path.c_str());
    }

    noc::Network network(config, workload);
    // --kernel dense|active|bitmask selects the simulation kernel.
    const std::string kernel = cli.getString("kernel", "bitmask");
    if (kernel == "dense")
        network.setKernelMode(noc::KernelMode::Dense);
    else if (kernel == "active")
        network.setKernelMode(noc::KernelMode::Active);
    else if (kernel == "bitmask")
        network.setKernelMode(noc::KernelMode::Bitmask);
    else
        NOCALERT_FATAL("unknown --kernel '", kernel,
                       "' (dense|active|bitmask)");
    core::NoCAlertEngine engine(network);

    recovery::RecoveryController controller;
    engine.onAlert([&controller](const core::Assertion &assertion) {
        controller.onAlert(assertion);
    });
    network.setCycleObserver([&controller](const noc::Network &net) {
        controller.onCycle(net.cycle());
    });

    // Optional fault at mid-run.
    const noc::Cycle inject_at = cycles / 2;
    fault::FaultInjector injector;
    noc::TraceRecorder trace;
    const bool tracing = cli.getBool("trace", false);
    if (cli.has("fault")) {
        fault::FaultSite site;
        const std::string error = fault::parseFaultSite(
            cli.getString("fault", ""), config, site);
        if (!error.empty())
            NOCALERT_FATAL("--fault ", error);
        injector.arm({site, inject_at, kind});
        injector.attach(network);
        std::printf("armed %s fault at cycle %lld: %s\n",
                    fault::faultKindName(kind),
                    static_cast<long long>(inject_at),
                    site.describe().c_str());

        if (tracing) {
            // Window around the injection, focused on the victim.
            trace.setFilter([site, inject_at](
                                const noc::TraceEvent &event) {
                return event.router == site.router &&
                       event.cycle >= inject_at - 2 &&
                       event.cycle <= inject_at + 12;
            });
            network.setRouterObserver(
                [&](const noc::Router &router,
                    const noc::RouterWires &wires) {
                    engine.observeRouter(router, wires);
                    trace.observeRouter(router, wires);
                });
        }
    }

    network.run(cycles);
    const bool drained = network.drain(20000);

    const noc::NetworkStats stats = network.stats();
    std::printf("\n%s\n", stats.summary().c_str());
    std::printf("throughput: %.4f flits/node/cycle, drained: %s\n",
                stats.throughput(config.numNodes()),
                drained ? "yes" : "NO (traffic stuck)");
    std::printf("alerts: %zu", engine.log().count());
    if (auto first = engine.log().firstCycle())
        std::printf(" (first at cycle %lld)",
                    static_cast<long long>(*first));
    std::printf("\nrecovery: %s",
                recovery::responseLevelName(controller.level()));
    if (auto trig = controller.trigger()) {
        std::printf(" — checker %u at router %d",
                    core::invariantIndex(trig->trigger), trig->router);
    }
    std::printf("\n");

    for (core::InvariantId id : engine.log().distinctInvariants()) {
        std::printf("  invariant %2u (%s): %llu assertions\n",
                    core::invariantIndex(id), core::invariantName(id),
                    static_cast<unsigned long long>(
                        engine.log().countFor(id)));
    }

    if (tracing && !trace.events().empty()) {
        std::printf("\ntrace around the injection:\n%s",
                    trace.dump().c_str());
    }
    return 0;
}
