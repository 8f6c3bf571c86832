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
 *              [--fault r36:Sa2Grant:E:2] [--trace]
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
    if (name == "uniform")
        return noc::TrafficPattern::UniformRandom;
    if (name == "transpose")
        return noc::TrafficPattern::Transpose;
    if (name == "bit-complement")
        return noc::TrafficPattern::BitComplement;
    if (name == "hotspot")
        return noc::TrafficPattern::Hotspot;
    if (name == "tornado")
        return noc::TrafficPattern::Tornado;
    if (name == "shuffle")
        return noc::TrafficPattern::Shuffle;
    if (name == "bit-reverse")
        return noc::TrafficPattern::BitReverse;
    if (name == "neighbor")
        return noc::TrafficPattern::Neighbor;
    NOCALERT_FATAL("unknown pattern '", name, "'");
}

int
parsePort(const std::string &name)
{
    for (int p = 0; p < noc::kNumPorts; ++p)
        if (name == noc::portName(p))
            return p;
    NOCALERT_FATAL("unknown port '", name, "' (N, E, S, W, L)");
}

/** Parse "r<router>:<SignalClass>:<port>:<bit>[:vc]". */
fault::FaultSite
parseFault(const std::string &spec)
{
    std::vector<std::string> parts;
    std::string current;
    for (char ch : spec) {
        if (ch == ':') {
            parts.push_back(current);
            current.clear();
        } else {
            current += ch;
        }
    }
    parts.push_back(current);
    if (parts.size() < 4 || parts[0].size() < 2 || parts[0][0] != 'r')
        NOCALERT_FATAL("fault spec must be r<router>:<Signal>:<port>:"
                       "<bit>[:vc], got '", spec, "'");

    fault::FaultSite site;
    site.router = std::stoi(parts[0].substr(1));
    site.port = parsePort(parts[2]);
    site.bit = static_cast<unsigned>(std::stoul(parts[3]));
    site.vc = parts.size() > 4 ? std::stoi(parts[4]) : -1;

    for (int c = 0; c <= static_cast<int>(
             fault::SignalClass::StSchedOutVc); ++c) {
        const auto cls = static_cast<fault::SignalClass>(c);
        if (parts[1] == fault::signalClassName(cls)) {
            site.signal = cls;
            return site;
        }
    }
    NOCALERT_FATAL("unknown signal class '", parts[1], "'");
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
                         "speculative", "dense-kernel", "kernel",
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
    // --kernel dense|active|bitmask selects the simulation kernel;
    // --dense-kernel is the historical spelling of --kernel dense.
    const std::string kernel = cli.getBool("dense-kernel", false)
                                   ? "dense"
                                   : cli.getString("kernel", "bitmask");
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
        const fault::FaultSite site =
            parseFault(cli.getString("fault", ""));
        fault::FaultKind kind = fault::FaultKind::Transient;
        const std::string kind_name = cli.getString("kind", "transient");
        if (kind_name == "permanent")
            kind = fault::FaultKind::Permanent;
        else if (kind_name == "intermittent")
            kind = fault::FaultKind::Intermittent;
        injector.arm({site, inject_at, kind});
        injector.attach(network);
        std::printf("armed %s fault at cycle %lld: %s\n", kind_name.c_str(),
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
