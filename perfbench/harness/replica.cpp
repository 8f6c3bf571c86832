#include "replica.hpp"

#include <algorithm>
#include <optional>

#include "core/nocalert.hpp"
#include "fault/injector.hpp"
#include "forever/forever.hpp"
#include "recovery/orchestrator.hpp"
#include "util/log.hpp"

namespace perfbench {

using namespace nocalert;

int
Tracer::open(const char *name, std::int64_t run_id)
{
    Span span;
    span.name = name;
    span.start = now();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.runId = run_id < 0 && span.parent >= 0
                     ? spans_[static_cast<std::size_t>(span.parent)].runId
                     : run_id;
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    Span &span = spans_[static_cast<std::size_t>(index)];
    span.end = now();
    stack_.pop_back();
    if (span.parent >= 0)
        spans_[static_cast<std::size_t>(span.parent)].childNs +=
            span.end - span.start;
}

JsonValue
Tracer::toJson() const
{
    JsonValue rows{JsonValue::Array{}};
    for (const Span &span : spans_) {
        JsonValue row{JsonValue::Array{}};
        row.push(span.name);
        row.push(span.start);
        row.push(span.end);
        row.push(span.parent);
        row.push(span.runId);
        row.push(span.childNs);
        row.push(span.callbacks);
        rows.push(std::move(row));
    }
    return rows;
}

PreparedReference
prepareReference(const fault::CampaignConfig &raw,
                 std::uint64_t traffic_seed, Tracer *tracer)
{
    const fault::CampaignConfig config =
        fault::normalizedCampaignConfig(raw);
    traffic::WorkloadSpec workload = config.workload;
    workload.setSeed(traffic_seed);

    std::optional<noc::Network> base;
    {
        ScopedSpan span(tracer, "fault.setup_warmup");
        base.emplace(config.network, workload);
        base->setKernelMode(config.denseKernel ? noc::KernelMode::Dense
                                               : noc::KernelMode::Bitmask);
        core::NoCAlertEngine warm_guard(*base);
        base->run(config.warmup);
        NOCALERT_ASSERT(warm_guard.log().empty(),
                        "checker asserted during fault-free warmup");
        base->setRouterObserver(nullptr);
        base->setNiObserver(nullptr);
        base->setPackedObserver(nullptr);
    }

    ScopedSpan span(tracer, "fault.setup_golden");
    noc::Network golden(*base);
    core::NoCAlertEngine golden_guard(golden);
    golden.run(config.observeWindow);
    if (!golden.drain(config.drainLimit)) {
        NOCALERT_FATAL("golden run failed to drain within ",
                       config.drainLimit, " cycles");
    }
    NOCALERT_ASSERT(golden_guard.log().empty(),
                    "checker asserted during fault-free golden run");
    fault::GoldenReference reference(golden.collectEjections());
    return PreparedReference{std::move(*base), std::move(reference)};
}

namespace {

/** Time one callback into @p time, charging it to the open span. */
template <typename F>
void
timed(Tracer &tracer, CallbackTime &time, F &&call)
{
    const std::int64_t start = tracer.now();
    call();
    const std::int64_t spent = tracer.now() - start;
    time.ns += spent;
    ++time.calls;
    tracer.addCallback(spent);
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

struct NiTotals
{
    std::uint64_t retransmits = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t abandoned = 0;
};

NiTotals
niTotals(const noc::Network &n)
{
    NiTotals totals;
    for (noc::NodeId node = 0; node < n.config().numNodes(); ++node) {
        const noc::NetworkInterface &ni = n.ni(node);
        totals.retransmits += ni.retransmits();
        totals.duplicates += ni.duplicatesSuppressed();
        totals.abandoned += ni.packetsAbandoned();
    }
    return totals;
}

} // namespace

TimerCost
calibrateTimer()
{
    constexpr int kBatches = 15;
    constexpr int kCalls = 100000;
    Tracer tracer;
    ScopedSpan span(&tracer, "calibration");
    std::vector<double> inside;
    std::vector<double> outside;
    for (int batch = 0; batch < kBatches; ++batch) {
        CallbackTime time;
        const std::int64_t start = tracer.now();
        for (int call = 0; call < kCalls; ++call)
            timed(tracer, time, [] {});
        const std::int64_t total = tracer.now() - start;
        inside.push_back(static_cast<double>(time.ns) / kCalls);
        outside.push_back(static_cast<double>(total - time.ns) / kCalls);
    }
    return TimerCost{median(std::move(inside)), median(std::move(outside))};
}

fault::FaultRunResult
tracedRunSingle(const fault::CampaignConfig &config,
                const noc::Network &base,
                const fault::GoldenReference &golden,
                const fault::FaultSite &site, noc::Cycle inject_offset,
                Tracer &tracer, std::int64_t run_id, RunCounters &counters)
{
    ScopedSpan run_span(&tracer, "run", run_id);

    std::optional<noc::Network> copy;
    {
        ScopedSpan span(&tracer, "noc.copy");
        copy.emplace(base);
    }
    noc::Network &net = *copy;

    std::optional<ScopedSpan> setup_span;
    setup_span.emplace(&tracer, "observers.setup");
    core::NoCAlertEngine engine(net, /*attach_now=*/false);
    std::optional<forever::ForeverModel> fever;
    if (config.runForever)
        fever.emplace(net, config.forever, /*attach_now=*/false);

    // The ForEVeR -> Active kernel fallback of runSingle.
    if (fever && net.kernelMode() == noc::KernelMode::Bitmask)
        net.setKernelMode(noc::KernelMode::Active);

    net.setPackedObserver([&](const noc::Router &router,
                              const noc::PackedCycleEvents &ev) {
        ++counters.packedCalls;
        timed(tracer, counters.checker,
              [&] { engine.observePacked(router, ev); });
    });
    net.setRouterObserver([&](const noc::Router &router,
                              const noc::RouterWires &wires) {
        ++counters.branchyCalls;
        timed(tracer, counters.checker,
              [&] { engine.observeRouter(router, wires); });
        if (fever) {
            timed(tracer, counters.forever,
                  [&] { fever->observeRouter(router, wires); });
        }
    });
    net.setNiObserver([&](const noc::NetworkInterface &ni,
                          const noc::NiWires &wires) {
        timed(tracer, counters.checker,
              [&] { engine.observeNi(ni, wires); });
        if (fever) {
            timed(tracer, counters.forever,
                  [&] { fever->observeNi(ni, wires); });
        }
    });
    std::optional<recovery::RecoveryOrchestrator> orchestrator;
    if (config.recovery)
        orchestrator.emplace(net, engine);

    if (fever || orchestrator) {
        net.setCycleObserver([&](const noc::Network &n) {
            if (fever)
                timed(tracer, counters.forever, [&] { fever->onCycleEnd(n); });
            if (orchestrator) {
                timed(tracer, counters.orchestrator,
                      [&] { orchestrator->onCycleEnd(n.cycle()); });
            }
        });
    }

    const NiTotals warm = config.recovery ? niTotals(base) : NiTotals{};

    fault::FaultRunResult result;
    result.site = site;
    result.injectCycle = net.cycle() + inject_offset;

    fault::FaultInjector injector;
    injector.arm({site, result.injectCycle, config.kind});
    injector.attach(net);
    setup_span.reset();

    {
        ScopedSpan span(&tracer, "noc.observe");
        net.run(config.observeWindow);
    }
    {
        ScopedSpan span(&tracer, "noc.drain");
        result.drained = net.drain(config.drainLimit);
        if (!result.drained && config.recovery) {
            result.drained = true;
            for (noc::NodeId node = 0; node < config.network.numNodes();
                 ++node) {
                if (!net.ni(node).idle()) {
                    result.drained = false;
                    break;
                }
            }
        }
    }
    if (fever) {
        ScopedSpan span(&tracer, "noc.epoch_tail");
        net.run(config.forever.epochLength + 2);
    }

    std::optional<std::vector<noc::EjectionRecord>> ejections;
    {
        ScopedSpan span(&tracer, "fault.collect");
        ejections.emplace(net.collectEjections());
    }
    std::optional<fault::GoldenComparison> comparison;
    {
        ScopedSpan span(&tracer, "fault.compare");
        comparison.emplace(golden.compare(*ejections, result.drained));
    }

    ScopedSpan classify_span(&tracer, "fault.classify");
    result.violated = comparison->violated();
    result.violatedConditions = comparison->conditions();

    const core::AlertLog &log = engine.log();
    if (auto first = log.firstCycle()) {
        result.detected = true;
        result.detectionLatency = *first - result.injectCycle;
        result.alertAtInjection = *first == result.injectCycle;
        result.simultaneousCheckers =
            static_cast<unsigned>(log.invariantsAtCycle(*first).size());
    }
    if (auto first = log.firstCautiousCycle()) {
        result.detectedCautious = true;
        result.cautiousLatency = *first - result.injectCycle;
    }
    result.invariants = log.distinctInvariants();

    if (fever) {
        if (auto first = fever->firstDetection()) {
            result.foreverDetected = true;
            result.foreverLatency = *first - result.injectCycle;
        }
    }

    if (orchestrator) {
        const recovery::OrchestratorStats &stats = orchestrator->stats();
        result.recoveryTriggered = stats.actions > 0;
        result.recoveryActions = stats.actions;
        result.quarantinedPorts = stats.quarantinedPorts;
        result.purgedFlits = stats.purgedFlits;
        if (stats.actions > 0)
            result.recoveryCycle = stats.firstActionCycle;

        const NiTotals after = niTotals(net);
        result.retransmits = after.retransmits - warm.retransmits;
        result.duplicatesSuppressed = after.duplicates - warm.duplicates;
        result.packetsAbandoned = after.abandoned - warm.abandoned;
        result.recovered =
            result.detected && !result.violated && result.drained &&
            (result.recoveryTriggered || result.retransmits > 0);
    }

    counters.simCycles +=
        static_cast<std::uint64_t>(net.cycle() - base.cycle());
    counters.routerEvals += net.routerEvaluations();
    counters.niEvals += net.niEvaluations();
    counters.goldenFlits += golden.flitCount();
    return result;
}

} // namespace perfbench
