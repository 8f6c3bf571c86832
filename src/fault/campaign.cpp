#include "fault/campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <unordered_map>

#include "core/nocalert.hpp"
#include "exec/executor.hpp"
#include "fault/sampled.hpp"
#include "fault/serialize.hpp"
#include "recovery/orchestrator.hpp"
#include "util/log.hpp"

namespace nocalert::fault {

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::TruePositive: return "true-positive";
      case Outcome::FalsePositive: return "false-positive";
      case Outcome::TrueNegative: return "true-negative";
      case Outcome::FalseNegative: return "false-negative";
      case Outcome::DetectedRecovered: return "detected-recovered";
    }
    return "?";
}

namespace {

Outcome
classify(bool detected, bool violated)
{
    if (detected)
        return violated ? Outcome::TruePositive : Outcome::FalsePositive;
    return violated ? Outcome::FalseNegative : Outcome::TrueNegative;
}

/**
 * Only a transient fault without recovery can leave the machine in
 * golden's state: a permanent or intermittent fault keeps acting, and
 * recovery carries orchestrator and quarantine state. Retransmission
 * (implied by recovery) commits a packet's records to the log at its
 * tail, out of cycle order, which the golden suffix cannot splice
 * (DESIGN.md §16).
 */
bool
stopsEarly(const CampaignConfig &config)
{
    return config.kind == FaultKind::Transient && !config.recovery &&
           !config.network.retransmit.enabled;
}

/**
 * Live telemetry slots: one per Outcome, then the runs that converged
 * to a golden checkpoint and the runs cut at a repeated state (bumped
 * by the worker, not run counts; never serialized).
 */
const std::vector<std::string> kHubLabels = {"tp",  "fp",   "tn",    "fn",
                                             "rec", "stop", "repeat"};
constexpr std::size_t kStopSlot = kNumOutcomes;
constexpr std::size_t kRepeatSlot = kNumOutcomes + 1;

/**
 * The full run's schedule past the observe window, runnable in
 * pieces: Network::drain's steps (quiescence checked before each, up
 * to the drain limit), then @p tail cycles of ForEVeR's epoch tail.
 */
class PostWindow
{
  public:
    PostWindow(noc::Network &net, noc::Cycle drain_limit, noc::Cycle tail)
        : net_(net), drain_left_(drain_limit), tail_left_(tail)
    {
    }

    /**
     * Follow the schedule up to cycle @p until or its end, whichever
     * comes first. True iff the network stands at @p until with part
     * of the schedule left.
     */
    bool
    runTo(noc::Cycle until)
    {
        if (draining_) {
            const noc::Cycle start = net_.cycle();
            const bool quiet =
                net_.drain(std::min(drain_left_, until - start));
            drain_left_ -= net_.cycle() - start;
            if (quiet) {
                drained_ = true;
                draining_ = false;
            } else if (drain_left_ == 0) {
                draining_ = false;
            } else {
                return true;
            }
        }
        const noc::Cycle steps = std::min(tail_left_, until - net_.cycle());
        net_.run(steps);
        tail_left_ -= steps;
        return net_.cycle() == until && remaining() > 0;
    }

    /** Run the drain to its end; its verdict. */
    bool
    drain()
    {
        if (draining_) {
            drained_ = net_.drain(drain_left_);
            draining_ = false;
        }
        return drained_;
    }

    /** Run the rest of the schedule. */
    void
    finish()
    {
        drain();
        net_.run(tail_left_);
        tail_left_ = 0;
    }

    /** Cycles of the schedule still ahead. */
    noc::Cycle
    remaining() const
    {
        return (draining_ ? drain_left_ : 0) + tail_left_;
    }

    /** The drain's verdict so far (false while it still runs). */
    bool drained() const { return drained_; }

  private:
    noc::Network &net_;
    noc::Cycle drain_left_;
    noc::Cycle tail_left_;
    bool draining_ = true;
    bool drained_ = false;
};

} // namespace

void
observeRun(noc::Network &net, core::NoCAlertEngine &engine,
           forever::ForeverModel *fever,
           recovery::RecoveryOrchestrator *orchestrator)
{
    net.setPackedObserver([&engine](const noc::Router &router,
                                    const noc::PackedCycleEvents &ev) {
        engine.observePacked(router, ev);
    });
    // Under the bitmask kernel only routers that take the branchy
    // path reach this observer. That is all ForEVeR's allocation
    // comparator needs (ForeverModel::observeRouter, DESIGN.md §11).
    net.setRouterObserver([&engine, fever](const noc::Router &router,
                                           const noc::RouterWires &wires) {
        engine.observeRouter(router, wires);
        if (fever)
            fever->observeRouter(router, wires);
    });
    net.setNiObserver([&engine, fever](const noc::NetworkInterface &ni,
                                       const noc::NiWires &wires) {
        engine.observeNi(ni, wires);
        if (fever)
            fever->observeNi(ni, wires);
    });
    // Recovery: quarantine-and-purge on policy trigger, executed at
    // end-of-cycle so both kernels see identical mid-cycle state.
    if (fever || orchestrator) {
        net.setCycleObserver([fever, orchestrator](const noc::Network &n) {
            if (fever)
                fever->onCycleEnd(n);
            if (orchestrator)
                orchestrator->onCycleEnd(n.cycle());
        });
    }
}

Outcome
FaultRunResult::outcome() const
{
    // A detected fault whose post-recovery ejection log matched golden
    // is the loop-closure success case, reported as its own class; a
    // recovered run is by construction not violated, so the remaining
    // four classes keep their schema-v2 meaning.
    if (recovered)
        return Outcome::DetectedRecovered;
    return classify(detected, violated);
}

Outcome
FaultRunResult::cautiousOutcome() const
{
    return classify(detectedCautious, violated);
}

Outcome
FaultRunResult::foreverOutcome() const
{
    return classify(foreverDetected, violated);
}

double
CampaignSummary::pct(std::uint64_t count) const
{
    if (runs == 0)
        return 0.0;
    return 100.0 * static_cast<double>(count) /
           static_cast<double>(runs);
}

CampaignTelemetry
computeTelemetry(const CampaignResult &result)
{
    CampaignTelemetry telemetry;
    telemetry.runsPlanned = result.shardRunsPlanned;
    telemetry.runsCompleted = result.runs.size();
    for (const FaultRunResult &run : result.runs)
        telemetry.outcomes[static_cast<unsigned>(run.outcome())] += 1;
    return telemetry;
}

CampaignSummary
CampaignResult::summarize() const
{
    CampaignSummary summary;
    summary.runs = runs.size();

    for (const FaultRunResult &run : runs) {
        summary.nocalert[static_cast<unsigned>(run.outcome())] += 1;
        summary.cautious[static_cast<unsigned>(run.cautiousOutcome())] += 1;
        summary.forever[static_cast<unsigned>(run.foreverOutcome())] += 1;

        if (run.outcome() == Outcome::TruePositive)
            summary.detectionLatency.add(run.detectionLatency);
        if (run.foreverOutcome() == Outcome::TruePositive)
            summary.foreverLatency.add(run.foreverLatency);
        if (run.detected)
            summary.simultaneous.add(run.simultaneousCheckers);

        for (core::InvariantId id : run.invariants)
            summary.perInvariant[core::invariantIndex(id)] += 1;

        if (!run.alertAtInjection) {
            ++summary.noInstantAlert;
            if (run.detected) {
                ++summary.noInstantCaughtLater;
            } else if (run.violated) {
                ++summary.noInstantViolatedUndetected;
            } else {
                ++summary.noInstantBenignUndetected;
            }
        }
    }
    return summary;
}

CampaignConfig
normalizedCampaignConfig(CampaignConfig config)
{
    // Generation must stop so runs can drain and bounded delivery is
    // decidable within the horizon. Pinned on every backend so the
    // identity hash reflects the one the run actually uses.
    config.workload.setStopCycle(config.warmup + config.observeWindow);

    // Recovery mode implies the full stack: end-to-end retransmission
    // plus quarantine-aware routing. Forcing them here (idempotently)
    // keeps the knobs consistent between a fresh campaign and one
    // resumed from a checkpoint that recorded the mutated config.
    if (config.recovery) {
        config.network.retransmit.enabled = true;
        config.network.routing = noc::RoutingAlgo::QAdaptive;
        config.runForever = false;
    }
    return config;
}

FaultCampaign::FaultCampaign(CampaignConfig config)
    : config_(normalizedCampaignConfig(std::move(config)))
{
    config_.network.validate();
    {
        const std::string error = nocalert::traffic::validateWorkloadSpec(
            config_.network, config_.workload);
        if (!error.empty())
            NOCALERT_FATAL("invalid workload spec: ", error);
    }
    if (config_.shardCount == 0 ||
        config_.shardIndex >= config_.shardCount) {
        NOCALERT_FATAL("invalid shard selector ", config_.shardIndex,
                       "/", config_.shardCount);
    }
    if (config_.sampling.enabled) {
        // The budget guard: reject a campaign the sampler could never
        // finish before simulating a single run.
        const std::string error = validateSamplingSpec(
            config_.sampling, config_.observeWindow);
        if (!error.empty())
            NOCALERT_FATAL("invalid sampling spec: ", error);
        if (config_.shardCount != 1) {
            NOCALERT_FATAL("sampled campaigns are single-shard: the "
                           "adaptive run stream has no static "
                           "partition to shard over");
        }
        if (config_.sampling.stratify == Stratify::Phase &&
            config_.workload.kind !=
                nocalert::traffic::WorkloadKind::Phased) {
            NOCALERT_FATAL("phase stratification needs a phased "
                           "workload, got kind '",
                           nocalert::traffic::workloadKindName(
                               config_.workload.kind),
                           "'");
        }
        if (config_.workload.kind ==
                nocalert::traffic::WorkloadKind::Trace &&
            config_.sampling.seedCount != 1) {
            NOCALERT_FATAL("trace workloads draw no randomness; "
                           "sampling.seedCount must be 1, got ",
                           config_.sampling.seedCount);
        }
    }
}

FaultRunResult
FaultCampaign::runSingle(const CampaignConfig &config,
                         const noc::Network &base,
                         const GoldenReference &golden,
                         std::span<const FaultSite> sites,
                         noc::Cycle inject_offset,
                         EarlyExit *early)
{
    NOCALERT_ASSERT(!sites.empty(), "a fault run needs a fault site");
    noc::Network net(base);

    core::NoCAlertEngine engine(net, /*attach_now=*/false);
    std::optional<forever::ForeverModel> fever;
    if (config.runForever)
        fever.emplace(net, config.forever, /*attach_now=*/false);
    std::optional<recovery::RecoveryOrchestrator> orchestrator;
    if (config.recovery)
        orchestrator.emplace(net, engine);
    observeRun(net, engine, fever ? &*fever : nullptr,
               orchestrator ? &*orchestrator : nullptr);

    // Retransmission counters accumulate from network birth; snapshot
    // the warm baseline so the result reports this run's deltas only.
    struct NiTotals
    {
        std::uint64_t retransmits = 0;
        std::uint64_t duplicates = 0;
        std::uint64_t abandoned = 0;
    };
    const auto niTotals = [](const noc::Network &n) {
        NiTotals totals;
        for (noc::NodeId node = 0; node < n.config().numNodes(); ++node) {
            const noc::NetworkInterface &ni = n.ni(node);
            totals.retransmits += ni.retransmits();
            totals.duplicates += ni.duplicatesSuppressed();
            totals.abandoned += ni.packetsAbandoned();
        }
        return totals;
    };
    const NiTotals warm = config.recovery ? niTotals(base) : NiTotals{};

    FaultRunResult result;
    result.site = sites.front();
    // Sampled-mode cycle jitter: the faults arm for a cycle inside
    // the observation window; the network is fault-free until then.
    result.injectCycle = net.cycle() + inject_offset;

    FaultInjector injector;
    for (const FaultSite &site : sites)
        injector.arm({site, result.injectCycle, config.kind});
    injector.attach(net);

    // Plain transient faults inside the window have fired once the
    // injection cycle ran; without the tap hook the armed routers are
    // scheduled and fast-pathed like any other (DESIGN.md §16).
    const noc::Cycle window_end = base.cycle() + config.observeWindow;
    const bool fired = stopsEarly(config) && result.injectCycle < window_end;
    if (fired) {
        net.run(result.injectCycle + 1 - net.cycle());
        net.setTapHook(nullptr);
    }

    // From a golden checkpoint's state on, the run would replay the
    // golden run: stop there and take the rest from golden
    // (DESIGN.md §16). Checkpoints lie inside the observe window.
    std::optional<noc::Cycle> stop;
    if (fired) {
        for (const GoldenReference::Checkpoint &cp : golden.checkpoints()) {
            if (cp.cycle() <= result.injectCycle)
                continue;
            if (cp.cycle() > window_end)
                break;
            net.run(cp.cycle() - net.cycle());
            if (net.sameState(cp.network) &&
                (!fever || (cp.forever && fever->state() == *cp.forever))) {
                stop = cp.cycle();
                break;
            }
        }
    }

    // Past the window, with generation stopped and the fault spent,
    // each step is one fixed function of the network's state: a
    // network back in an earlier state repeats itself forever, and the
    // rest of its schedule is ForEVeR's bookkeeping alone.
    std::optional<noc::Cycle> repeated;
    if (stop) {
        result.drained = true;
    } else {
        net.run(window_end - net.cycle());
        PostWindow rest(net, config.drainLimit,
                        fever ? config.forever.epochLength + 2 : 0);
        const noc::Cycle stop_cycle = config.workload.stopCycle();
        if (fired && stop_cycle >= 0 &&
            stop_cycle <= window_end + kRepeatOffsets[0] &&
            rest.runTo(window_end + kRepeatOffsets[0])) {
            // The copy carries no ejection log: the live one is swapped
            // out around it.
            std::vector<std::vector<noc::EjectionRecord>> logs;
            net.swapEjectionLogs(logs);
            const noc::Network earlier(net);
            net.swapEjectionLogs(logs);
            if (rest.runTo(window_end + kRepeatOffsets[1]) &&
                net.repeats(earlier))
                repeated = net.cycle();
        }
        // A repeating network never turns quiescent: a drain still
        // running at the cut would have run out.
        result.drained = repeated ? rest.drained() : rest.drain();
        if (!result.drained && config.recovery) {
            // A quarantined router with a permanent wire fault churns
            // forever and full quiescence is unreachable; what bounded
            // delivery needs is that the end-to-end protocol settled:
            // every NI has drained its queues and resolved (ACKed or
            // abandoned) every pending packet. Abandoned packets still
            // surface as FlitLost violations in the golden comparison.
            result.drained = true;
            for (noc::NodeId node = 0; node < config.network.numNodes();
                 ++node) {
                if (!net.ni(node).idle()) {
                    result.drained = false;
                    break;
                }
            }
        }
        if (!repeated) {
            rest.finish();
        } else if (fever) {
            const noc::Cycle horizon = *repeated + rest.remaining();
            for (noc::Cycle c = *repeated; c < horizon; ++c)
                fever->endCycle(c);
        }
    }
    if (early)
        *early = {stop, repeated};

    const GoldenComparison comparison =
        golden.compare(net.collectEjections(), result.drained, stop);
    result.violated = comparison.violated();
    result.violatedConditions = comparison.conditions();

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
        // Until its fault arms, a jittered run raises golden's own
        // alarms; only those from the injection on can be the fault's.
        // A stopped run's own alerts all precede the stop; golden's
        // from the stop on are the ones the rest of the run raises.
        std::optional<noc::Cycle> first =
            fever->firstDetection(result.injectCycle);
        if (stop && !first)
            first = golden.foreverAlarmFrom(*stop);
        if (first) {
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
        result.duplicatesSuppressed =
            after.duplicates - warm.duplicates;
        result.packetsAbandoned = after.abandoned - warm.abandoned;

        // Recovered = the loop actually closed: the fault was seen,
        // recovery machinery engaged (action or retransmission), and
        // the delivered traffic still matched golden.
        result.recovered =
            result.detected && !result.violated && result.drained &&
            (result.recoveryTriggered || result.retransmits > 0);
    }

    return result;
}

FaultCampaign::PreparedReference
FaultCampaign::prepareReference(const CampaignConfig &config,
                                std::uint64_t traffic_seed)
{
    nocalert::traffic::WorkloadSpec workload = config.workload;
    workload.setSeed(traffic_seed);

    noc::Network base(config.network, workload);
    base.setKernelMode(config.denseKernel ? noc::KernelMode::Dense
                                          : noc::KernelMode::Bitmask);
    {
        // Any assertion during warmup would poison every
        // classification; the engine enforces the zero-false-alarm
        // property of the clean network.
        core::NoCAlertEngine warm_guard(base);
        base.run(config.warmup);
        NOCALERT_ASSERT(warm_guard.log().empty(),
                        "checker asserted during fault-free warmup");
        base.setRouterObserver(nullptr);
        base.setNiObserver(nullptr);
        base.setPackedObserver(nullptr);
    }

    // A campaign whose runs can stop early also records the golden
    // trajectory they stop against: checkpoints, and ForEVeR's alarms
    // over the same horizon a fault run simulates (DESIGN.md §16).
    const bool checkpointed = stopsEarly(config);
    noc::Network golden(base);
    core::NoCAlertEngine golden_guard(golden, /*attach_now=*/false);
    std::optional<forever::ForeverModel> fever;
    if (checkpointed && config.runForever)
        fever.emplace(golden, config.forever, /*attach_now=*/false);
    observeRun(golden, golden_guard, fever ? &*fever : nullptr, nullptr);

    // Checkpoints hold no ejection log: golden's are swapped out
    // around the copy.
    std::vector<GoldenReference::Checkpoint> checkpoints;
    std::vector<std::vector<noc::EjectionRecord>> logs;
    for (const noc::Cycle offset : kCheckpointOffsets) {
        if (!checkpointed || offset > config.observeWindow)
            break;
        golden.run(base.cycle() + offset - golden.cycle());
        golden.swapEjectionLogs(logs);
        checkpoints.push_back({noc::Network(golden), std::nullopt});
        golden.swapEjectionLogs(logs);
        if (fever)
            checkpoints.back().forever = fever->state();
    }
    golden.run(base.cycle() + config.observeWindow - golden.cycle());
    if (!golden.drain(config.drainLimit)) {
        NOCALERT_FATAL("golden run failed to drain within ",
                       config.drainLimit,
                       " cycles; lower the injection rate");
    }
    if (fever)
        golden.run(config.forever.epochLength + 2);
    NOCALERT_ASSERT(golden_guard.log().empty(),
                    "checker asserted during fault-free golden run");

    // A retransmitting log is not time-ordered per node, which only
    // the checkpointed reference needs.
    if (!checkpointed)
        return {std::move(base), GoldenReference(golden.collectEjections())};
    std::vector<noc::Cycle> alarms;
    if (fever) {
        for (const forever::ForeverAlert &alert : fever->alerts())
            alarms.push_back(alert.cycle);
    }
    return {std::move(base),
            GoldenReference(golden.collectEjections(),
                            std::move(checkpoints), std::move(alarms))};
}

std::vector<FaultSite>
enumerateCampaignSites(const CampaignConfig &config)
{
    std::vector<FaultSite> sites =
        FaultSiteCatalog::enumerateNetwork(config.network);
    if (config.wireSitesOnly) {
        std::erase_if(sites, [](const FaultSite &site) {
            return isStateSignal(site.signal);
        });
    }
    return sites;
}

namespace {

/** Load this campaign's checkpoint document, if any, after validating
 *  identity and shard selector; fatal on any mismatch (a checkpoint
 *  must never silently corrupt a campaign). */
std::optional<CampaignResult>
loadCheckpointDocument(const CampaignConfig &config)
{
    if (config.checkpointPath.empty() ||
        !std::filesystem::exists(config.checkpointPath))
        return std::nullopt;

    std::string error;
    auto checkpoint = loadCampaignResult(config.checkpointPath, &error);
    if (!checkpoint)
        NOCALERT_FATAL("cannot resume from checkpoint: ", error);
    if (campaignIdentityJson(checkpoint->config).dump() !=
        campaignIdentityJson(config).dump()) {
        NOCALERT_FATAL("checkpoint '", config.checkpointPath,
                       "' belongs to a different campaign");
    }
    if (checkpoint->config.shardIndex != config.shardIndex ||
        checkpoint->config.shardCount != config.shardCount) {
        NOCALERT_FATAL("checkpoint '", config.checkpointPath,
                       "' belongs to shard ",
                       checkpoint->config.shardIndex, "/",
                       checkpoint->config.shardCount, ", not ",
                       config.shardIndex, "/", config.shardCount);
    }
    return checkpoint;
}

} // namespace

CampaignResult
FaultCampaign::run(const Progress &progress, const RunOptions &options)
{
    const bool sampled = config_.sampling.enabled;
    CampaignResult result;
    result.config = config_;

    // ---- References: one warm snapshot + golden per traffic seed ----
    const unsigned seeds = sampled ? config_.sampling.seedCount : 1;
    std::vector<PreparedReference> prepared;
    prepared.reserve(seeds);
    for (unsigned k = 0; k < seeds; ++k)
        prepared.push_back(
            prepareReference(config_, config_.workload.seed() + k));
    result.goldenFlits = prepared.front().golden.flitCount();

    // ---- Site list ----
    // totalSitesEnumerated counts the full (pre-truncation) surface.
    std::vector<FaultSite> sites = enumerateCampaignSites(config_);
    result.totalSitesEnumerated = sites.size();
    sites = FaultSiteCatalog::sampleSites(std::move(sites), config_.maxSites,
                                          config_.sampleSeed);

    // ---- Resume ----
    // Every exhaustive run must sit at its own site-list entry; a
    // sampled run is checked against its replayed draw below.
    std::unordered_map<std::size_t, FaultRunResult> done_runs;
    if (auto checkpoint = loadCheckpointDocument(config_)) {
        for (FaultRunResult &run : checkpoint->runs) {
            if (!sampled && (run.sampleIndex >= sites.size() ||
                             !(sites[run.sampleIndex] == run.site))) {
                NOCALERT_FATAL("checkpoint '", config_.checkpointPath,
                               "' does not match the sampled site list");
            }
            done_runs.emplace(run.sampleIndex, std::move(run));
        }
    }
    const std::size_t restored_count = done_runs.size();

    // ---- Plan ----
    // An exhaustive shard is a single batch: the site-list indices
    // congruent to its shardIndex (so N shards partition exactly an
    // unsharded run's work), each a draw at offset 0 on the first
    // traffic seed in stratum 0. A sampled campaign runs the planner's
    // batches until the sampler stops.
    std::optional<SampledPlanner> planner;
    std::vector<SampledDraw> batch;
    if (sampled) {
        planner.emplace(config_, sites);
    } else {
        for (std::size_t i = config_.shardIndex; i < sites.size();
             i += config_.shardCount) {
            SampledDraw draw;
            draw.drawIndex = i;
            draw.site = sites[i];
            batch.push_back(draw);
        }
    }
    std::size_t planned = batch.size();
    bool finished = false;

    auto snapshot = [&]() {
        // Completed runs in global order — the checkpoint and the
        // final result, independent of thread completion order.
        CampaignResult partial = result;
        partial.shardRunsPlanned = planned;
        partial.samplerDone = finished;
        partial.runs.clear(); // result may already hold a snapshot
        partial.runs.reserve(done_runs.size());
        for (const auto &[index, run] : done_runs)
            partial.runs.push_back(run);
        std::sort(partial.runs.begin(), partial.runs.end(),
                  [](const FaultRunResult &a, const FaultRunResult &b) {
                      return a.sampleIndex < b.sampleIndex;
                  });
        return partial;
    };
    auto writeCheckpoint = [&]() {
        std::string error;
        if (!saveCampaignResult(snapshot(), config_.checkpointPath,
                                &error))
            NOCALERT_FATAL("checkpoint write failed: ", error);
    };

    std::size_t since_checkpoint = 0;
    const unsigned checkpoint_every = std::max(1u, config_.checkpointEvery);
    std::size_t fresh = 0;
    std::size_t replayed = 0;

    exec::CampaignExecutor executor(config_.jobs);
    exec::TelemetryHub hub(planned, executor.jobs(), kHubLabels);
    for (const auto &[index, run] : done_runs)
        hub.recordRun(static_cast<unsigned>(run.outcome()));

    while (true) {
        if (planner) {
            // Stop before planning a batch that could not execute
            // anyway: the run limit is spent and every checkpointed
            // draw has been replayed into the sampler.
            if (options.maxNewRuns != 0 && fresh >= options.maxNewRuns &&
                replayed == restored_count)
                break;
            batch = planner->planBatch();
            if (batch.empty()) {
                finished = true;
                break;
            }
            planned = planner->drawsPlanned();
            hub.setRunsPlanned(planned);
        }

        // Resume is replay: checkpointed draws feed the sampler exactly
        // as they did originally (validated one by one) instead of
        // being simulated again; the remainder is fresh work. A
        // sampled checkpoint holds a contiguous draw prefix, so
        // restored entries always precede fresh ones within a batch.
        std::vector<SampledDraw> todo;
        for (const SampledDraw &draw : batch) {
            auto it = done_runs.find(draw.drawIndex);
            if (it == done_runs.end()) {
                todo.push_back(draw);
                continue;
            }
            if (!planner)
                continue;
            const FaultRunResult &run = it->second;
            if (!(run.site == draw.site) ||
                run.stratum != draw.stratum ||
                run.seedIndex != draw.seedIndex) {
                NOCALERT_FATAL("checkpoint '", config_.checkpointPath,
                               "' does not match the sampled draw "
                               "stream at draw ", draw.drawIndex);
            }
            planner->record(run);
            ++replayed;
        }

        bool limited = false;
        if (options.maxNewRuns != 0) {
            const std::size_t remaining =
                options.maxNewRuns > fresh ? options.maxNewRuns - fresh
                                           : 0;
            if (todo.size() > remaining) {
                todo.resize(remaining);
                limited = true;
            }
        }

        bool cancelled = false;
        if (!todo.empty()) {
            try {
                cancelled = !executor.run<FaultRunResult>(
                    todo.size(),
                    [&](std::size_t task) {
                        // Every coordinate of a run was fixed when its
                        // draw was planned; per-node traffic streams
                        // are derived inside the network copy.
                        const SampledDraw &draw = todo[task];
                        const PreparedReference &ref =
                            prepared[draw.seedIndex];
                        EarlyExit early;
                        FaultRunResult run = runSingle(
                            config_, ref.base, ref.golden, draw.site,
                            draw.cycleOffset, &early);
                        if (early.converged)
                            hub.bump(kStopSlot);
                        if (early.repeated)
                            hub.bump(kRepeatSlot);
                        run.sampleIndex = draw.drawIndex;
                        run.stratum = draw.stratum;
                        run.seedIndex = draw.seedIndex;
                        return run;
                    },
                    [&](std::size_t, FaultRunResult &&run) {
                        // Ordered commit: the reducer delivers runs in
                        // increasing todo position (hence sampleIndex),
                        // serialized under its lock, so done_runs,
                        // every checkpoint flush, progress and
                        // telemetry evolve identically for any jobs
                        // count. The sampler sees a batch's outcomes
                        // only as aggregates at the next planBatch.
                        hub.recordRun(
                            static_cast<unsigned>(run.outcome()));
                        if (planner)
                            planner->record(run);
                        done_runs.emplace(run.sampleIndex,
                                          std::move(run));
                        ++fresh;
                        if (!config_.checkpointPath.empty() &&
                            ++since_checkpoint >= checkpoint_every) {
                            since_checkpoint = 0;
                            writeCheckpoint();
                        }
                        if (progress)
                            progress(done_runs.size(), planned);
                        if (options.telemetry)
                            options.telemetry(hub.snapshot());
                    },
                    options.cancel, &hub);
            } catch (const exec::TaskError &error) {
                // One failing run aborts the campaign, but cleanly:
                // flush the committed prefix so nothing is lost, then
                // name the site.
                if (!config_.checkpointPath.empty())
                    writeCheckpoint();
                const SampledDraw &draw = todo[error.taskIndex()];
                NOCALERT_FATAL(sampled ? "sampled" : "campaign", " run ",
                               draw.drawIndex, " (", draw.site.describe(),
                               ") failed: ", error.what());
            }
        }
        if (!planner || cancelled || limited)
            break;
    }

    result = snapshot();
    // A valid sampled result is a contiguous draw prefix; a doctored
    // checkpoint with gaps or out-of-stream indices must not survive
    // into the artifact unnoticed.
    for (std::size_t i = 0; sampled && i < result.runs.size(); ++i) {
        if (result.runs[i].sampleIndex != i) {
            NOCALERT_FATAL("checkpoint '", config_.checkpointPath,
                           "' is not a contiguous sampled draw prefix");
        }
    }
    if (!config_.checkpointPath.empty())
        writeCheckpoint();
    return result;
}

} // namespace nocalert::fault
