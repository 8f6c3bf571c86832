/**
 * @file
 * Batch workloads: FaultCampaign::run called in process, repeated
 * --reps times on one generated config. Untraced, each repetition is
 * timed from the call to the saved artifact. Traced, one campaign
 * supplies the artifact and the exec/serialize numbers, and the
 * replica re-runs every record with spans.
 */

#include "batch.hpp"

#include <algorithm>
#include <fstream>
#include <optional>

#include "exec/telemetry.hpp"
#include "fault/serialize.hpp"
#include "fault/site.hpp"
#include "replica.hpp"
#include "util/log.hpp"

namespace perfbench {

using namespace nocalert;

namespace {

/** Flip one byte in the middle of the file (the self-test's doctored
 *  artifact). */
void
doctorFile(const std::string &path)
{
    std::optional<std::string> bytes = readFile(path);
    if (!bytes || bytes->empty())
        return;
    (*bytes)[bytes->size() / 2] ^= 0x01;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << *bytes;
}

/** Read and check a saved artifact; counts a failure on any problem. */
std::optional<fault::CampaignResult>
loadChecked(const std::string &path, Tally &tally, std::string *bytes_out)
{
    tally.attempt();
    std::optional<std::string> bytes = readFile(path);
    if (!bytes) {
        tally.fail("artifact " + path + " is unreadable");
        return std::nullopt;
    }
    std::string why;
    auto result = checkArtifact(*bytes, &why);
    if (!result) {
        tally.fail(path + ": " + why);
        return std::nullopt;
    }
    *bytes_out = std::move(*bytes);
    return result;
}

JsonValue
countersJson(const RunCounters &c)
{
    JsonValue json;
    json.set("sim_cycles", c.simCycles);
    json.set("router_evals", c.routerEvals);
    json.set("ni_evals", c.niEvals);
    json.set("branchy_calls", c.branchyCalls);
    json.set("packed_calls", c.packedCalls);
    json.set("checker_ns", c.checker.ns);
    json.set("checker_calls", c.checker.calls);
    json.set("forever_ns", c.forever.ns);
    json.set("forever_calls", c.forever.calls);
    json.set("orchestrator_ns", c.orchestrator.ns);
    json.set("orchestrator_calls", c.orchestrator.calls);
    json.set("golden_flits", c.goldenFlits);
    return json;
}

} // namespace

CampaignTiming
timeCampaign(const fault::CampaignConfig &config, const std::string &path)
{
    std::optional<Clock::time_point> hub_start;
    exec::TelemetrySnapshot last;
    fault::FaultCampaign::RunOptions options;
    options.telemetry = [&](const exec::TelemetrySnapshot &snap) {
        if (!hub_start) {
            hub_start = Clock::now() -
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                snap.elapsedSeconds));
        }
        last = snap;
    };

    const Clock::time_point start = Clock::now();
    fault::FaultCampaign campaign(config);
    const fault::CampaignResult result = campaign.run(nullptr, options);
    const Clock::time_point ran = Clock::now();
    std::string error;
    if (!fault::saveCampaignResult(result, path, &error))
        NOCALERT_FATAL("saving the artifact failed: ", error);
    const Clock::time_point saved = Clock::now();
    if (!hub_start)
        NOCALERT_FATAL("the campaign committed no run");

    CampaignTiming timing;
    timing.setupSeconds = seconds(start, *hub_start);
    timing.runPhaseSeconds = seconds(*hub_start, ran);
    timing.artifactSeconds = seconds(start, saved);
    timing.runs = result.runs.size();
    timing.last = std::move(last);
    return timing;
}

double
meanUtilization(const exec::TelemetrySnapshot &snap)
{
    if (snap.workerUtilization.empty())
        return 0.0;
    double sum = 0.0;
    for (double u : snap.workerUtilization)
        sum += u;
    return sum / static_cast<double>(snap.workerUtilization.size());
}

void
replayTraced(const fault::CampaignResult &artifact, std::size_t reps,
             Tracer &tracer, Tally &tally, TraceReplay &replay)
{
    const fault::CampaignConfig &config = artifact.config;
    const bool sampled = config.sampling.enabled;

    FatalThrowScope scope;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        // References per traffic-seed offset, each with its setup spans.
        std::vector<std::optional<PreparedReference>> refs;
        for (const fault::FaultRunResult &run : artifact.runs) {
            if (run.seedIndex >= refs.size())
                refs.resize(run.seedIndex + 1);
            if (!refs[run.seedIndex]) {
                refs[run.seedIndex].emplace(prepareReference(
                    config, config.workload.seed() + run.seedIndex,
                    &tracer));
            }
        }
        if (!sampled) {
            ScopedSpan span(&tracer, "fault.site_plan");
            std::vector<fault::FaultSite> population =
                fault::FaultSiteCatalog::enumerateNetwork(config.network);
            if (config.wireSitesOnly) {
                std::erase_if(population, [](const fault::FaultSite &s) {
                    return fault::isStateSignal(s.signal);
                });
            }
            const std::vector<fault::FaultSite> sites =
                fault::FaultSiteCatalog::sampleSites(
                    std::move(population), config.maxSites,
                    config.sampleSeed);
            bool same = sites.size() == artifact.runs.size();
            for (std::size_t i = 0; same && i < sites.size(); ++i)
                same = sites[i] == artifact.runs[i].site;
            if (!same)
                tally.fail("replica site plan differs from the artifact's");
        }

        RunCounters total;
        for (std::size_t i = 0; i < artifact.runs.size(); ++i) {
            const fault::FaultRunResult &want = artifact.runs[i];
            const PreparedReference &ref = *refs[want.seedIndex];
            const noc::Cycle offset = want.injectCycle - ref.base.cycle();
            const std::int64_t run_id = static_cast<std::int64_t>(
                replay.runs.array().size());
            tally.attempt();

            RunCounters counters;
            std::optional<fault::FaultRunResult> traced;
            std::optional<fault::FaultRunResult> single;
            std::int64_t traced_ns = 0;
            std::int64_t single_ns = 0;
            auto doTraced = [&] {
                const std::int64_t t = tracer.now();
                traced = tracedRunSingle(config, ref.base, ref.golden,
                                         want.site, offset, tracer, run_id,
                                         counters);
                traced_ns = tracer.now() - t;
            };
            auto doSingle = [&] {
                const std::int64_t t = tracer.now();
                single = fault::FaultCampaign::runSingle(
                    config, ref.base, ref.golden, want.site, offset);
                single_ns = tracer.now() - t;
            };
            // Alternate the order so drift in host speed hits both.
            try {
                if (i % 2 == 0) {
                    doTraced();
                    doSingle();
                } else {
                    doSingle();
                    doTraced();
                }
            } catch (const FatalError &error) {
                tally.fail("replayed run " + std::to_string(i) +
                           " failed: " + error.what());
                continue;
            }
            for (fault::FaultRunResult *r : {&*traced, &*single}) {
                r->sampleIndex = want.sampleIndex;
                r->stratum = want.stratum;
                r->seedIndex = want.seedIndex;
            }
            const std::string traced_json =
                fault::toJson(*traced, sampled).dump();
            if (traced_json != fault::toJson(*single, sampled).dump()) {
                tally.fail("replica record differs from runSingle's at run " +
                           std::to_string(i));
            } else if (traced_json != fault::toJson(want, sampled).dump()) {
                tally.fail("runSingle record differs from the artifact's "
                           "at run " +
                           std::to_string(i));
            }
            replay.tracedSeconds += static_cast<double>(traced_ns) * 1e-9;
            replay.untracedSeconds += static_cast<double>(single_ns) * 1e-9;

            JsonValue row = countersJson(counters);
            row.set("run_id", run_id);
            row.set("artifact", static_cast<std::uint64_t>(replay.artifacts));
            row.set("record", static_cast<std::uint64_t>(i));
            row.set("pass", static_cast<std::uint64_t>(rep));
            row.set("recovery_actions",
                    static_cast<std::uint64_t>(traced->recoveryActions));
            row.set("retransmits", traced->retransmits);
            row.set("purged_flits", traced->purgedFlits);
            replay.runs.push(std::move(row));

            total.simCycles += counters.simCycles;
            total.routerEvals += counters.routerEvals;
            total.niEvals += counters.niEvals;
        }
        JsonValue counts;
        counts.set("artifact", static_cast<std::uint64_t>(replay.artifacts));
        counts.set("runs", static_cast<std::uint64_t>(artifact.runs.size()));
        counts.set("sim_cycles", total.simCycles);
        counts.set("router_evals", total.routerEvals);
        counts.set("ni_evals", total.niEvals);
        replay.repCounts.push(std::move(counts));
        replay.runsReplayed += artifact.runs.size();
    }
    ++replay.artifacts;
}

JsonValue
serializeTiming(const fault::CampaignResult &result)
{
    const Clock::time_point start = Clock::now();
    const std::string text = fault::writeCampaignJson(result);
    JsonValue row;
    row.set("serialize_s", seconds(start, Clock::now()));
    row.set("artifact_kib", static_cast<double>(text.size()) / 1024.0);
    return row;
}

int
runBatch(const CommandLine &cli)
{
    const std::string out = cli.getString("out", "");
    const std::string dir = cli.getString("dir", ".");
    const fault::CampaignConfig config = configFromFlags(cli);
    const auto reps = static_cast<std::size_t>(cli.getInt("reps", 3));
    const bool trace = cli.getBool("trace", false);
    const std::string doctor = cli.getString("doctor", "");
    if (out.empty() || reps == 0)
        NOCALERT_FATAL("batch needs --out and --reps >= 1");

    Tally tally;
    JsonValue doc;
    JsonValue rep_rows{JsonValue::Array{}};
    std::optional<fault::CampaignResult> first;
    double utilization = 0.0;
    const std::size_t campaign_reps = trace ? 1 : reps;

    for (std::size_t rep = 0; rep < campaign_reps; ++rep) {
        const std::string path =
            dir + "/artifact_" + std::to_string(rep) + ".json";
        tally.attempt(config.maxSites);
        CampaignTiming timing;
        try {
            FatalThrowScope scope;
            timing = timeCampaign(config, path);
        } catch (const FatalError &error) {
            tally.fail("repetition " + std::to_string(rep) +
                           " failed: " + error.what(),
                       config.maxSites);
            continue;
        }
        if (doctor == "artifact" && rep == 0)
            doctorFile(path);
        std::string bytes;
        auto result = loadChecked(path, tally, &bytes);

        JsonValue row;
        row.set("setup_s", timing.setupSeconds);
        row.set("run_phase_s", timing.runPhaseSeconds);
        row.set("submit_to_artifact_s", timing.artifactSeconds);
        row.set("runs", static_cast<std::uint64_t>(timing.runs));
        if (result) {
            JsonValue counts = artifactCounts(*result, bytes);
            if (doctor == "count" && rep == 1)
                counts.set("runs",
                           static_cast<std::uint64_t>(timing.runs + 1));
            row.set("counts", std::move(counts));
            if (!first) {
                first = std::move(result);
                utilization = meanUtilization(timing.last);
            }
        }
        rep_rows.push(std::move(row));
    }
    doc.set("reps", std::move(rep_rows));
    doc.set("peak_rss_mib", peakRssMiB());

    if (first) {
        runOracle(*first, tally);
        if (trace) {
            Tracer tracer;
            TraceReplay replay;
            replayTraced(*first, reps, tracer, tally, replay);
            JsonValue trace_doc;
            trace_doc.set("replay", replay.toJson(tracer));
            JsonValue artifacts{JsonValue::Array{}};
            artifacts.push(serializeTiming(*first));
            trace_doc.set("artifacts", std::move(artifacts));
            trace_doc.set("worker_utilization", utilization);
            doc.set("trace", std::move(trace_doc));
        }
    }
    doc.set("tally", tally.toJson());
    if (!writeJson(out, doc))
        NOCALERT_FATAL("cannot write ", out);
    return 0;
}

JsonValue
TraceReplay::toJson(const Tracer &tracer) const
{
    JsonValue json;
    json.set("replica_of", kReplicaOf);
    json.set("runs_replayed", static_cast<std::uint64_t>(runsReplayed));
    json.set("traced_s", tracedSeconds);
    json.set("untraced_s", untracedSeconds);
    json.set("timer_inside_ns", timer.insideNs);
    json.set("timer_outside_ns", timer.outsideNs);
    json.set("rep_counts", repCounts);
    json.set("runs", runs);
    json.set("spans", tracer.toJson());
    return json;
}

} // namespace perfbench
