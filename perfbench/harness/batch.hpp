/**
 * @file
 * The batch workloads (FaultCampaign::run in process) and the traced
 * replay every workload's traced run shares.
 */

#ifndef PERFBENCH_BATCH_HPP
#define PERFBENCH_BATCH_HPP

#include <cstddef>

#include "common.hpp"
#include "exec/telemetry.hpp"
#include "fault/campaign.hpp"
#include "replica.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace perfbench {

/** One timed FaultCampaign::run, from the call to the saved artifact. */
struct CampaignTiming
{
    double setupSeconds = 0.0;    ///< Call -> telemetry hub start.
    double runPhaseSeconds = 0.0; ///< Hub start -> run() returned.
    double artifactSeconds = 0.0; ///< Call -> artifact saved.
    std::size_t runs = 0;
    nocalert::exec::TelemetrySnapshot last; ///< Final telemetry snapshot.
};

/**
 * Run @p config once and save its artifact to @p path. Setup is read
 * from outside: the TelemetryHub's clock starts once the warm
 * snapshot, golden reference and site plan exist, so the first
 * callback's time minus its elapsedSeconds marks the end of setup.
 * Throws FatalError (inside a FatalThrowScope) when the campaign fails.
 */
CampaignTiming timeCampaign(const nocalert::fault::CampaignConfig &config,
                            const std::string &path);

/** Mean per-worker busy fraction of a telemetry snapshot. */
double meanUtilization(const nocalert::exec::TelemetrySnapshot &snap);

/** What replayTraced measured, accumulated over calls. */
struct TraceReplay
{
    std::size_t artifacts = 0; ///< replayTraced calls so far.
    std::size_t runsReplayed = 0;
    double tracedSeconds = 0.0;   ///< Summed replica run time.
    double untracedSeconds = 0.0; ///< Summed runSingle time, same runs.
    /** Cost of one timed callback, measured before the first replay. */
    TimerCost timer = calibrateTimer();
    /** Per artifact and pass: runs, cycles, evals. */
    nocalert::JsonValue repCounts{nocalert::JsonValue::Array{}};
    /** Per replayed run (artifact, record, pass): RunCounters and
     *  recovery counts. */
    nocalert::JsonValue runs{nocalert::JsonValue::Array{}};

    nocalert::JsonValue toJson(const Tracer &tracer) const;
};

/**
 * Re-run every record of @p artifact @p reps times, each through the
 * traced replica and through FaultCampaign::runSingle (alternating
 * which goes first), on freshly prepared references. A replica record
 * that differs from runSingle's, or runSingle's from the artifact's,
 * counts as a failure in @p tally. Appends to @p replay.
 */
void replayTraced(const nocalert::fault::CampaignResult &artifact,
                  std::size_t reps, Tracer &tracer, Tally &tally,
                  TraceReplay &replay);

/** Time fault::writeCampaignJson on @p result: serialize_s, artifact_kib. */
nocalert::JsonValue
serializeTiming(const nocalert::fault::CampaignResult &result);

/** The `batch` mode; writes the raw-result document to --out. */
int runBatch(const nocalert::CommandLine &cli);

} // namespace perfbench

#endif // PERFBENCH_BATCH_HPP
