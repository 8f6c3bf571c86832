/**
 * @file
 * Shared pieces of the benchmark harness: campaign configs built from
 * the generated workload parameters, the artifact checks, the Dense
 * oracle, and the tally of attempted and failed operations.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Flags every harness mode accepts (CommandLine rejects others). */
const std::vector<std::string> &harnessFlags();

/**
 * Campaign config from the generated workload parameters: --mesh,
 * --rate, --warmup, --kind, --recovery, --sites, --traffic-seed,
 * --jobs, and for sampled specs --max-runs and --sampler-seed. The
 * site-sample seed and ForEVeR keep CampaignConfig's defaults.
 */
nocalert::fault::CampaignConfig configFromFlags(
    const nocalert::CommandLine &cli);

/** Fold one artifact's run records into work counts (runs, outcome
 *  classes, ForEVeR detections, artifact bytes and CRC). */
nocalert::JsonValue artifactCounts(
    const nocalert::fault::CampaignResult &result,
    const std::string &bytes);

/**
 * The serialized-artifact check: @p bytes parse, the campaign is
 * complete(), and it re-serializes byte for byte. Returns the parsed
 * result, or nullopt with @p why set.
 */
std::optional<nocalert::fault::CampaignResult>
checkArtifact(const std::string &bytes, std::string *why);

/**
 * Counts of attempted and failed operations, with one message per
 * failure (run.py prints them, so a failing check names itself).
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void attempt(std::uint64_t n = 1) { attempted += n; }
    void fail(std::string why, std::uint64_t n = 1)
    {
        failed += n;
        failures.push_back(std::move(why));
    }
    nocalert::JsonValue toJson() const;
};

/** Records per artifact the Dense oracle re-simulates. */
inline constexpr std::size_t kOracleRuns = 2;

/**
 * Re-simulate kOracleRuns records of @p result (evenly spread, the
 * first included) with FaultCampaign::runSingle on a Dense-kernel warm
 * snapshot and golden reference, outside any timed region. Each
 * re-simulated record must serialize like the artifact's; every
 * mismatch counts as a failure in @p tally.
 */
void runOracle(const nocalert::fault::CampaignResult &result, Tally &tally);

/** Peak resident set of this process, MiB. */
double peakRssMiB();

/** Read a whole file; nullopt when unreadable. */
std::optional<std::string> readFile(const std::string &path);

/** Write @p doc to @p path (pretty-printed). False on I/O failure. */
bool writeJson(const std::string &path, const nocalert::JsonValue &doc);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
