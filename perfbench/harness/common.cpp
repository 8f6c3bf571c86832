#include "common.hpp"

#include <sys/resource.h>

#include <fstream>
#include <map>
#include <sstream>

#include "fault/serialize.hpp"
#include "replica.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"

namespace perfbench {

using namespace nocalert;

const std::vector<std::string> &
harnessFlags()
{
    static const std::vector<std::string> flags = {
        "out", "dir", "mesh", "rate", "warmup", "kind", "recovery",
        "sites", "traffic-seed", "jobs", "max-runs", "sampler-seed",
        "reps", "trace", "doctor", "daemon", "hits"};
    return flags;
}

fault::CampaignConfig
configFromFlags(const CommandLine &cli)
{
    fault::CampaignConfig config;
    config.network.width = static_cast<int>(cli.getInt("mesh", 8));
    config.network.height = config.network.width;
    config.workload.synthetic.injectionRate = cli.getDouble("rate", 0.04);
    config.workload.synthetic.seed =
        static_cast<std::uint64_t>(cli.getInt("traffic-seed", 1));
    config.warmup = cli.getInt("warmup", 2000);
    config.maxSites = static_cast<unsigned>(cli.getInt("sites", 24));
    config.recovery = cli.getBool("recovery", false);
    config.jobs = static_cast<unsigned>(cli.getInt("jobs", 1));
    const std::string kind = cli.getString("kind", "transient");
    if (auto k = fault::faultKindFromName(kind))
        config.kind = *k;
    else
        NOCALERT_FATAL("unknown fault kind '", kind, "'");
    if (cli.has("max-runs")) {
        config.sampling.enabled = true;
        config.sampling.maxRuns =
            static_cast<std::uint64_t>(cli.getInt("max-runs", 0));
        config.sampling.samplerSeed =
            static_cast<std::uint64_t>(cli.getInt("sampler-seed", 1));
    }
    return config;
}

JsonValue
artifactCounts(const fault::CampaignResult &result, const std::string &bytes)
{
    static const char *const kOutcomeKeys[fault::kNumOutcomes] = {
        "tp", "fp", "tn", "fn", "recovered"};
    std::array<std::uint64_t, fault::kNumOutcomes> outcomes = {};
    std::uint64_t forever = 0;
    for (const fault::FaultRunResult &run : result.runs) {
        outcomes[static_cast<unsigned>(run.outcome())] += 1;
        forever += run.foreverDetected ? 1 : 0;
    }
    JsonValue counts;
    counts.set("runs", static_cast<std::uint64_t>(result.runs.size()));
    for (std::size_t i = 0; i < fault::kNumOutcomes; ++i)
        counts.set(kOutcomeKeys[i], outcomes[i]);
    counts.set("forever_detected", forever);
    counts.set("artifact_bytes", static_cast<std::uint64_t>(bytes.size()));
    counts.set("artifact_crc", crc32Hex(crc32(bytes)));
    return counts;
}

std::optional<fault::CampaignResult>
checkArtifact(const std::string &bytes, std::string *why)
{
    std::string error;
    auto result = fault::readCampaignJson(bytes, &error);
    if (!result) {
        *why = "artifact does not parse: " + error;
        return std::nullopt;
    }
    if (!result->complete()) {
        *why = "artifact is not complete()";
        return std::nullopt;
    }
    if (fault::writeCampaignJson(*result) != bytes) {
        *why = "artifact does not re-serialize byte-identically";
        return std::nullopt;
    }
    return result;
}

void
runOracle(const fault::CampaignResult &result, Tally &tally)
{
    const std::size_t count = std::min(kOracleRuns, result.runs.size());
    tally.attempt(count);
    fault::CampaignConfig config = result.config;
    config.denseKernel = true;
    const bool sampled = config.sampling.enabled;
    FatalThrowScope scope;
    try {
        // One Dense reference per traffic-seed offset the subset touches.
        std::map<std::uint32_t, PreparedReference> references;
        for (std::size_t k = 0; k < count; ++k) {
            const fault::FaultRunResult &want =
                result.runs[k * result.runs.size() / count];
            auto it = references.find(want.seedIndex);
            if (it == references.end()) {
                it = references
                         .emplace(want.seedIndex,
                                  prepareReference(config,
                                                   config.workload.seed() +
                                                       want.seedIndex,
                                                   nullptr))
                         .first;
            }
            const PreparedReference &ref = it->second;
            fault::FaultRunResult got = fault::FaultCampaign::runSingle(
                config, ref.base, ref.golden, want.site,
                want.injectCycle - ref.base.cycle());
            got.sampleIndex = want.sampleIndex;
            got.stratum = want.stratum;
            got.seedIndex = want.seedIndex;
            if (fault::toJson(got, sampled).dump() !=
                fault::toJson(want, sampled).dump()) {
                tally.fail("dense oracle disagrees with run " +
                           std::to_string(want.sampleIndex) + " (" +
                           want.site.describe() + ")");
            }
        }
    } catch (const FatalError &error) {
        tally.fail(std::string("dense oracle failed: ") + error.what());
    }
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return std::nullopt;
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

bool
writeJson(const std::string &path, const JsonValue &doc)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << doc.dump(1) << "\n";
    return static_cast<bool>(file);
}

JsonValue
Tally::toJson() const
{
    JsonValue json;
    json.set("attempted", attempted);
    json.set("failed", failed);
    JsonValue list{JsonValue::Array{}};
    for (const std::string &why : failures)
        list.push(why);
    json.set("failures", std::move(list));
    return json;
}

} // namespace perfbench
