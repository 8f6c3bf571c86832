#include "fault/flags.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "util/log.hpp"

namespace nocalert::fault {

namespace {

constexpr int kMesh = 4;
constexpr double kRate = 0.05;
constexpr std::int64_t kSeed = 3;
constexpr unsigned kWarmup = 200;
constexpr unsigned kSites = 120;

std::vector<std::string>
append(std::vector<std::string> flags, std::vector<std::string> extra)
{
    flags.insert(flags.end(), extra.begin(), extra.end());
    return flags;
}

/** Parse "i/N" into the shard selector; both parts whole counts. */
void
parseShard(const std::string &selector, CampaignConfig &config)
{
    const char *begin = selector.data();
    const char *end = begin + selector.size();
    const char *slash = std::find(begin, end, '/');
    auto whole = [](const char *first, const char *last, unsigned &value) {
        const auto [stop, error] = std::from_chars(first, last, value);
        return error == std::errc() && stop == last;
    };
    if (slash == end || !whole(begin, slash, config.shardIndex) ||
        !whole(slash + 1, end, config.shardCount))
        NOCALERT_FATAL("--shard expects i/N, got '", selector, "'");
}

SamplingSpec
samplingFromFlags(const CommandLine &cli)
{
    SamplingSpec sampling;
    sampling.enabled = true;
    sampling.ciHalfWidth = cli.getDouble("ci-width", sampling.ciHalfWidth);
    sampling.maxRuns =
        cli.getUnsigned("max-runs", static_cast<unsigned>(sampling.maxRuns));
    sampling.batchSize = cli.getUnsigned("batch", sampling.batchSize);
    sampling.confidence = cli.getDouble("confidence", sampling.confidence);
    sampling.cycleJitter = cli.getUnsigned(
        "cycle-jitter", static_cast<unsigned>(sampling.cycleJitter));
    sampling.seedCount = cli.getUnsigned("seeds", sampling.seedCount);
    const auto seed = static_cast<std::int64_t>(sampling.samplerSeed);
    sampling.samplerSeed =
        static_cast<std::uint64_t>(cli.getInt("sampler-seed", seed));
    const std::string stratify =
        cli.getString("stratify", stratifyName(sampling.stratify));
    if (auto mode = stratifyFromName(stratify))
        sampling.stratify = *mode;
    else
        NOCALERT_FATAL("unknown stratification '", stratify,
                       "' (none|signal-class|phase)");
    const std::string method =
        cli.getString("ci-method", stats::intervalMethodName(sampling.method));
    if (auto m = stats::intervalMethodFromName(method))
        sampling.method = *m;
    else
        NOCALERT_FATAL("unknown interval method '", method,
                       "' (wilson|clopper-pearson)");
    // The planner's budget guard would catch this too, but only after
    // the FaultCampaign constructor; fail at flag level with flag
    // names the user can act on.
    if (sampling.ciHalfWidth <= 0 && sampling.maxRuns == 0)
        NOCALERT_FATAL("--sample needs --ci-width > 0 or --max-runs > 0 "
                       "to bound the campaign");
    return sampling;
}

} // namespace

std::vector<std::string>
workloadFlags(std::vector<std::string> extra)
{
    return append({"phases", "burst", "phase-repeat", "trace-replay"},
                  std::move(extra));
}

std::vector<std::string>
campaignFlags(std::vector<std::string> extra)
{
    return workloadFlags(append(
        {"mesh", "sites", "rate", "seed", "warmup", "kind", "recovery",
         "dense-kernel", "shard", "sample", "ci-width", "max-runs",
         "batch", "confidence", "stratify", "ci-method", "cycle-jitter",
         "seeds", "sampler-seed"},
        std::move(extra)));
}

std::string
campaignFlagHelp()
{
    const SamplingSpec sampling;
    std::ostringstream os;
    os << "campaign flags (defaults in parentheses):\n"
       << "  --mesh N             N x N mesh (" << kMesh << ")\n"
       << "  --sites N            sites sampled, 0 = all (" << kSites << ")\n"
       << "  --rate R             injection rate (" << kRate << ")\n"
       << "  --seed S             traffic seed (" << kSeed << ")\n"
       << "  --warmup N           cycles before a fault (" << kWarmup << ")\n"
       << "  --kind K             transient|permanent|intermittent\n"
       << "                       (transient)\n"
       << "  --recovery           retransmission + quarantine recovery\n"
       << "  --dense-kernel       dense kernel (identical results)\n"
       << "  --shard i/N          run sample indices i, i+N, ... (0/1)\n"
       << "  --sample             stratified random (site, cycle, seed)\n"
       << "                       draws until every stratum's interval\n"
       << "                       half-width is below --ci-width or\n"
       << "                       --max-runs is spent\n"
       << "  --ci-width W         target half-width, 0 = none ("
       << sampling.ciHalfWidth << ")\n"
       << "  --max-runs N         draw budget, 0 = no cap ("
       << sampling.maxRuns << "); --sample\n"
       << "                       needs one of the two\n"
       << "  --batch N            batch size (" << sampling.batchSize << ")\n"
       << "  --confidence C       level of every interval ("
       << sampling.confidence << ")\n"
       << "  --stratify MODE      none|signal-class|phase ("
       << stratifyName(sampling.stratify) << ")\n"
       << "  --ci-method M        wilson|clopper-pearson ("
       << stats::intervalMethodName(sampling.method) << ")\n"
       << "  --cycle-jitter N     spread injections over N cycles ("
       << sampling.cycleJitter << ")\n"
       << "  --seeds N            traffic seeds drawn per site ("
       << sampling.seedCount << ")\n"
       << "  --sampler-seed S     seed of the draw stream ("
       << sampling.samplerSeed << ")\n"
       << "  --phases PROG        phase program \"b:e:pattern:rate[,...]\"\n"
       << "                       instead of stationary traffic\n"
       << "  --burst SPEC         on/off modulation of the program:\n"
       << "                       \"period:onProb:onMult:offMult[:layers]\"\n"
       << "  --phase-repeat       wrap the program instead of idling\n"
       << "  --trace-replay FILE  replay a recorded injection trace\n";
    return os.str();
}

bool
workloadFromFlags(const CommandLine &cli, traffic::WorkloadSpec &workload)
{
    const bool phases = cli.has("phases");
    if (phases && cli.has("trace-replay"))
        NOCALERT_FATAL("--phases and --trace-replay are mutually "
                       "exclusive");
    for (const char *modifier : {"burst", "phase-repeat"}) {
        if (!phases && cli.has(modifier))
            NOCALERT_FATAL("--", modifier, " requires a --phases program");
    }

    if (phases) {
        workload.kind = traffic::WorkloadKind::Phased;
        std::string error = traffic::parsePhaseProgram(
            cli.getString("phases", ""), workload.phased);
        if (!error.empty())
            NOCALERT_FATAL("bad --phases: ", error);
        if (cli.has("burst")) {
            error = traffic::parseBurstSpec(cli.getString("burst", ""),
                                            workload.phased.burst);
            if (!error.empty())
                NOCALERT_FATAL("bad --burst: ", error);
        }
        workload.phased.repeat = cli.getBool("phase-repeat", false);
        return true;
    }
    if (cli.has("trace-replay")) {
        workload.kind = traffic::WorkloadKind::Trace;
        workload.trace.path = cli.getString("trace-replay", "");
        std::string error;
        if (!traffic::stampTraceSpec(workload.trace, &error))
            NOCALERT_FATAL("bad --trace-replay: ", error);
        return true;
    }
    return false;
}

CampaignConfig
campaignConfigFromFlags(const CommandLine &cli)
{
    CampaignConfig config;
    config.network.width = static_cast<int>(cli.getInt("mesh", kMesh));
    config.network.height = config.network.width;
    workloadFromFlags(cli, config.workload);
    config.workload.synthetic.injectionRate = cli.getDouble("rate", kRate);
    config.workload.setSeed(
        static_cast<std::uint64_t>(cli.getInt("seed", kSeed)));
    config.warmup = cli.getUnsigned("warmup", kWarmup);
    config.maxSites = cli.getUnsigned("sites", kSites);
    config.denseKernel = cli.getBool("dense-kernel", false);
    config.recovery = cli.getBool("recovery", false);
    const std::string kind = cli.getString("kind", "transient");
    if (auto k = faultKindFromName(kind))
        config.kind = *k;
    else
        NOCALERT_FATAL("unknown fault kind '", kind, "'");
    parseShard(cli.getString("shard", "0/1"), config);
    if (cli.getBool("sample", false))
        config.sampling = samplingFromFlags(cli);
    return config;
}

} // namespace nocalert::fault
