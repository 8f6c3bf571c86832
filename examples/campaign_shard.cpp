/**
 * @file
 * Sharded, resumable fault-injection campaigns with JSON results —
 * the batch front-end of FaultCampaign (used by CI's campaign smoke
 * checks and by multi-machine sweeps).
 *
 *   campaign_shard run    --out s0.json [--checkpoint c.json]
 *                         [--checkpoint-every N] [--jobs N] [--limit N]
 *                         [--progress] [campaign flags]
 *   campaign_shard resume --checkpoint c.json [--out s0.json] [--jobs N]
 *                         [--progress]
 *   campaign_shard merge  --out merged.json s0.json s1.json ...
 *   campaign_shard verify a.json b.json
 *   campaign_shard report a.json [--csv FILE]
 *   campaign_shard figures warm.json [cold.json]
 *   campaign_shard help
 *
 * The campaign flags (--mesh, --sites, --rate, --seed, --warmup,
 * --kind, --recovery, --dense-kernel, --shard, the --sample family and
 * the workload backends) and their defaults come from fault/flags.hpp;
 * `campaign_shard help` lists them.
 *
 * `run` executes one shard (default 0/1, i.e. the whole campaign) and
 * writes the result JSON; the checkpoint (default: the --out file)
 * makes a killed run resumable. `--limit N` stops after N new runs,
 * leaving a valid checkpoint — a deterministic stand-in for a kill.
 * `--jobs N` runs N in-process workers (0 = all hardware threads);
 * results are byte-identical for every value. A first Ctrl-C stops the
 * campaign cooperatively and flushes a resumable checkpoint; a second
 * kills the process. `--progress` renders a live status line (runs/s,
 * ETA, outcome counters, worker utilization) on stderr.
 * `--sample` switches the shard to the statistical campaign engine:
 * instead of sweeping every site, it draws (site, cycle, traffic-seed)
 * tuples stratified by signal class until every stratum's confidence
 * interval is narrower than --ci-width (or --max-runs is exhausted),
 * reallocating budget toward uncertain and rare-outcome strata.
 * Sampled runs stay byte-identical for every --jobs value and
 * checkpoint/resume exactly like exhaustive ones (resume replays the
 * deterministic draw stream, pre-filling checkpointed results).
 * `resume` re-reads a checkpoint's embedded config and finishes the
 * shard. `merge` recombines a full set of shard files into a document
 * bit-identical to an unsharded run. `verify` checks that two result
 * files describe the same campaign with identical runs and summaries
 * (including, for sampled results, identical per-stratum estimates)
 * and that neither contains a NoCAlert false negative. `report`
 * prints a result file's classification table (the paper's Section
 * 5.4 breakdown) and, with --csv, exports one row per run. `figures`
 * renders the paper's Figures 3 and 6-9 from a campaign's result
 * file; a second file, the same campaign injected at another instant
 * (usually --warmup 0), adds its rows to Fig 6. The committed
 * runs/paper_{warm,cold}.json are the paper's two instants, and
 * runs/paper_figures.txt is what `figures` prints for them.
 *
 * Exit status: 0 success; 1 verify mismatch (or other fatal error);
 * 2 usage error; 3 verify/report/figures input file missing; 4
 * verify/report/figures input file corrupt (unparseable or failing
 * validation); 130 interrupted by SIGINT (checkpoint flushed,
 * resumable).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/telemetry.hpp"
#include "fault/campaign.hpp"
#include "fault/flags.hpp"
#include "fault/report.hpp"
#include "fault/serialize.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace nocalert;

namespace {

// Exit codes (documented in `campaign_shard help`).
constexpr int kExitOk = 0;
constexpr int kExitMismatch = 1;
constexpr int kExitUsage = 2;
constexpr int kExitMissingFile = 3;
constexpr int kExitCorruptFile = 4;
constexpr int kExitInterrupted = 130;

void
printHelp(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: campaign_shard "
        "<run|resume|merge|verify|report|figures|help> [options]\n"
        "\n"
        "  run    --out FILE [--checkpoint FILE] [--checkpoint-every N]\n"
        "         [--jobs N] [--limit N] [--progress] [campaign flags]\n"
        "             execute one shard; --jobs 0 uses all hardware\n"
        "             threads (results are byte-identical for every\n"
        "             --jobs value); Ctrl-C flushes a resumable\n"
        "             checkpoint\n"
        "  resume --checkpoint FILE [--out FILE] [--jobs N] [--progress]\n"
        "             finish a shard from its checkpoint\n"
        "  merge  --out FILE s0.json s1.json ...\n"
        "             recombine a complete set of shards\n"
        "  verify a.json b.json\n"
        "             compare two result files run-by-run\n"
        "  report FILE [--csv FILE]\n"
        "             print a result file's classification table;\n"
        "             --csv writes one row per run\n"
        "  figures WARM.json [COLD.json]\n"
        "             render the paper's Figures 3 and 6-9 from a\n"
        "             result file; COLD.json (the same campaign at\n"
        "             --warmup 0) adds its rows to Fig 6\n"
        "\n");
    std::fputs(fault::campaignFlagHelp().c_str(), to);
    std::fprintf(
        to,
        "\n"
        "exit status:\n"
        "  0    success\n"
        "  1    verify mismatch, or any other fatal error\n"
        "  2    usage error\n"
        "  3    verify/report/figures: an input file does not exist\n"
        "  4    verify/report/figures: an input file is corrupt\n"
        "       (unparseable JSON or failed schema/consistency\n"
        "       validation)\n"
        "  130  interrupted by SIGINT; the checkpoint was flushed and\n"
        "       the shard is resumable\n");
}

int
usage()
{
    printHelp(stderr);
    return kExitUsage;
}

void
writeResultOrDie(const fault::CampaignResult &result,
                 const std::string &path)
{
    std::string error;
    if (!fault::saveCampaignResult(result, path, &error))
        NOCALERT_FATAL(error);
}

fault::CampaignResult
loadResultOrDie(const std::string &path)
{
    std::string error;
    auto result = fault::loadCampaignResult(path, &error);
    if (!result)
        NOCALERT_FATAL(error);
    return std::move(*result);
}

int
runShard(fault::FaultCampaign &campaign,
         fault::FaultCampaign::RunOptions options, const std::string &out,
         bool show_progress)
{
    // Route the first Ctrl-C into cooperative cancellation so the
    // campaign flushes a valid checkpoint before returning.
    exec::CancelToken cancel;
    exec::SigintCancelScope sigint(cancel);
    options.cancel = &cancel;

    fault::FaultCampaign::Progress progress;
    if (show_progress) {
        options.telemetry = [](const exec::TelemetrySnapshot &snap) {
            std::fprintf(stderr, "\r\033[K%s",
                         exec::TelemetryHub::progressLine(snap).c_str());
        };
    } else {
        progress = [](std::size_t done, std::size_t total) {
            if (done % 10 == 0 || done == total)
                std::printf("  %zu/%zu runs\n", done, total);
        };
    }

    const fault::CampaignResult result = campaign.run(progress, options);
    if (show_progress)
        std::fprintf(stderr, "\n");
    writeResultOrDie(result, out);

    if (!result.complete()) {
        std::printf("shard %s (%zu of %zu runs); resume with:\n"
                    "  campaign_shard resume --checkpoint %s\n",
                    cancel.cancelled() ? "interrupted" : "incomplete",
                    result.runs.size(), result.shardRunsPlanned,
                    result.config.checkpointPath.c_str());
        return cancel.cancelled() ? kExitInterrupted : kExitOk;
    }
    std::printf("%s", fault::summaryText(result).c_str());
    std::printf("wrote %s\n", out.c_str());
    return kExitOk;
}

int
cmdRun(int argc, char **argv)
{
    CommandLine cli(argc, argv,
                    fault::campaignFlags({"out", "checkpoint",
                                          "checkpoint-every", "jobs",
                                          "limit", "progress"}));

    fault::CampaignConfig config = fault::campaignConfigFromFlags(cli);
    config.jobs = cli.getUnsigned("jobs", 0);
    const std::string out = cli.getString("out", "campaign.json");
    config.checkpointPath = cli.getString("checkpoint", out);
    config.checkpointEvery =
        cli.getUnsigned("checkpoint-every", config.checkpointEvery);

    fault::FaultCampaign::RunOptions options;
    options.maxNewRuns = cli.getUnsigned("limit", 0);

    if (config.sampling.enabled) {
        std::printf("running sampled campaign (mesh %dx%d, "
                    "half-width %.3g, max-runs %llu)\n",
                    config.network.width, config.network.height,
                    config.sampling.ciHalfWidth,
                    static_cast<unsigned long long>(
                        config.sampling.maxRuns));
    } else {
        std::printf("running shard %u/%u (%u sites sampled, "
                    "mesh %dx%d)\n",
                    config.shardIndex, config.shardCount,
                    config.maxSites, config.network.width,
                    config.network.height);
    }
    fault::FaultCampaign campaign(config);
    return runShard(campaign, options, out,
                    cli.getBool("progress", false));
}

int
cmdResume(int argc, char **argv)
{
    CommandLine cli(argc, argv, {"checkpoint", "out", "jobs", "progress"});
    const std::string checkpoint = cli.getString("checkpoint", "");
    if (checkpoint.empty())
        NOCALERT_FATAL("resume requires --checkpoint FILE");

    // A checkpoint that exists but cannot be parsed (truncated write,
    // disk corruption) must stop the resume with a diagnosis — never
    // crash, and never fall through to silently restarting the
    // campaign from scratch over the damaged file. loadCampaignResult
    // reports the offending path and, for malformed JSON, the byte
    // offset where parsing failed.
    std::string load_error;
    auto loaded = fault::loadCampaignResult(checkpoint, &load_error);
    if (!loaded) {
        std::fprintf(stderr,
                     "error: cannot resume from checkpoint: %s\n"
                     "       (delete the file to restart the shard "
                     "from scratch)\n",
                     load_error.c_str());
        return 1;
    }

    // Execution knobs are not serialized (schema v4+): the checkpoint
    // carries campaign identity + shard selector (including, for
    // sampled campaigns, the full sampling spec — so the resumed
    // planner replays the exact same draw stream), and this
    // invocation supplies its own jobs count and checkpoint path.
    fault::CampaignConfig config = loaded->config;
    config.checkpointPath = checkpoint;
    config.jobs = cli.getUnsigned("jobs", 0);

    const std::string out = cli.getString("out", checkpoint);
    std::printf("resuming shard %u/%u from %s\n", config.shardIndex,
                config.shardCount, checkpoint.c_str());
    fault::FaultCampaign campaign(config);
    return runShard(campaign, {}, out, cli.getBool("progress", false));
}

int
cmdMerge(int argc, char **argv)
{
    CommandLine cli(argc, argv, {"out"}, /*allow_positionals=*/true);
    if (cli.positionals().empty())
        NOCALERT_FATAL("merge requires shard files as arguments");

    std::vector<fault::CampaignResult> shards;
    for (const std::string &path : cli.positionals())
        shards.push_back(loadResultOrDie(path));

    std::string error;
    auto merged = fault::mergeCampaignShards(shards, &error);
    if (!merged)
        NOCALERT_FATAL("merge failed: ", error);

    const std::string out = cli.getString("out", "merged.json");
    writeResultOrDie(*merged, out);
    std::printf("%s", fault::summaryText(*merged).c_str());
    std::printf("merged %zu shards into %s\n", shards.size(),
                out.c_str());
    return kExitOk;
}

/**
 * Load a verify, report or figures input, distinguishing "file does
 * not exist" (exit 3) from "exists but is corrupt" (exit 4) — a
 * missing shard and a damaged shard call for different operator
 * responses.
 */
fault::CampaignResult
loadInputOrExit(const std::string &path)
{
    if (!std::filesystem::exists(path)) {
        std::fprintf(stderr, "error: '%s' does not exist\n",
                     path.c_str());
        std::exit(kExitMissingFile);
    }
    std::string error;
    auto result = fault::loadCampaignResult(path, &error);
    if (!result) {
        std::fprintf(stderr, "error: corrupt result file: %s\n",
                     error.c_str());
        std::exit(kExitCorruptFile);
    }
    return std::move(*result);
}

int
cmdVerify(int argc, char **argv)
{
    CommandLine cli(argc, argv, {}, /*allow_positionals=*/true);
    if (cli.positionals().size() != 2) {
        std::fprintf(stderr,
                     "usage: campaign_shard verify a.json b.json\n");
        return kExitUsage;
    }

    const fault::CampaignResult a =
        loadInputOrExit(cli.positionals()[0]);
    const fault::CampaignResult b =
        loadInputOrExit(cli.positionals()[1]);

    int failures = 0;
    auto check = [&](bool ok, const char *what) {
        std::printf("  %-28s %s\n", what, ok ? "ok" : "MISMATCH");
        failures += ok ? 0 : 1;
    };

    check(a.complete() && b.complete(), "both complete");
    check(fault::campaignIdentityJson(a.config) ==
              fault::campaignIdentityJson(b.config),
          "campaign identity");
    check(a.totalSitesEnumerated == b.totalSitesEnumerated &&
              a.goldenFlits == b.goldenFlits,
          "enumeration + golden");

    // Per-run records and derived summaries must be bit-identical
    // (sampled records include their stratum/seedIndex draw tags).
    JsonValue runs_a, runs_b;
    for (const fault::FaultRunResult &run : a.runs)
        runs_a.push(fault::toJson(run, a.config.sampling.enabled));
    for (const fault::FaultRunResult &run : b.runs)
        runs_b.push(fault::toJson(run, b.config.sampling.enabled));
    check(runs_a.dump() == runs_b.dump(), "per-run records");

    const auto summary_a = a.summarize();
    const auto summary_b = b.summarize();
    check(fault::toJson(summary_a).dump() ==
              fault::toJson(summary_b).dump(),
          "summaries");

    // Sampled results must additionally agree on their statistical
    // projections — same draws, same intervals, same halt state.
    if (a.config.sampling.enabled || b.config.sampling.enabled) {
        check(a.config.sampling.enabled == b.config.sampling.enabled &&
                  a.samplerDone == b.samplerDone,
              "sampler completion");
        if (a.config.sampling.enabled && b.config.sampling.enabled) {
            check(fault::toJson(fault::computeSamplingReport(a)).dump() ==
                      fault::toJson(fault::computeSamplingReport(b))
                          .dump(),
                  "sampling estimates");
        }
    }

    const auto fn = static_cast<unsigned>(fault::Outcome::FalseNegative);
    check(summary_a.nocalert[fn] == 0 && summary_b.nocalert[fn] == 0,
          "zero false negatives");

    if (failures) {
        std::printf("verify FAILED (%d checks)\n", failures);
        return kExitMismatch;
    }
    std::printf("verify passed: %llu runs, summaries bit-identical\n",
                static_cast<unsigned long long>(summary_a.runs));
    return kExitOk;
}

int
cmdReport(int argc, char **argv)
{
    CommandLine cli(argc, argv, {"csv"}, /*allow_positionals=*/true);
    if (cli.positionals().size() != 1) {
        std::fprintf(stderr,
                     "usage: campaign_shard report FILE [--csv FILE]\n");
        return kExitUsage;
    }

    const fault::CampaignResult result =
        loadInputOrExit(cli.positionals()[0]);
    std::printf("%s", fault::summaryText(result).c_str());
    if (cli.has("csv")) {
        const std::string path = cli.getString("csv", "");
        std::ofstream file(path);
        fault::writeCampaignCsv(result, file);
        file.close();
        if (!file)
            NOCALERT_FATAL("cannot write '", path, "'");
        std::printf("per-run records written to %s\n", path.c_str());
    }
    return kExitOk;
}

int
cmdFigures(int argc, char **argv)
{
    CommandLine cli(argc, argv, {}, /*allow_positionals=*/true);
    const std::vector<std::string> &files = cli.positionals();
    if (files.empty() || files.size() > 2) {
        std::fprintf(stderr, "usage: campaign_shard figures WARM.json "
                             "[COLD.json]\n");
        return kExitUsage;
    }

    const fault::CampaignResult warm = loadInputOrExit(files[0]);
    std::optional<fault::CampaignResult> cold;
    if (files.size() == 2)
        cold = loadInputOrExit(files[1]);
    std::printf("%s",
                fault::figuresText(warm, cold ? &*cold : nullptr).c_str());
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "help" || command == "--help" || command == "-h") {
        printHelp(stdout);
        return kExitOk;
    }
    // Shift so each subcommand parses only its own flags.
    argc -= 1;
    argv += 1;
    if (command == "run")
        return cmdRun(argc, argv);
    if (command == "resume")
        return cmdResume(argc, argv);
    if (command == "merge")
        return cmdMerge(argc, argv);
    if (command == "verify")
        return cmdVerify(argc, argv);
    if (command == "report")
        return cmdReport(argc, argv);
    if (command == "figures")
        return cmdFigures(argc, argv);
    return usage();
}
