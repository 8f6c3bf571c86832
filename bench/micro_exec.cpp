/**
 * @file
 * Execution-engine throughput: the same fault campaign run at a sweep
 * of --jobs values (default 1,2,4,8), timing whole-campaign wall
 * clock and verifying that every parallel artifact is byte-identical
 * to the serial one (writeCampaignJson compared as strings — config,
 * telemetry block, every run record). Writes BENCH_exec.json with the
 * runs/sec and speedup-vs-serial per jobs value.
 *
 * Speedup is bounded by the machine: `hardwareConcurrency` is
 * recorded in the artifact so a curve from a 1-core container (flat,
 * ~1.0x) is distinguishable from an 8-core runner (where --jobs 8
 * must clear 3x). The identity check is the part that is
 * machine-independent — exit status is non-zero if any jobs value
 * produces a different artifact, so CI can use this binary as both a
 * perf smoke and a determinism check.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exec/workpool.hpp"
#include "fault/campaign.hpp"
#include "fault/serialize.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace nocalert;

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv,
                    {"mesh", "sites", "rate", "seed", "warmup",
                     "observe", "drain", "jobs-list", "out"});

    fault::CampaignConfig config;
    config.network.width = static_cast<int>(cli.getUnsigned("mesh", 8));
    config.network.height = config.network.width;
    config.workload.synthetic.injectionRate = cli.getDouble("rate", 0.03);
    config.workload.synthetic.seed =
        static_cast<std::uint64_t>(cli.getInt("seed", 5));
    config.warmup = cli.getUnsigned("warmup", 400);
    config.observeWindow = cli.getUnsigned("observe", 1200);
    config.drainLimit = cli.getUnsigned("drain", 6000);
    config.maxSites = cli.getUnsigned("sites", 32);

    const std::vector<unsigned> jobs_sweep =
        cli.getList<unsigned>("jobs-list", {1, 2, 4, 8});
    const std::string out_path = cli.getString("out", "BENCH_exec.json");
    const unsigned hw = exec::WorkerPool::hardwareConcurrency();

    std::printf("micro_exec: %u-site campaign on a %dx%d mesh, jobs "
                "sweep (%u hardware threads)\n",
                config.maxSites, config.network.width,
                config.network.height, hw);

    std::string serial_artifact;
    double serial_seconds = 0.0;
    bool identical = true;
    double max_speedup = 0.0;
    JsonValue sweep(JsonValue::Array{});

    for (const unsigned jobs : jobs_sweep) {
        config.jobs = jobs;
        fault::FaultCampaign campaign(config);

        const auto start = std::chrono::steady_clock::now();
        const fault::CampaignResult result = campaign.run();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();

        const std::string artifact = fault::writeCampaignJson(result);
        if (serial_artifact.empty()) {
            serial_artifact = artifact;
            serial_seconds = seconds;
        } else if (artifact != serial_artifact) {
            identical = false;
            std::fprintf(stderr,
                         "jobs %u: artifact DIFFERS from --jobs %u\n",
                         jobs, jobs_sweep.front());
        }

        const double speedup = serial_seconds / seconds;
        max_speedup = std::max(max_speedup, speedup);

        JsonValue entry;
        entry.set("jobs", jobs);
        entry.set("seconds", seconds);
        entry.set("runsPerSec", result.runs.size() / seconds);
        entry.set("speedup", speedup);
        sweep.push(std::move(entry));

        std::printf("  jobs %2u: %7.2f s  %6.2f runs/s  %.2fx  [%s]\n",
                    jobs, seconds, result.runs.size() / seconds,
                    speedup,
                    artifact == serial_artifact ? "byte-identical"
                                                : "MISMATCH");
    }

    JsonValue json;
    json.set("schema", "nocalert-bench-exec");
    json.set("mesh", config.network.width);
    json.set("sites", config.maxSites);
    json.set("warmup", config.warmup);
    json.set("observeWindow", config.observeWindow);
    json.set("hardwareConcurrency", hw);
    json.set("identical", identical);
    json.set("sweep", std::move(sweep));
    json.set("maxSpeedup", max_speedup);

    std::ofstream file(out_path);
    file << json.dump(2) << "\n";
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::printf("max speedup vs --jobs %u: %.2fx (%u hardware "
                "threads)\n",
                jobs_sweep.front(), max_speedup, hw);
    std::printf("wrote %s\n", out_path.c_str());

    return identical ? 0 : 2;
}
