/**
 * @file
 * Dense/active/bitmask kernel throughput on full-horizon, fault-free
 * runs: a warmed 8x8 network is copied per run, NoCAlert and ForEVeR
 * observe every cycle (wired by fault::observeRun, as in a campaign
 * run), traffic runs for the observation window, the network drains,
 * and a ForEVeR epoch tail completes the horizon. A campaign run that
 * takes none of FaultCampaign::runSingle's early exits simulates the
 * same cycles. Each kernel executes the same runs; the harness
 * verifies their ejection logs, statistics and NoCAlert and ForEVeR
 * alert counts (plus ForEVeR's first detection cycle) stay identical
 * while it times them, then writes BENCH_kernel.json with runs/sec
 * for all three kernels and two speedups, swept across injection
 * rates (default 0.01/0.02/0.05):
 *
 * - `speedup` (dense vs active) isolates the active-set scheduler:
 *   both kernels evaluate on the branchy pipeline, and Active skips
 *   what the scheduler proves idle. The win is occupancy bound: at
 *   0.05 packets/node/cycle an 8x8 mesh holds ~4.5 flits per router
 *   in steady state, so ~86% of routers are non-quiescent during the
 *   live window and the win comes from the drain + ForEVeR-epoch
 *   tail; at rates <= 0.02, where most routers really are idle on
 *   most cycles, it clears 2-4x.
 * - `bitmaskSpeedup` (active vs bitmask) isolates the packed fast
 *   path: the two kernels share one scheduler (Network::stepBitmask)
 *   and evaluate the same routers, so the ratio is per-evaluation
 *   cost alone, and the win holds at high occupancy too.
 *
 * See EXPERIMENTS.md E10.
 *
 * Exit status is non-zero if the kernels ever disagree, so CI can use
 * this binary as both a perf smoke and an equivalence check.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/nocalert.hpp"
#include "fault/campaign.hpp"
#include "forever/forever.hpp"
#include "noc/network.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

using namespace nocalert;

namespace {

struct RunOutcome
{
    std::size_t ejections = 0;
    std::uint64_t latencySum = 0;
    std::uint64_t flitsEjected = 0;
    std::size_t alerts = 0;
    std::size_t foreverAlerts = 0;
    /** First ForEVeR detection cycle, or -1 when none fired. */
    noc::Cycle foreverFirst = -1;
    noc::Cycle endCycle = 0;
    std::uint64_t routerEvals = 0;
};

struct KernelTiming
{
    double seconds = 0.0; ///< Total across runs (throughput stats).
    /**
     * Fastest single run. Speedup ratios are computed from best
     * times: every run does identical work (the outcome checks pin
     * that), so run-to-run spread is additive scheduler/cache noise
     * and the minimum is the least-contaminated cost estimate.
     */
    double bestSeconds = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t routerEvals = 0;
};

/** One campaign-shaped run of @p base's copy on @p mode. */
RunOutcome
campaignRun(const noc::Network &base, noc::KernelMode mode,
            noc::Cycle observe, noc::Cycle drain_limit,
            const forever::ForeverConfig &fc)
{
    noc::Network net(base);
    net.setKernelMode(mode);

    core::NoCAlertEngine engine(net, /*attach_now=*/false);
    forever::ForeverModel fever(net, fc, /*attach_now=*/false);
    fault::observeRun(net, engine, &fever, nullptr);

    net.run(observe);
    net.drain(drain_limit);
    net.run(fc.epochLength + 2); // ForEVeR horizon tail

    RunOutcome out;
    out.ejections = net.collectEjections().size();
    const noc::NetworkStats stats = net.stats();
    out.latencySum = stats.latencySum;
    out.flitsEjected = stats.flitsEjected;
    out.alerts = engine.log().count();
    out.foreverAlerts = fever.alerts().size();
    out.foreverFirst = fever.firstDetection().value_or(-1);
    out.endCycle = net.cycle();
    out.routerEvals = net.routerEvaluations();
    return out;
}

bool
sameOutcome(const RunOutcome &a, const RunOutcome &b)
{
    return a.ejections == b.ejections && a.latencySum == b.latencySum &&
           a.flitsEjected == b.flitsEjected && a.alerts == b.alerts &&
           a.foreverAlerts == b.foreverAlerts &&
           a.foreverFirst == b.foreverFirst && a.endCycle == b.endCycle;
}

constexpr int kNumKernels = 3;

/** Timings and verdict of one swept injection rate. */
struct RateResult
{
    double rate = 0.0;
    bool identical = true;
    KernelTiming timing[kNumKernels]; // [0]=dense [1]=active [2]=bitmask
    double speedup = 0.0;        // dense best / active best
    double bitmaskSpeedup = 0.0; // active best / bitmask best
};

RateResult
benchRate(int mesh, double rate, std::uint64_t seed, noc::Cycle warmup,
          noc::Cycle observe, unsigned runs)
{
    noc::NetworkConfig config;
    config.width = mesh;
    config.height = mesh;
    noc::TrafficSpec traffic;
    traffic.injectionRate = rate;
    traffic.seed = seed;
    traffic.stopCycle = warmup + observe;

    const noc::Cycle drain_limit = 12000;
    const forever::ForeverConfig fc;

    // Warm base snapshot, as FaultCampaign::prepareReference warms it.
    noc::Network base(config, traffic);
    base.run(warmup);

    RateResult result;
    result.rate = rate;
    const noc::KernelMode modes[kNumKernels] = {noc::KernelMode::Dense,
                                                noc::KernelMode::Active,
                                                noc::KernelMode::Bitmask};

    for (unsigned r = 0; r < runs; ++r) {
        RunOutcome outcomes[kNumKernels];
        for (int k = 0; k < kNumKernels; ++k) {
            const auto start = std::chrono::steady_clock::now();
            outcomes[k] = campaignRun(base, modes[k], observe,
                                      drain_limit, fc);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            result.timing[k].seconds += elapsed.count();
            if (r == 0 ||
                elapsed.count() < result.timing[k].bestSeconds)
                result.timing[k].bestSeconds = elapsed.count();
            result.timing[k].cycles += static_cast<std::uint64_t>(
                outcomes[k].endCycle - base.cycle());
            result.timing[k].routerEvals += outcomes[k].routerEvals;
        }
        for (int k = 1; k < kNumKernels; ++k) {
            if (sameOutcome(outcomes[0], outcomes[k]))
                continue;
            result.identical = false;
            std::fprintf(stderr,
                         "rate %.3f run %u: kernel %d DISAGREES with "
                         "dense (ejections %zu/%zu, alerts %zu/%zu, "
                         "ForEVeR alerts %zu/%zu, end cycle "
                         "%lld/%lld)\n",
                         rate, r, k, outcomes[0].ejections,
                         outcomes[k].ejections, outcomes[0].alerts,
                         outcomes[k].alerts, outcomes[0].foreverAlerts,
                         outcomes[k].foreverAlerts,
                         static_cast<long long>(outcomes[0].endCycle),
                         static_cast<long long>(outcomes[k].endCycle));
        }
        // Active and bitmask share one scheduler, so their
        // scheduling decisions must agree run by run.
        if (outcomes[1].routerEvals != outcomes[2].routerEvals) {
            result.identical = false;
            std::fprintf(stderr,
                         "rate %.3f run %u: active/bitmask router "
                         "eval counts diverge (%llu vs %llu)\n",
                         rate, r,
                         static_cast<unsigned long long>(
                             outcomes[1].routerEvals),
                         static_cast<unsigned long long>(
                             outcomes[2].routerEvals));
        }
    }
    result.speedup =
        result.timing[0].bestSeconds / result.timing[1].bestSeconds;
    result.bitmaskSpeedup =
        result.timing[1].bestSeconds / result.timing[2].bestSeconds;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv,
                    {"mesh", "rate", "rates", "seed", "warmup",
                     "observe", "runs", "out", "notes"});

    const int mesh = static_cast<int>(cli.getUnsigned("mesh", 8));
    const noc::Cycle warmup = cli.getUnsigned("warmup", 500);
    const noc::Cycle observe = cli.getUnsigned("observe", 2000);
    const unsigned runs = cli.getUnsigned("runs", 3);
    if (runs == 0)
        NOCALERT_FATAL("flag --runs must be at least 1");
    const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 5));
    const std::string out_path =
        cli.getString("out", "BENCH_kernel.json");

    // --rate X pins a single rate; --rates a,b,c sweeps.
    const std::vector<double> rates =
        cli.getDouble("rate", 0.0) > 0.0
            ? std::vector<double>{cli.getDouble("rate", 0.0)}
            : cli.getList<double>("rates", {0.01, 0.02, 0.05});

    const forever::ForeverConfig fc;
    std::printf("micro_kernel: %dx%d mesh, %u runs of observe=%lld + "
                "drain + %lld-cycle tail per kernel per rate\n",
                mesh, mesh, runs, static_cast<long long>(observe),
                static_cast<long long>(fc.epochLength + 2));

    const char *names[kNumKernels] = {"dense", "active", "bitmask"};
    bool identical = true;
    bool first = true;
    double min_speedup = 0.0;
    double max_speedup = 0.0;
    double min_bitmask = 0.0;
    double max_bitmask = 0.0;
    JsonValue sweep(JsonValue::Array{});

    for (const double rate : rates) {
        const RateResult res =
            benchRate(mesh, rate, seed, warmup, observe, runs);
        identical = identical && res.identical;
        if (first) {
            min_speedup = max_speedup = res.speedup;
            min_bitmask = max_bitmask = res.bitmaskSpeedup;
            first = false;
        } else {
            min_speedup = std::min(min_speedup, res.speedup);
            max_speedup = std::max(max_speedup, res.speedup);
            min_bitmask = std::min(min_bitmask, res.bitmaskSpeedup);
            max_bitmask = std::max(max_bitmask, res.bitmaskSpeedup);
        }

        JsonValue entry;
        entry.set("rate", rate);
        entry.set("identical", res.identical);
        for (int k = 0; k < kNumKernels; ++k) {
            JsonValue kernel;
            kernel.set("seconds", res.timing[k].seconds);
            kernel.set("bestSeconds", res.timing[k].bestSeconds);
            kernel.set("runsPerSec", runs / res.timing[k].seconds);
            kernel.set("cyclesPerSec",
                       res.timing[k].cycles / res.timing[k].seconds);
            kernel.set("routerEvals", res.timing[k].routerEvals);
            entry.set(names[k], std::move(kernel));
        }
        entry.set("speedup", res.speedup);
        entry.set("bitmaskSpeedup", res.bitmaskSpeedup);
        sweep.push(std::move(entry));

        std::printf("rate %.3f:\n", rate);
        for (int k = 0; k < kNumKernels; ++k) {
            std::printf("  %-7s  %8.3f s  %7.2f runs/s  "
                        "%12.0f cycles/s  %llu router evals\n",
                        names[k], res.timing[k].seconds,
                        runs / res.timing[k].seconds,
                        res.timing[k].cycles / res.timing[k].seconds,
                        static_cast<unsigned long long>(
                            res.timing[k].routerEvals));
        }
        std::printf("  speedup (active vs dense): %.2fx, "
                    "(bitmask vs active): %.2fx  [%s]\n",
                    res.speedup, res.bitmaskSpeedup,
                    res.identical ? "bit-identical" : "MISMATCH");
    }

    JsonValue json;
    json.set("schema", "nocalert-bench-kernel");
    json.set("mesh", mesh);
    json.set("warmup", warmup);
    json.set("observeWindow", observe);
    json.set("runs", runs);
    json.set("identical", identical);
    json.set("sweep", std::move(sweep));
    json.set("minSpeedup", min_speedup);
    json.set("maxSpeedup", max_speedup);
    json.set("minBitmaskSpeedup", min_bitmask);
    json.set("maxBitmaskSpeedup", max_bitmask);
    // Free-form provenance (e.g. a before/after note for an
    // optimization this file's numbers record). The perf gate ignores
    // unknown keys, so notes ride along without affecting the floor.
    const std::string notes = cli.getString("notes", "");
    if (!notes.empty())
        json.set("notes", notes);

    std::ofstream file(out_path);
    file << json.dump(2) << "\n";
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::printf("active-vs-dense speedup range: %.2fx - %.2fx\n",
                min_speedup, max_speedup);
    std::printf("bitmask-vs-active speedup range: %.2fx - %.2fx\n",
                min_bitmask, max_bitmask);
    std::printf("wrote %s\n", out_path.c_str());

    return identical ? 0 : 2;
}
