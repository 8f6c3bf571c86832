#include "bench_common.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "util/cli.hpp"

namespace nocalert::bench {

fault::CampaignConfig
parseBenchCampaign(int argc, const char *const *argv)
{
    CommandLine cli(argc, argv,
                    {"sites", "rate", "seed", "observe", "drain", "wires",
                     "jobs"});

    fault::CampaignConfig campaign;
    campaign.network.width = 8;
    campaign.network.height = 8;
    campaign.workload.synthetic.injectionRate = cli.getDouble("rate", 0.04);
    campaign.workload.synthetic.seed =
        static_cast<std::uint64_t>(cli.getInt("seed", 1));
    campaign.observeWindow = cli.getUnsigned("observe", 3200);
    campaign.drainLimit = cli.getUnsigned("drain", 6000);
    campaign.maxSites = cli.getUnsigned("sites", 100);
    campaign.wireSitesOnly = cli.getBool("wires", false);
    campaign.jobs = cli.getUnsigned("jobs", 0);
    return campaign;
}

fault::CampaignResult
runCampaign(const fault::CampaignConfig &config, const std::string &label)
{
    std::fprintf(stderr, "[%s] injecting %u sites (mesh %dx%d, rate "
                         "%.3f, warmup %lld)...\n",
                 label.c_str(), config.maxSites, config.network.width,
                 config.network.height, config.workload.synthetic.injectionRate,
                 static_cast<long long>(config.warmup));
    const auto start = std::chrono::steady_clock::now();

    fault::FaultCampaign campaign(config);
    std::atomic<std::size_t> last_decile{0};
    const fault::CampaignResult result = campaign.run(
        [&](std::size_t done, std::size_t total) {
            const std::size_t decile = 10 * done / total;
            if (decile > last_decile.exchange(decile))
                std::fprintf(stderr, ".");
        });

    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::fprintf(stderr, " done: %zu runs in %.1fs\n",
                 result.runs.size(), seconds);
    return result;
}

} // namespace nocalert::bench
