/**
 * @file
 * Extension beyond the paper's single-fault model ("more elaborate
 * fault models are left for future work", Section 5.2): pairs of
 * simultaneous single-bit transients injected at two independent
 * sites in the same cycle.
 *
 * The interesting question is whether fault *pairs* can conspire to
 * evade the checkers — e.g. one fault masking the network-level
 * symptom of another. The campaign classifies pairs exactly like
 * single faults against the same golden reference.
 *
 * Usage: ablation_multifault [--sites N] [--rate R]
 */

#include <cstdio>

#include "bench_common.hpp"
#include "core/nocalert.hpp"
#include "fault/campaign.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace nocalert;

namespace {

fault::FaultRunResult
runPair(const fault::CampaignConfig &config, const noc::Network &base,
        const fault::GoldenReference &golden,
        const fault::FaultSite &first, const fault::FaultSite &second)
{
    noc::Network net(base);
    core::NoCAlertEngine engine(net, /*attach_now=*/true);

    fault::FaultInjector injector;
    injector.arm({first, net.cycle(), config.kind});
    injector.arm({second, net.cycle(), config.kind});
    injector.attach(net);

    fault::FaultRunResult result;
    result.site = first;
    result.injectCycle = net.cycle();

    net.run(config.observeWindow);
    result.drained = net.drain(config.drainLimit);

    const fault::GoldenComparison comparison =
        golden.compare(net.collectEjections(), result.drained);
    result.violated = comparison.violated();
    result.violatedConditions = comparison.conditions();

    if (auto firstCycle = engine.log().firstCycle()) {
        result.detected = true;
        result.detectionLatency = *firstCycle - result.injectCycle;
        result.alertAtInjection = *firstCycle == result.injectCycle;
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    fault::CampaignConfig config = bench::parseBenchCampaign(argc, argv);
    config.network.width = 6;
    config.network.height = 6;
    config.warmup = 600;
    config = fault::normalizedCampaignConfig(config);
    const unsigned pairs = std::max(30u, config.maxSites / 3);

    std::fprintf(stderr, "[multifault] preparing golden reference...\n");
    const fault::FaultCampaign::PreparedReference reference =
        fault::FaultCampaign::prepareReference(config, config.workload.seed());

    // Deterministic site pairs: consecutive draws of one shuffle.
    const auto sites = fault::FaultSiteCatalog::sampleNetwork(
        config.network, pairs * 2, config.sampleSeed);

    std::array<std::uint64_t, fault::kNumOutcomes> outcomes = {};
    Histogram latency;
    std::uint64_t silent_violations = 0;
    for (unsigned i = 0; i + 1 < sites.size(); i += 2) {
        const auto result = runPair(config, reference.base, reference.golden,
                                    sites[i], sites[i + 1]);
        outcomes[static_cast<unsigned>(result.outcome())] += 1;
        if (result.outcome() == fault::Outcome::TruePositive)
            latency.add(result.detectionLatency);
        if (result.violated && !result.detected) {
            ++silent_violations;
            std::printf("  undetected pair: %s + %s\n",
                        sites[i].describe().c_str(),
                        sites[i + 1].describe().c_str());
        }
        if ((i / 2) % 10 == 9)
            std::fprintf(stderr, ".");
    }
    std::fprintf(stderr, "\n");

    const auto total = static_cast<double>(
        outcomes[0] + outcomes[1] + outcomes[2] + outcomes[3]);
    std::printf("Extension — simultaneous fault pairs (%u pairs, "
                "single-bit transients, 6x6 mesh)\n\n",
                pairs);
    Table table({"outcome", "pairs", "share"});
    for (unsigned o = 0; o < 4; ++o) {
        table.addRow({outcomeName(static_cast<fault::Outcome>(o)),
                      std::to_string(outcomes[o]),
                      Table::pct(100.0 * outcomes[o] / total, 1)});
    }
    table.print();
    if (!latency.empty()) {
        std::printf("\ntrue-positive detection: same-cycle %.1f%%, "
                    "max %lld cycles\n",
                    100.0 * latency.cdfAt(0),
                    static_cast<long long>(latency.max()));
    }
    std::printf("silent violations (double-fault escapes): %llu\n",
                static_cast<unsigned long long>(silent_violations));
    return 0;
}
