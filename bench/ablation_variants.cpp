/**
 * @file
 * Ablation over the Section 4.4 router variants: the same stratified
 * fault campaign run against the non-atomic, speculative, VC-less,
 * and adaptive-routing router designs. Demonstrates that the
 * invariance-checking approach (with the variant-adjusted invariant
 * set) preserves the zero-false-negative property beyond the baseline
 * micro-architecture.
 *
 * Usage: ablation_variants [--sites N] [--rate R]
 */

#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace nocalert;

namespace {

struct Variant
{
    const char *name;
    void (*tweak)(noc::NetworkConfig &);
};

void
baseline(noc::NetworkConfig &)
{
}

void
nonAtomic(noc::NetworkConfig &config)
{
    config.router.atomicBuffers = false;
}

void
speculative(noc::NetworkConfig &config)
{
    config.router.speculative = true;
}

void
noVcs(noc::NetworkConfig &config)
{
    config.router.numVcs = 1;
    config.router.classes = {{"data", 5}};
}

void
noVcsExtended(noc::NetworkConfig &config)
{
    noVcs(config);
    config.router.extendedChecks = true;
}

void
westFirst(noc::NetworkConfig &config)
{
    config.routing = noc::RoutingAlgo::WestFirst;
}

} // namespace

int
main(int argc, char **argv)
{
    const fault::CampaignConfig base = bench::parseBenchCampaign(argc, argv);

    const Variant variants[] = {
        {"baseline", baseline},
        {"non-atomic buffers", nonAtomic},
        {"speculative VA+SA", speculative},
        {"no VCs", noVcs},
        {"no VCs + ext checks", noVcsExtended},
        {"west-first adaptive", westFirst},
    };

    std::printf("Ablation — NoCAlert across router variants "
                "(Section 4.4 applicability claim)\n\n");

    Table table({"variant", "runs", "TP", "FP", "TN", "FN",
                 "same-cycle", "max latency"});

    for (const Variant &variant : variants) {
        fault::CampaignConfig config = base;
        // Keep the ablation affordable: a 6x6 mesh and a smaller
        // per-variant sample still exercise every signal class.
        config.network.width = 6;
        config.network.height = 6;
        config.warmup = 600;
        config.maxSites = std::max(30u, config.maxSites / 3);
        config.runForever = false;
        variant.tweak(config.network);

        const fault::CampaignResult result =
            bench::runCampaign(config, variant.name);
        const fault::CampaignSummary summary = result.summarize();

        using fault::Outcome;
        const Histogram &lat = summary.detectionLatency;
        table.addRow(
            {variant.name, std::to_string(summary.runs),
             Table::pct(summary.pct(summary.nocalert[static_cast<unsigned>(
                 Outcome::TruePositive)])),
             Table::pct(summary.pct(summary.nocalert[static_cast<unsigned>(
                 Outcome::FalsePositive)])),
             Table::pct(summary.pct(summary.nocalert[static_cast<unsigned>(
                 Outcome::TrueNegative)])),
             Table::pct(summary.pct(summary.nocalert[static_cast<unsigned>(
                 Outcome::FalseNegative)])),
             lat.empty() ? "-" : Table::pct(100.0 * lat.cdfAt(0), 1),
             lat.empty() ? "-"
                         : std::to_string(lat.max()) + " cy"});
    }
    table.print();
    std::printf(
        "\nfalse negatives are 0%% for every multi-VC variant: the "
        "invariant set adapts to the micro-architecture (Section "
        "4.4).\nThe single-VC design is the exception the paper never "
        "evaluated: allocation leaks and credit losses starve the "
        "port's ONLY VC\nwithout any illegal output. The extension "
        "checkers (allocation-table consistency) close the leak class; "
        "pure credit losses remain\nend-to-end territory — see "
        "EXPERIMENTS.md.\n");
    return 0;
}
