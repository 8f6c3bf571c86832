/**
 * @file
 * The ablations, E10-E12 of EXPERIMENTS.md, on one 6x6 campaign base
 * (warmup 600, single-bit transient faults, no ForEVeR):
 *
 *  - E10, the Section 4.4 applicability claim: the same stratified
 *    site sample against the non-atomic, speculative, VC-less and
 *    adaptive-routing router variants, each with its adjusted
 *    invariant set;
 *  - E11, Section 5.2 and Observation 3: the baseline router under
 *    intermittent and permanent faults. Its transient row is E10's
 *    baseline row, so E10 and E11 are the rows of one table;
 *  - E12, the paper's multi-fault future work: pairs of simultaneous
 *    transients at two sites, each run and classified against the
 *    base's golden reference by FaultCampaign::runSingle like a
 *    single fault.
 *
 * Usage: ablations [--sites N] [--rate R] [--seed S] [--observe C]
 *                  [--drain C] [--wires] [--jobs J]
 *
 * --sites is the sample size of every campaign and the number of E12
 * pairs (0 = every site); --wires restricts the surface to module-I/O
 * wires; --jobs 0 uses every hardware thread. stdout is the same for
 * every --jobs value.
 */

#include <array>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "fault/campaign.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace nocalert;

namespace {

using fault::CampaignConfig;

void
noVcs(CampaignConfig &config)
{
    config.network.router.numVcs = 1;
    config.network.router.classes = {{"data", 5}};
}

/** One campaign of the table: the base config with one change. */
struct Row
{
    const char *name;
    void (*apply)(CampaignConfig &);
};

const Row kRows[] = {
    {"baseline", [](CampaignConfig &) {}},
    {"non-atomic buffers",
     [](CampaignConfig &c) { c.network.router.atomicBuffers = false; }},
    {"speculative VA+SA",
     [](CampaignConfig &c) { c.network.router.speculative = true; }},
    {"no VCs", noVcs},
    {"no VCs + ext checks",
     [](CampaignConfig &c) {
         noVcs(c);
         c.network.router.extendedChecks = true;
     }},
    {"west-first adaptive",
     [](CampaignConfig &c) {
         c.network.routing = noc::RoutingAlgo::WestFirst;
     }},
    {"intermittent",
     [](CampaignConfig &c) { c.kind = fault::FaultKind::Intermittent; }},
    {"permanent",
     [](CampaignConfig &c) { c.kind = fault::FaultKind::Permanent; }},
};

/** E10 and E11: one campaign per row, then every undetected violation. */
void
runE10E11(const CampaignConfig &base)
{
    Table table({"row", "runs", "violations", "TP", "FP", "TN", "FN",
                 "same-cycle", "max latency"});
    std::string undetected;
    for (const Row &row : kRows) {
        CampaignConfig config = base;
        row.apply(config);
        const fault::CampaignResult result =
            fault::FaultCampaign(config).run();

        std::size_t violations = 0;
        for (const fault::FaultRunResult &run : result.runs) {
            violations += run.violated ? 1 : 0;
            if (run.violated && !run.detected)
                undetected += std::string("  ") + row.name + ": " +
                              run.site.describe() + "\n";
        }
        const fault::CampaignSummary summary = result.summarize();
        std::vector<std::string> cells = {row.name,
                                          std::to_string(summary.runs),
                                          std::to_string(violations)};
        // TP, FP, TN, FN: the first four outcomes.
        for (unsigned o = 0; o < 4; ++o)
            cells.push_back(Table::pct(summary.pct(summary.nocalert[o])));
        const Histogram &lat = summary.detectionLatency;
        cells.push_back(lat.empty() ? "-"
                                    : Table::pct(100.0 * lat.cdfAt(0), 1));
        cells.push_back(lat.empty() ? "-"
                                    : std::to_string(lat.max()) + " cy");
        table.addRow(std::move(cells));
    }
    table.print();
    std::printf("\nundetected violations:\n%s",
                undetected.empty() ? "  none\n" : undetected.c_str());
}

/** E12: consecutive draws of one site sample, taken as pairs. */
void
runE12(const CampaignConfig &base)
{
    const CampaignConfig config = fault::normalizedCampaignConfig(base);
    const fault::FaultCampaign::PreparedReference reference =
        fault::FaultCampaign::prepareReference(config, config.workload.seed());
    const std::vector<fault::FaultSite> sites =
        fault::FaultSiteCatalog::sampleSites(
            fault::enumerateCampaignSites(config), 2 * config.maxSites,
            config.sampleSeed);
    const std::size_t pairs = sites.size() / 2;

    // Each pair is one runSingle run, cuts included; the executor
    // hands results over in pair order, so stdout is the same at
    // every --jobs.
    std::array<std::uint64_t, fault::kNumOutcomes> outcomes = {};
    Histogram latency;
    std::string undetected;
    std::size_t silent = 0;
    exec::CampaignExecutor(config.jobs).run<fault::FaultRunResult>(
        pairs,
        [&](std::size_t pair) {
            return fault::FaultCampaign::runSingle(
                config, reference.base, reference.golden,
                std::span(sites).subspan(2 * pair, 2));
        },
        [&](std::size_t pair, fault::FaultRunResult &&result) {
            outcomes[static_cast<unsigned>(result.outcome())] += 1;
            if (result.outcome() == fault::Outcome::TruePositive)
                latency.add(result.detectionLatency);
            if (result.violated && !result.detected) {
                ++silent;
                undetected += "  undetected pair: " +
                              sites[2 * pair].describe() + " + " +
                              sites[2 * pair + 1].describe() + "\n";
            }
        });
    std::printf("\nE12: simultaneous fault pairs (%zu pairs, single-bit "
                "transients)\n\n",
                pairs);
    Table table({"outcome", "pairs", "share"});
    for (unsigned o = 0; o < 4; ++o) {
        table.addRow({outcomeName(static_cast<fault::Outcome>(o)),
                      std::to_string(outcomes[o]),
                      Table::pct(100.0 * outcomes[o] / pairs, 1)});
    }
    table.print();
    if (!latency.empty()) {
        std::printf("\ntrue-positive detection: same-cycle %.1f%%, "
                    "max %lld cycles\n",
                    100.0 * latency.cdfAt(0),
                    static_cast<long long>(latency.max()));
    }
    std::printf("%ssilent violations (double-fault escapes): %zu\n",
                undetected.c_str(), silent);
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv,
                    {"sites", "rate", "seed", "observe", "drain", "wires",
                     "jobs"});
    CampaignConfig base;
    base.network.width = 6;
    base.network.height = 6;
    base.workload.synthetic.injectionRate = cli.getDouble("rate", 0.04);
    base.workload.synthetic.seed =
        static_cast<std::uint64_t>(cli.getInt("seed", 1));
    base.warmup = 600;
    base.observeWindow = cli.getUnsigned("observe", 3200);
    base.drainLimit = cli.getUnsigned("drain", 6000);
    base.maxSites = cli.getUnsigned("sites", 33);
    base.wireSitesOnly = cli.getBool("wires", false);
    base.runForever = false;
    base.jobs = cli.getUnsigned("jobs", 0);

    std::printf("Ablations on a 6x6 mesh, %u sites per campaign%s\n\n"
                "E10 (Section 4.4): the baseline router and five "
                "variants, transient faults.\n"
                "E11 (Section 5.2, Observation 3): the baseline under "
                "transient (its row),\nintermittent and permanent "
                "faults.\n\n",
                base.maxSites, base.wireSitesOnly ? ", wires only" : "");
    runE10E11(base);
    runE12(base);
    return 0;
}
