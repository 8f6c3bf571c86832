/**
 * @file
 * Ablation over the temporal fault model (paper Section 5.2 and
 * Observation 3): the same site sample injected as single-bit
 * transient, intermittent, and permanent (stuck-inverted) faults.
 *
 * The paper's evaluation uses transients and argues the checkers work
 * identically for permanents — the assertion simply stays raised.
 * This bench quantifies the campaign-level consequences: permanent
 * faults convert many benign transients into real correctness
 * violations (invariant 5's transient-NOP/permanent-deadlock duality
 * writ large), while detection latency stays near-instantaneous.
 * It also surfaces the one honest gap of pure invariance checking:
 * permanently stuck-at control lines that never produce an *illegal*
 * output (e.g. a credit line stuck at "full") starve traffic without
 * tripping any checker — detectable only by end-to-end schemes.
 *
 * Usage: ablation_fault_kinds [--sites N] [--rate R]
 */

#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace nocalert;

int
main(int argc, char **argv)
{
    const fault::CampaignConfig base = bench::parseBenchCampaign(argc, argv);

    std::printf("Ablation — temporal fault model (same %u-site sample "
                "per kind; 6x6 mesh)\n\n",
                std::max(30u, base.maxSites / 3));

    Table table({"fault kind", "runs", "violations", "TP", "FP", "TN",
                 "FN", "same-cycle"});

    for (fault::FaultKind kind :
         {fault::FaultKind::Transient, fault::FaultKind::Intermittent,
          fault::FaultKind::Permanent}) {
        fault::CampaignConfig config = base;
        config.network.width = 6;
        config.network.height = 6;
        config.warmup = 600;
        config.kind = kind;
        config.maxSites = std::max(30u, config.maxSites / 3);
        config.runForever = false;

        const fault::CampaignResult result =
            bench::runCampaign(config, faultKindName(kind));
        const fault::CampaignSummary summary = result.summarize();

        std::uint64_t violations = 0;
        for (const fault::FaultRunResult &run : result.runs)
            violations += run.violated ? 1 : 0;

        using fault::Outcome;
        const Histogram &lat = summary.detectionLatency;
        table.addRow(
            {faultKindName(kind), std::to_string(summary.runs),
             std::to_string(violations),
             Table::pct(summary.pct(summary.nocalert[static_cast<unsigned>(
                 Outcome::TruePositive)])),
             Table::pct(summary.pct(summary.nocalert[static_cast<unsigned>(
                 Outcome::FalsePositive)])),
             Table::pct(summary.pct(summary.nocalert[static_cast<unsigned>(
                 Outcome::TrueNegative)])),
             Table::pct(summary.pct(summary.nocalert[static_cast<unsigned>(
                 Outcome::FalseNegative)])),
             lat.empty() ? "-" : Table::pct(100.0 * lat.cdfAt(0), 1)});

        // Permanent-fault false negatives are the documented gap:
        // name the sites so the claim is auditable.
        for (const fault::FaultRunResult &run : result.runs) {
            if (run.violated && !run.detected) {
                std::printf("  [%s] undetected violation at %s "
                            "(invariance-silent starvation)\n",
                            faultKindName(kind),
                            run.site.describe().c_str());
            }
        }
    }
    table.print();
    std::printf("\ntransient faults: 0%% FN (the paper's fault model). "
                "Permanent stuck-at faults on credit/valid lines can "
                "starve traffic without an illegal output — the gap "
                "end-to-end schemes like ForEVeR close.\n");
    return 0;
}
