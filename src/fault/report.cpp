#include "fault/report.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>

#include "fault/sampled.hpp"
#include "util/table.hpp"

namespace nocalert::fault {

namespace {

/** Latency cell: the cycle delta, or an empty cell when the detector
 *  never fired — kNoDetection stays an in-memory sentinel and never
 *  leaks into exported data as a misleading numeric value. */
std::string
latencyCell(noc::Cycle latency)
{
    if (latency == kNoDetection)
        return "";
    return std::to_string(static_cast<long long>(latency));
}

} // namespace

void
writeCampaignCsv(const CampaignResult &result, std::ostream &os)
{
    os << "router,signal,port,vc,bit,violated,conditions,drained,"
          "detected,latency,cautious,cautious_latency,at_injection,"
          "simultaneous,invariants,forever_detected,forever_latency,"
          "recovered,recovery_latency,retransmits\n";
    for (const FaultRunResult &run : result.runs) {
        os << run.site.router << ','
           << signalClassName(run.site.signal) << ','
           << noc::portName(run.site.port) << ',' << run.site.vc << ','
           << run.site.bit << ',' << (run.violated ? 1 : 0) << ','
           << static_cast<unsigned>(run.violatedConditions) << ','
           << (run.drained ? 1 : 0) << ',' << (run.detected ? 1 : 0)
           << ',' << latencyCell(run.detectionLatency) << ','
           << (run.detectedCautious ? 1 : 0) << ','
           << latencyCell(run.cautiousLatency) << ','
           << (run.alertAtInjection ? 1 : 0) << ','
           << run.simultaneousCheckers << ',';
        // Invariant list as a ;-joined field.
        os << '"';
        for (std::size_t i = 0; i < run.invariants.size(); ++i) {
            if (i)
                os << ';';
            os << core::invariantIndex(run.invariants[i]);
        }
        os << '"' << ',' << (run.foreverDetected ? 1 : 0) << ','
           << latencyCell(run.foreverLatency) << ','
           << (run.recovered ? 1 : 0) << ','
           << latencyCell(run.recoveryCycle == kNoDetection
                              ? kNoDetection
                              : run.recoveryCycle - run.injectCycle)
           << ',' << run.retransmits << '\n';
    }
}

std::string
summaryText(const CampaignResult &result)
{
    const CampaignSummary summary = result.summarize();

    Table table({"detector", "true-pos", "false-pos", "true-neg",
                 "false-neg", "recovered"});
    auto row = [&](const char *name,
                   const std::array<std::uint64_t, kNumOutcomes>
                       &counts) {
        table.addRow({name,
                      Table::pct(summary.pct(counts[0])),
                      Table::pct(summary.pct(counts[1])),
                      Table::pct(summary.pct(counts[2])),
                      Table::pct(summary.pct(counts[3])),
                      Table::pct(summary.pct(counts[4]))});
    };
    row("NoCAlert", summary.nocalert);
    row("NoCAlert Cautious", summary.cautious);
    if (result.config.runForever)
        row("ForEVeR", summary.forever);

    std::ostringstream os;
    os << "campaign: " << summary.runs << " runs over "
       << result.totalSitesEnumerated << " enumerated sites, golden "
       << result.goldenFlits << " flits\n";
    os << table.toText();
    if (!summary.detectionLatency.empty()) {
        os << "NoCAlert latency: same-cycle "
           << Table::pct(100.0 * summary.detectionLatency.cdfAt(0), 1)
           << ", p99 " << summary.detectionLatency.percentile(0.99)
           << ", max " << summary.detectionLatency.max()
           << " cycles\n";
    }
    const auto fn = static_cast<unsigned>(Outcome::FalseNegative);
    os << "false negatives (must be 0): " << summary.nocalert[fn] << "\n";
    if (result.config.recovery) {
        const auto recovered =
            static_cast<unsigned>(Outcome::DetectedRecovered);
        os << "detected-recovered: " << summary.nocalert[recovered]
           << " of " << summary.runs << " runs\n";
    }

    os << samplingText(result);
    return os.str();
}

std::string
samplingText(const CampaignResult &result)
{
    if (!result.config.sampling.enabled)
        return std::string();

    std::ostringstream os;
    {
        const SamplingReport report = computeSamplingReport(result);
        const SamplingSpec &spec = result.config.sampling;
        auto cell = [](const stats::Interval &interval) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), "[%.4f, %.4f]",
                          interval.lower, interval.upper);
            return std::string(buf);
        };
        Table estimates({"stratum", "pop", "draws", "detect",
                         "wilson", "clopper-pearson", "fn", "halted"});
        auto estimateRow = [&](const StratumEstimate &estimate) {
            const double rate =
                estimate.draws > 0
                    ? static_cast<double>(estimate.detected) /
                          static_cast<double>(estimate.draws)
                    : 0.0;
            estimates.addRow(
                {estimate.name, std::to_string(estimate.population),
                 std::to_string(estimate.draws),
                 Table::pct(100.0 * rate),
                 cell(estimate.detectedWilson),
                 cell(estimate.detectedClopperPearson),
                 std::to_string(estimate.falseNegatives),
                 estimate.halted ? "yes" : "no"});
        };
        for (const StratumEstimate &estimate : report.strata)
            estimateRow(estimate);
        if (report.strata.size() > 1)
            estimateRow(report.pooled);
        os << "sampled: " << report.pooled.draws << " draws ("
           << (result.samplerDone ? "stopped" : "interrupted")
           << "), " << 100.0 * spec.confidence << "% intervals, target "
           << "half-width "
           << (spec.ciHalfWidth > 0 ? std::to_string(spec.ciHalfWidth)
                                    : std::string("none"))
           << "\n";
        os << estimates.toText();
    }
    return os.str();
}

} // namespace nocalert::fault
