#include "fault/report.hpp"

#include <array>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

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

/**
 * One row per detector (ForEVeR only when the campaign ran it): the
 * @p lead cells, the detector's name, then its share of the runs in
 * each of the first @p outcomes outcome classes.
 */
void
addDetectorRows(Table &table, const std::vector<std::string> &lead,
                const CampaignResult &result, const CampaignSummary &summary,
                std::size_t outcomes)
{
    auto row = [&](const char *name,
                   const std::array<std::uint64_t, kNumOutcomes>
                       &counts) {
        std::vector<std::string> cells = lead;
        cells.emplace_back(name);
        for (std::size_t o = 0; o < outcomes; ++o)
            cells.push_back(Table::pct(summary.pct(counts[o])));
        table.addRow(std::move(cells));
    };
    row("NoCAlert", summary.nocalert);
    row("NoCAlert Cautious", summary.cautious);
    if (result.config.runForever)
        row("ForEVeR", summary.forever);
}

/** The paper's name for a result's injection instant. */
const char *
instantLabel(const CampaignResult &result)
{
    return result.config.warmup == 0 ? "cycle 0" : "warm";
}

std::string
conditionMarks(std::uint8_t bits)
{
    std::string out;
    out += (bits & core::kBoundedDelivery) ? "BD " : "-- ";
    out += (bits & core::kNoFlitDrop) ? "FD " : "-- ";
    out += (bits & core::kNoNewFlitGeneration) ? "NG " : "-- ";
    out += (bits & core::kNoCorruptionOrMixing) ? "CM" : "--";
    return out;
}

/**
 * Figure 3: each invariant's static correctness-condition taxonomy
 * next to the conditions breached in the true-positive runs it
 * fired in.
 */
void
figure3(std::ostream &os, const CampaignResult &result)
{
    // The strict consistency check uses only *lone* attributions
    // (runs where exactly one distinct checker fired): with
    // co-located checkers, a run's condition bits cannot be assigned
    // to any one of them.
    std::array<std::uint8_t, core::kNumInvariants + 1> observed = {};
    std::array<std::uint8_t, core::kNumInvariants + 1> lone = {};
    std::array<std::uint64_t, core::kNumInvariants + 1> tp_runs = {};
    for (const FaultRunResult &run : result.runs) {
        if (run.outcome() != Outcome::TruePositive)
            continue;
        for (core::InvariantId id : run.invariants) {
            observed[core::invariantIndex(id)] |= run.violatedConditions;
            tp_runs[core::invariantIndex(id)] += 1;
        }
        if (run.invariants.size() == 1) {
            lone[core::invariantIndex(run.invariants[0])] |=
                run.violatedConditions;
        }
    }

    os << "Figure 3 — invariances vs the four correctness conditions "
          "(BD=bounded delivery, FD=no flit drop, NG=no new flit, "
          "CM=no corruption/mixing)\n"
          "static = this library's taxonomy; observed = conditions "
          "actually breached in true-positive runs the checker "
          "participated in (";
    os << result.runs.size() << " injections, " << instantLabel(result);
    os << ")\n\n";

    Table table({"#", "invariant", "static", "observed*", "TP runs",
                 "lone-consistent"});
    unsigned inconsistencies = 0;
    for (const core::InvariantInfo &info : core::invariantCatalog()) {
        const unsigned i = core::invariantIndex(info.id);
        // A condition breached in a run where this checker fired
        // alone must be part of its static taxonomy. (The converse
        // needs larger samples: a checker guards conditions its
        // sampled faults may not have breached.)
        const bool consistent = (lone[i] & ~info.conditions) == 0;
        if (!consistent)
            ++inconsistencies;
        const std::string seen =
            tp_runs[i] ? conditionMarks(observed[i]) : "(no data)";
        const char *verdict = consistent ? "yes" : "NO";
        table.addRow({std::to_string(i), info.name,
                      conditionMarks(info.conditions), seen,
                      std::to_string(tp_runs[i]), lone[i] ? verdict : "n/a"});
    }
    os << table.toText();
    os << "\ntaxonomy violations (lone-attributed conditions outside the "
          "static mapping): ";
    os << inconsistencies << "\n";
    os << "* co-located checkers share a run's condition bits, so the "
          "observed column is an upper bound per checker; '(no data)' "
          "rows need a larger --sites sample for coverage.\n";
}

/** Observation 5 (Section 5.4): where the faults with no same-cycle
 *  assertion went. */
void
observation5(std::ostream &os, const CampaignResult &result,
             const CampaignSummary &summary)
{
    if (summary.noInstantAlert == 0)
        return;
    const auto all = static_cast<double>(summary.noInstantAlert);
    auto share = [&](std::uint64_t count) {
        return Table::pct(100.0 * static_cast<double>(count) / all, 1);
    };
    os << "[" << instantLabel(result) << "] faults with no same-cycle ";
    os << "assertion: " << summary.noInstantAlert;
    os << " — caught by a subsequent checker: ";
    os << share(summary.noInstantCaughtLater);
    os << ", never detected & benign: ";
    os << share(summary.noInstantBenignUndetected);
    os << ", never detected & malicious: ";
    os << summary.noInstantViolatedUndetected;
    os << " (paper Observation 5: must be 0)\n";
}

/** Figure 6: the coverage breakdown per instant and detector. */
void
figure6(std::ostream &os, const CampaignResult &warm,
        const CampaignSummary &warm_summary, const CampaignResult *cold)
{
    const noc::NetworkConfig &mesh = warm.config.network;
    os << "Figure 6 — fault coverage breakdown over " << warm_summary.runs;
    os << " injections per instant (" << warm.totalSitesEnumerated;
    os << " enumerated sites; single-bit ";
    os << faultKindName(warm.config.kind) << " faults, " << mesh.width;
    os << "x" << mesh.height << " mesh)\n\n";

    Table table({"instant", "detector", "true-pos", "false-pos",
                 "true-neg", "false-neg"});
    // TP/FP/TN/FN: the detection matrix, without the recovery column.
    const auto matrix = static_cast<std::size_t>(Outcome::DetectedRecovered);
    CampaignSummary cold_summary;
    if (cold != nullptr) {
        cold_summary = cold->summarize();
        addDetectorRows(table, {instantLabel(*cold)}, *cold, cold_summary,
                        matrix);
    }
    addDetectorRows(table, {instantLabel(warm)}, warm, warm_summary, matrix);
    os << table.toText();
    os << "\npaper reference (Fig 6): cycle 0  — TP 51.64 / FP 30.62 "
          "(22.01 cautious) / TN 17.73 (26.35), FN 0\n"
          "                         cycle 32K — TP 38.45 / FP 45.33 "
          "(36.62 cautious) / TN 16.22 (24.93), FN 0\n\n";

    if (cold != nullptr)
        observation5(os, *cold, cold_summary);
    observation5(os, warm, warm_summary);
}

/** Figure 7: cumulative detection delay, NoCAlert vs ForEVeR. */
void
figure7(std::ostream &os, const CampaignResult &result,
        const CampaignSummary &summary)
{
    const Histogram &noca = summary.detectionLatency;
    const Histogram &fever = summary.foreverLatency;

    os << "Figure 7 — cumulative detection-delay distribution (true "
          "positives; ForEVeR epoch = ";
    os << result.config.forever.epochLength << " cycles)\n\n";

    Table table({"delay (cycles)", "NoCAlert CDF", "ForEVeR CDF"});
    auto cdf = [](const Histogram &latency, std::int64_t delay) {
        return latency.empty() ? std::string("-")
                               : Table::pct(100.0 * latency.cdfAt(delay), 1);
    };
    for (std::int64_t delay :
         {0LL, 1LL, 2LL, 4LL, 9LL, 16LL, 28LL, 64LL, 256LL, 1024LL, 1500LL,
          3000LL, 4500LL, 6000LL, 9000LL, 12000LL}) {
        table.addRow({std::to_string(delay), cdf(noca, delay),
                      cdf(fever, delay)});
    }
    os << table.toText();

    if (!noca.empty()) {
        const double same_cycle = 100.0 * noca.cdfAt(0);
        os << "\nNoCAlert:  same-cycle " << Table::pct(same_cycle, 1);
        os << "  p99 " << noca.percentile(0.99) << " cy  max " << noca.max();
        os << " cy  (paper: 97% / 9 cy / 28 cy)\n";
    }
    if (!fever.empty()) {
        os << "ForEVeR:   p99 " << fever.percentile(0.99);
        os << " cy  max " << fever.max();
        os << " cy  (paper: ~3,000 / ~11,995 cy)\n";
    }
    if (!noca.empty() && !fever.empty() && noca.mean() > 0) {
        const double gap = fever.mean() / noca.mean();
        os << "mean-latency improvement: " << Table::num(gap, 0);
        os << "x (paper: >100x)\n";
    } else if (!noca.empty() && !fever.empty()) {
        os << "mean latencies: NoCAlert " << Table::num(noca.mean(), 2);
        os << " cy vs ForEVeR " << Table::num(fever.mean(), 0);
        os << " cy (paper: >100x gap)\n";
    }
}

/** Figure 8: each checker's share of the detected-fault
 *  participations. */
void
figure8(std::ostream &os, const CampaignSummary &summary)
{
    std::uint64_t participations = 0;
    for (unsigned i = 1; i <= core::kNumInvariants; ++i)
        participations += summary.perInvariant[i];

    os << "Figure 8 — share of violations captured per checker (";
    os << participations << " detected-fault participations over ";
    os << summary.runs << " injections)\n\n";

    const auto total = static_cast<double>(participations);
    Table table({"checker", "name", "faults", "share"});
    for (unsigned i = 1; i <= core::kNumInvariants; ++i) {
        const std::uint64_t count = summary.perInvariant[i];
        const double share =
            participations ? 100.0 * static_cast<double>(count) / total : 0.0;
        const auto id = static_cast<core::InvariantId>(i);
        table.addRow({std::to_string(i), core::invariantName(id),
                      std::to_string(count), Table::pct(share, 2)});
    }
    os << table.toText();
    os << "\nnotes: invariant 27 requires non-atomic buffers (absent from "
          "the paper's Fig 8 as well); invariant 29 is structurally "
          "unreachable in this router model.\n";
}

/** Figure 9: detections by number of simultaneously asserted
 *  checkers. */
void
figure9(std::ostream &os, const CampaignSummary &summary)
{
    const Histogram &simultaneous = summary.simultaneous;
    os << "Figure 9 — CDF of detections vs number of simultaneously "
          "asserted checkers (";
    os << simultaneous.count() << " detected faults)\n\n";
    if (simultaneous.empty()) {
        os << "no detections (increase --sites)\n";
        return;
    }

    Table table({"# simultaneous checkers", "detections", "CDF"});
    for (const auto &[value, count] : simultaneous.points()) {
        table.addRow({std::to_string(value), std::to_string(count),
                      Table::pct(100.0 * simultaneous.cdfAt(value), 1)});
    }
    os << table.toText();
    os << "\nmedian " << simultaneous.percentile(0.5);
    os << ", max " << simultaneous.max();
    os << " simultaneously asserted checkers (paper: mode ~2, max 9)\n";
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
    addDetectorRows(table, {}, result, summary, kNumOutcomes);

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
    if (!summary.foreverLatency.empty()) {
        const Histogram &latency = summary.foreverLatency;
        os << "ForEVeR latency: p50 " << latency.percentile(0.5);
        os << ", max " << latency.max() << " cycles\n";
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

std::string
figuresText(const CampaignResult &warm, const CampaignResult *cold)
{
    const CampaignSummary summary = warm.summarize();
    std::ostringstream os;
    figure3(os, warm);
    os << "\n";
    figure6(os, warm, summary, cold);
    os << "\n";
    figure7(os, warm, summary);
    os << "\n";
    figure8(os, summary);
    os << "\n";
    figure9(os, summary);
    return os.str();
}

} // namespace nocalert::fault
