#include "fault/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/serialize.hpp"
#include "util/table.hpp"

#ifndef NOCALERT_TEST_DATA
#error "NOCALERT_TEST_DATA must point at tests/data"
#endif

namespace nocalert::fault {
namespace {

CampaignResult
tinyCampaign(bool recovery = false)
{
    CampaignConfig config;
    config.recovery = recovery;
    config.network.width = 4;
    config.network.height = 4;
    config.workload.synthetic.injectionRate = 0.05;
    config.warmup = 100;
    config.observeWindow = 800;
    config.drainLimit = 3000;
    config.maxSites = 8;
    config.forever.epochLength = 300;
    return FaultCampaign(config).run();
}

TEST(CampaignReport, CsvHasHeaderAndOneRowPerRun)
{
    const CampaignResult result = tinyCampaign();
    std::ostringstream os;
    writeCampaignCsv(result, os);
    const std::string csv = os.str();

    std::size_t lines = 0;
    for (char ch : csv)
        lines += ch == '\n' ? 1 : 0;
    EXPECT_EQ(lines, result.runs.size() + 1);
    EXPECT_EQ(csv.rfind("router,signal,port", 0), 0u);
    // Signal names appear verbatim.
    EXPECT_NE(csv.find(signalClassName(result.runs[0].site.signal)),
              std::string::npos);
}

TEST(CampaignReport, CsvEncodesVerdicts)
{
    const CampaignResult result = tinyCampaign();
    std::ostringstream os;
    writeCampaignCsv(result, os);
    std::istringstream is(os.str());
    std::string line;
    std::getline(is, line); // header
    std::size_t row = 0;
    while (std::getline(is, line)) {
        const FaultRunResult &run = result.runs[row++];
        // Split keeping empty cells (a trailing comma is a real cell).
        std::vector<std::string> cells;
        std::size_t start = 0;
        while (true) {
            const std::size_t comma = line.find(',', start);
            cells.push_back(line.substr(start, comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        ASSERT_GE(cells.size(), 17u);
        EXPECT_EQ(cells[8], run.detected ? "1" : "0");
        EXPECT_EQ(cells[5], run.violated ? "1" : "0");
        // Latency cells are empty exactly when the detector did not
        // fire (kNoDetection never leaks into the export).
        EXPECT_EQ(cells[9].empty(), !run.detected);
        EXPECT_EQ(cells[9].find('-'), std::string::npos);
        EXPECT_EQ(cells[16].empty(), !run.foreverDetected);
    }
    EXPECT_EQ(row, result.runs.size());
}

TEST(CampaignReport, SummaryTextMentionsDetectors)
{
    const CampaignResult result = tinyCampaign();
    const CampaignSummary summary = result.summarize();
    const std::string text = summaryText(result);
    EXPECT_NE(text.find("NoCAlert"), std::string::npos);
    EXPECT_NE(text.find("ForEVeR"), std::string::npos);
    EXPECT_NE(text.find("campaign: 8 runs"), std::string::npos);

    ASSERT_FALSE(summary.detectionLatency.empty());
    const std::string p99 =
        std::to_string(summary.detectionLatency.percentile(0.99));
    EXPECT_NE(text.find(", p99 " + p99 + ", max "), std::string::npos)
        << text;
    const Histogram &fever = summary.foreverLatency;
    ASSERT_FALSE(fever.empty());
    EXPECT_NE(text.find("ForEVeR latency: p50 " +
                        std::to_string(fever.percentile(0.5)) + ", max " +
                        std::to_string(fever.max()) + " cycles\n"),
              std::string::npos)
        << text;
    const auto fn = static_cast<unsigned>(Outcome::FalseNegative);
    EXPECT_NE(text.find("false negatives (must be 0): " +
                        std::to_string(summary.nocalert[fn]) + "\n"),
              std::string::npos)
        << text;
    // The recovered count only exists in recovery campaigns.
    EXPECT_EQ(text.find("detected-recovered"), std::string::npos);

    const CampaignResult recovery = tinyCampaign(/*recovery=*/true);
    const auto recovered =
        static_cast<unsigned>(Outcome::DetectedRecovered);
    EXPECT_NE(summaryText(recovery).find(
                  "detected-recovered: " +
                  std::to_string(recovery.summarize().nocalert[recovered]) +
                  " of 8 runs\n"),
              std::string::npos)
        << summaryText(recovery);
}

/** The committed 4x4 exhaustive campaign (16 runs at warmup 200). */
CampaignResult
committedCampaign()
{
    std::string error;
    auto result = loadCampaignResult(
        NOCALERT_TEST_DATA "/campaign_4x4_exhaustive.json", &error);
    EXPECT_TRUE(result) << error;
    return result ? std::move(*result) : CampaignResult();
}

/** The text from @p title up to the next "Figure " heading. */
std::string
section(const std::string &text, const std::string &title)
{
    const std::size_t begin = text.find(title);
    if (begin == std::string::npos)
        return "";
    const std::size_t end = text.find("\nFigure ", begin);
    return text.substr(begin, end == std::string::npos ? end : end - begin);
}

/** Trimmed cells of the data rows of the first table in @p text (the
 *  rows between its second and third rule). */
std::vector<std::vector<std::string>>
tableRows(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream lines(text);
    std::string line;
    int rules = 0;
    while (std::getline(lines, line) && rules < 3) {
        if (line.rfind("|-", 0) == 0) {
            ++rules;
            continue;
        }
        if (rules != 2 || line.rfind("| ", 0) != 0)
            continue;
        std::vector<std::string> cells;
        std::istringstream fields(line.substr(1));
        std::string cell;
        while (std::getline(fields, cell, '|')) {
            cell.erase(0, cell.find_first_not_of(' '));
            cell.erase(cell.find_last_not_of(' ') + 1);
            cells.push_back(cell);
        }
        rows.push_back(std::move(cells));
    }
    return rows;
}

/** The Fig 6 rows summarize() predicts for @p result. */
std::vector<std::vector<std::string>>
expectedFigure6Rows(const CampaignResult &result, const char *instant)
{
    const CampaignSummary summary = result.summarize();
    std::vector<std::vector<std::string>> rows;
    auto row = [&](const char *name,
                   const std::array<std::uint64_t, kNumOutcomes> &counts) {
        std::vector<std::string> cells = {instant, name};
        for (unsigned o = 0; o < 4; ++o)
            cells.push_back(Table::pct(summary.pct(counts[o])));
        rows.push_back(std::move(cells));
    };
    row("NoCAlert", summary.nocalert);
    row("NoCAlert Cautious", summary.cautious);
    row("ForEVeR", summary.forever);
    return rows;
}

TEST(CampaignReport, FiguresRenderEverySectionFromOneArtifact)
{
    const CampaignResult warm = committedCampaign();
    ASSERT_TRUE(warm.config.runForever);
    const std::string text = figuresText(warm);

    for (const char *title :
         {"Figure 3 — ", "Figure 6 — ", "Figure 7 — ", "Figure 8 — ",
          "Figure 9 — ", "paper reference (Fig 6)", "NoCAlert:  same-cycle",
          "taxonomy violations"}) {
        EXPECT_NE(text.find(title), std::string::npos) << title;
    }

    const std::string fig6 = section(text, "Figure 6 — ");
    EXPECT_EQ(tableRows(fig6), expectedFigure6Rows(warm, "warm")) << fig6;
    EXPECT_NE(fig6.find("16 injections per instant (" +
                        std::to_string(warm.totalSitesEnumerated) +
                        " enumerated sites; single-bit transient faults, "
                        "4x4 mesh)"),
              std::string::npos)
        << fig6;

    // Fig 3 lists all 32 invariants; Fig 7 its 16 delay points.
    EXPECT_EQ(tableRows(section(text, "Figure 3 — ")).size(), 32u);
    EXPECT_EQ(tableRows(section(text, "Figure 7 — ")).size(), 16u);
}

TEST(CampaignReport, FiguresAddTheColdInstantToFigure6)
{
    const CampaignResult warm = committedCampaign();
    // The same runs relabelled as the cycle-0 instant, minus the last
    // few, so that its shares differ from the warm rows.
    CampaignResult cold = warm;
    cold.config.warmup = 0;
    cold.runs.resize(cold.runs.size() - 3);

    const std::string text = figuresText(warm, &cold);
    const std::string fig6 = section(text, "Figure 6 — ");
    auto expected = expectedFigure6Rows(cold, "cycle 0");
    for (auto &row : expectedFigure6Rows(warm, "warm"))
        expected.push_back(std::move(row));
    EXPECT_EQ(tableRows(fig6), expected) << fig6;

    // Observation 5 reports each instant that had faults without a
    // same-cycle assertion, cycle 0 first.
    const std::size_t cold_line = fig6.find("[cycle 0] faults with no");
    const std::size_t warm_line = fig6.find("[warm] faults with no");
    EXPECT_EQ(cold_line == std::string::npos,
              cold.summarize().noInstantAlert == 0);
    EXPECT_EQ(warm_line == std::string::npos,
              warm.summarize().noInstantAlert == 0);
    if (cold_line != std::string::npos &&
        warm_line != std::string::npos) {
        EXPECT_LT(cold_line, warm_line);
    }

    // Every other figure reads the warm result alone.
    const std::string alone = figuresText(warm);
    EXPECT_EQ(text.substr(text.find("Figure 7 — ")),
              alone.substr(alone.find("Figure 7 — ")));
    EXPECT_EQ(section(text, "Figure 3 — "), section(alone, "Figure 3 — "));
}

TEST(CampaignReport, FiguresCountsAddUp)
{
    const CampaignResult warm = committedCampaign();
    const CampaignSummary summary = warm.summarize();
    const std::string text = figuresText(warm);

    // Fig 8: the per-checker counts sum to the printed total.
    const std::string fig8 = section(text, "Figure 8 — ");
    const std::string marker = "per checker (";
    const std::size_t at = fig8.find(marker);
    ASSERT_NE(at, std::string::npos) << fig8;
    const std::uint64_t printed =
        std::stoull(fig8.substr(at + marker.size()));
    std::uint64_t sum = 0;
    const auto rows = tableRows(fig8);
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(core::kNumInvariants));
    for (const auto &row : rows)
        sum += std::stoull(row.at(2));
    EXPECT_EQ(sum, printed);
    EXPECT_GT(printed, 0u);

    // Fig 9: one row per distinct count, the CDF ending at 100.0%.
    const auto cdf = tableRows(section(text, "Figure 9 — "));
    ASSERT_FALSE(cdf.empty());
    EXPECT_EQ(cdf.size(), summary.simultaneous.points().size());
    EXPECT_EQ(cdf.back().at(2), "100.0%");
    std::uint64_t detections = 0;
    for (const auto &row : cdf)
        detections += std::stoull(row.at(1));
    EXPECT_EQ(detections, summary.simultaneous.count());
}

} // namespace
} // namespace nocalert::fault
