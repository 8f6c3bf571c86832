#include "fault/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

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

} // namespace
} // namespace nocalert::fault
