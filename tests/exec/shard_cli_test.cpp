/**
 * End-to-end tests for the campaign_shard CLI, focused on the verify,
 * report and figures subcommands' exit-code contract:
 *
 *   0  verify passed / report or figures printed / help requested
 *   1  verify mismatch
 *   2  usage error
 *   3  an input file does not exist
 *   4  an input file is corrupt
 *
 * The binary path arrives via the NOCALERT_SHARD_BIN compile
 * definition ($<TARGET_FILE:campaign_shard>), the committed reference
 * artifacts via NOCALERT_TEST_DATA.
 */

#include "fault/campaign.hpp"
#include "fault/serialize.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef NOCALERT_SHARD_BIN
#error "NOCALERT_SHARD_BIN must point at the campaign_shard binary"
#endif
#ifndef NOCALERT_TEST_DATA
#error "NOCALERT_TEST_DATA must point at tests/data"
#endif

namespace nocalert::fault {
namespace {

namespace fs = std::filesystem;

/** Run the shard CLI, discarding output; return its exit status. */
int
shardExit(const std::string &arguments)
{
    const std::string command = std::string(NOCALERT_SHARD_BIN) + " " +
                                arguments + " >/dev/null 2>&1";
    const int raw = std::system(command.c_str());
    EXPECT_NE(raw, -1);
    return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

/** Run the shard CLI; return its exit status, stdout + stderr into
 *  @p output. */
int
shardExit(const std::string &arguments, std::string &output)
{
    const std::string command =
        std::string(NOCALERT_SHARD_BIN) + " " + arguments + " 2>&1";
    std::FILE *pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buffer[512];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr)
        output += buffer;
    const int raw = ::pclose(pipe);
    return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

/** The committed 4x4 exhaustive campaign (16 runs, CI's reference). */
const std::string kExhaustive =
    NOCALERT_TEST_DATA "/campaign_4x4_exhaustive.json";

class ShardCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Unique per process *and* per test: ctest runs each TEST_F
        // as its own parallel process, so a shared name would let one
        // test's TearDown delete another's files mid-run.
        dir_ = fs::temp_directory_path() /
               ("nocalert_shard_cli_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
    }

    void TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /** Run a tiny real campaign and save it where verify can see it. */
    std::string writeResult(const std::string &name,
                            std::uint64_t traffic_seed)
    {
        CampaignConfig config;
        config.network.width = 4;
        config.network.height = 4;
        config.workload.synthetic.injectionRate = 0.05;
        config.workload.synthetic.seed = traffic_seed;
        config.warmup = 200;
        config.observeWindow = 800;
        config.drainLimit = 3000;
        config.maxSites = 4;
        config.runForever = false;
        FaultCampaign campaign(config);
        const CampaignResult result = campaign.run();
        EXPECT_TRUE(result.complete());
        const std::string out = path(name);
        EXPECT_TRUE(saveCampaignResult(result, out));
        return out;
    }

    /**
     * Flags for a tiny sampled campaign the CLI can finish in well
     * under a second (fixed budget: --ci-width 0 disables the
     * stopping rule, --max-runs bounds the draws).
     */
    std::string sampledRunFlags(const std::string &out,
                                std::uint64_t sampler_seed) const
    {
        return "run --out " + out +
               " --mesh 4 --sites 12 --rate 0.05 --seed 13"
               " --warmup 200 --jobs 1 --sample --ci-width 0"
               " --max-runs 8 --batch 4 --sampler-seed " +
               std::to_string(sampler_seed);
    }

    /**
     * Run a sampled campaign through the library (shorter windows
     * than the CLI defaults allow) and save it where verify can see
     * it. Returns the finished result through `result` when given.
     */
    std::string writeSampledResult(const std::string &name,
                                   std::uint64_t sampler_seed,
                                   CampaignResult *result = nullptr)
    {
        CampaignConfig config;
        config.network.width = 4;
        config.network.height = 4;
        config.workload.synthetic.injectionRate = 0.05;
        config.workload.synthetic.seed = 13;
        config.warmup = 200;
        config.observeWindow = 1200;
        config.drainLimit = 4000;
        config.maxSites = 12;
        config.runForever = false;
        config.jobs = 1;
        config.sampling.enabled = true;
        config.sampling.ciHalfWidth = 0.0;
        config.sampling.maxRuns = 8;
        config.sampling.batchSize = 4;
        config.sampling.samplerSeed = sampler_seed;
        FaultCampaign campaign(config);
        CampaignResult run = campaign.run();
        EXPECT_TRUE(run.complete());
        const std::string out = path(name);
        EXPECT_TRUE(saveCampaignResult(run, out));
        if (result != nullptr)
            *result = std::move(run);
        return out;
    }

    fs::path dir_;
};

TEST_F(ShardCli, HelpExitsZeroFromEverySpelling)
{
    EXPECT_EQ(shardExit("help"), 0);
    EXPECT_EQ(shardExit("--help"), 0);
    EXPECT_EQ(shardExit("-h"), 0);
}

TEST_F(ShardCli, MissingOrUnknownCommandIsAUsageError)
{
    EXPECT_EQ(shardExit(""), 2);
    EXPECT_EQ(shardExit("frobnicate"), 2);
}

TEST_F(ShardCli, VerifyWrongArgumentCountIsAUsageError)
{
    const std::string a = writeResult("a.json", 13);
    EXPECT_EQ(shardExit("verify " + a), 2);
    EXPECT_EQ(shardExit("verify " + a + " " + a + " " + a), 2);
}

TEST_F(ShardCli, VerifyIdenticalResultsPasses)
{
    const std::string a = writeResult("a.json", 13);
    EXPECT_EQ(shardExit("verify " + a + " " + a), 0);
}

TEST_F(ShardCli, VerifyMismatchedResultsExitsOne)
{
    const std::string a = writeResult("a.json", 13);
    const std::string b = writeResult("b.json", 14);
    EXPECT_EQ(shardExit("verify " + a + " " + b), 1);
}

TEST_F(ShardCli, VerifyMissingFileExitsThree)
{
    const std::string a = writeResult("a.json", 13);
    EXPECT_EQ(shardExit("verify " + a + " " + path("absent.json")), 3);
    EXPECT_EQ(shardExit("verify " + path("absent.json") + " " + a), 3);
}

TEST_F(ShardCli, VerifyCorruptFileExitsFour)
{
    const std::string a = writeResult("a.json", 13);

    const std::string garbage = path("garbage.json");
    std::ofstream(garbage) << "this is not json {";
    EXPECT_EQ(shardExit("verify " + a + " " + garbage), 4);

    // Valid JSON that is not a campaign result is corrupt too.
    const std::string wrong_shape = path("wrong.json");
    std::ofstream(wrong_shape) << "{\"hello\": \"world\"}\n";
    EXPECT_EQ(shardExit("verify " + a + " " + wrong_shape), 4);
}

TEST_F(ShardCli, ReportPrintsTheClassificationTable)
{
    std::string text;
    ASSERT_EQ(shardExit("report " + kExhaustive, text), 0) << text;
    EXPECT_NE(text.find("| detector"), std::string::npos) << text;
    EXPECT_NE(text.find("| NoCAlert Cautious"), std::string::npos);
    EXPECT_NE(text.find("campaign: 16 runs"), std::string::npos);
    EXPECT_NE(text.find("false negatives (must be 0): 0\n"),
              std::string::npos)
        << text;
}

TEST_F(ShardCli, ReportCsvHasAHeaderAndOneRowPerRun)
{
    const std::string csv = path("runs.csv");
    ASSERT_EQ(shardExit("report " + kExhaustive + " --csv " + csv), 0);

    std::ifstream file(csv);
    std::string line;
    ASSERT_TRUE(std::getline(file, line));
    EXPECT_EQ(line.rfind("router,signal,port,", 0), 0u) << line;
    std::size_t rows = 0;
    while (std::getline(file, line))
        ++rows;
    EXPECT_EQ(rows, 16u);
}

TEST_F(ShardCli, ReportExitCodesMatchVerify)
{
    EXPECT_EQ(shardExit("report"), 2);
    EXPECT_EQ(shardExit("report " + kExhaustive + " " + kExhaustive), 2);
    EXPECT_EQ(shardExit("report " + path("absent.json")), 3);
    const std::string garbage = path("garbage.json");
    std::ofstream(garbage) << "this is not json {";
    EXPECT_EQ(shardExit("report " + garbage), 4);
}

TEST_F(ShardCli, FiguresExitCodesMatchReport)
{
    std::string text;
    ASSERT_EQ(shardExit("figures " + kExhaustive, text), 0) << text;
    EXPECT_NE(text.find("Figure 9 — "), std::string::npos) << text;
    EXPECT_EQ(shardExit("figures " + kExhaustive + " " + kExhaustive), 0);

    EXPECT_EQ(shardExit("figures"), 2);
    EXPECT_EQ(shardExit("figures " + kExhaustive + " " + kExhaustive +
                        " " + kExhaustive),
              2);
    EXPECT_EQ(shardExit("figures " + path("absent.json")), 3);
    EXPECT_EQ(shardExit("figures " + kExhaustive + " " +
                        path("absent.json")),
              3);
    const std::string garbage = path("garbage.json");
    std::ofstream(garbage) << "this is not json {";
    EXPECT_EQ(shardExit("figures " + garbage), 4);
    EXPECT_EQ(shardExit("figures " + kExhaustive + " " + garbage), 4);
}

TEST_F(ShardCli, SampledRunRoundTripsThroughVerify)
{
    // A sampled campaign driven entirely through CLI flags must
    // finish, persist a loadable artifact, and verify against itself
    // — exercising the sampled-only checks (sampler completion,
    // sampling estimates) on the passing path.
    const std::string out = path("sampled.json");
    ASSERT_EQ(shardExit(sampledRunFlags(out, 7)), 0);

    std::string error;
    const auto loaded = loadCampaignResult(out, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(loaded->config.sampling.enabled);
    EXPECT_TRUE(loaded->samplerDone);
    EXPECT_EQ(loaded->runs.size(), 8u);

    EXPECT_EQ(shardExit("verify " + out + " " + out), 0);
}

TEST_F(ShardCli, SampledRunWithoutABoundIsAFatalError)
{
    // --ci-width 0 disables the stopping rule and --max-runs 0 means
    // "no cap": together nothing would ever end the campaign, so the
    // flag parser must refuse before any simulation starts.
    const std::string out = path("unbounded.json");
    EXPECT_EQ(shardExit("run --out " + out +
                        " --mesh 4 --sites 12 --sample"
                        " --ci-width 0 --max-runs 0"),
              1);
    EXPECT_FALSE(fs::exists(out));
}

TEST_F(ShardCli, VerifySampledResultsWithDifferentSamplerSeedsExitsOne)
{
    // The sampler seed selects which runs exist, so it is campaign
    // identity — two otherwise-identical sampled campaigns must not
    // verify against each other.
    const std::string a = writeSampledResult("a.json", 7);
    const std::string b = writeSampledResult("b.json", 8);
    EXPECT_EQ(shardExit("verify " + a + " " + b), 1);
}

TEST_F(ShardCli, VerifySampledAgainstExhaustiveExitsOne)
{
    const std::string sampled = writeSampledResult("sampled.json", 7);
    const std::string exhaustive = writeResult("exhaustive.json", 13);
    EXPECT_EQ(shardExit("verify " + sampled + " " + exhaustive), 1);
    EXPECT_EQ(shardExit("verify " + exhaustive + " " + sampled), 1);
}

TEST_F(ShardCli, VerifyTamperedSampledFileExitsFour)
{
    CampaignResult result;
    const std::string good = writeSampledResult("good.json", 7, &result);

    // Estimates that disagree with the runs they claim to summarize
    // fail recompute-validation at load: corrupt, not a mismatch.
    JsonValue doc = toJson(result);
    JsonValue sampling = *doc.find("sampling");
    JsonValue pooled = *sampling.find("pooled");
    pooled.set("detected", 999);
    sampling.set("pooled", std::move(pooled));
    doc.set("sampling", std::move(sampling));
    const std::string tampered = path("tampered.json");
    std::ofstream(tampered) << doc.dump() << "\n";
    EXPECT_EQ(shardExit("verify " + good + " " + tampered), 4);

    // A sampled document downgraded to the exhaustive schema version
    // is corrupt the same way.
    JsonValue downgraded = toJson(result);
    downgraded.set("version", 4);
    const std::string wrong_version = path("wrong_version.json");
    std::ofstream(wrong_version) << downgraded.dump() << "\n";
    EXPECT_EQ(shardExit("verify " + good + " " + wrong_version), 4);
}

TEST_F(ShardCli, SampledLimitedRunResumesToTheStraightArtifact)
{
    // --limit interrupts mid-campaign (and mid-batch: 5 is not a
    // multiple of --batch 4) leaving a resumable checkpoint; resume
    // must replay the deterministic draw stream and converge to the
    // artifact an uninterrupted invocation produces.
    const std::string straight = path("straight.json");
    ASSERT_EQ(shardExit(sampledRunFlags(straight, 7)), 0);

    const std::string limited = path("limited.json");
    ASSERT_EQ(shardExit(sampledRunFlags(limited, 7) + " --limit 5"), 0);
    {
        std::string error;
        const auto partial = loadCampaignResult(limited, &error);
        ASSERT_TRUE(partial.has_value()) << error;
        EXPECT_FALSE(partial->complete());
        EXPECT_EQ(partial->runs.size(), 5u);
    }
    ASSERT_EQ(shardExit("resume --checkpoint " + limited + " --jobs 1"),
              0);
    EXPECT_EQ(shardExit("verify " + straight + " " + limited), 0);
}

} // namespace
} // namespace nocalert::fault
