/**
 * @file
 * End-to-end tests of the workload flags on the simulate and
 * campaign_shard CLIs: the rejection paths (malformed phase programs,
 * bad burst specs, conflicting flags, missing/damaged trace files)
 * must fail with non-zero status and an error naming the offending
 * field, and the record -> replay loop must reproduce a run exactly.
 * simulate's --fault accepts exactly the router's catalog sites.
 *
 * Binary paths arrive via the NOCALERT_SIMULATE_BIN and
 * NOCALERT_SHARD_BIN compile definitions.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef NOCALERT_SIMULATE_BIN
#error "NOCALERT_SIMULATE_BIN must point at the simulate binary"
#endif
#ifndef NOCALERT_SHARD_BIN
#error "NOCALERT_SHARD_BIN must point at the campaign_shard binary"
#endif

namespace nocalert {
namespace {

namespace fs = std::filesystem;

struct CommandOutput
{
    int status = -1;
    std::string text; ///< Combined stdout + stderr.
};

/** Run @p command, capturing combined output and the exit status. */
CommandOutput
run(const std::string &command)
{
    CommandOutput out;
    std::FILE *pipe = ::popen((command + " 2>&1").c_str(), "r");
    if (pipe == nullptr)
        return out;
    char buffer[512];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr)
        out.text += buffer;
    const int raw = ::pclose(pipe);
    out.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    return out;
}

class WorkloadCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("nocalert_workload_cli_" + std::to_string(::getpid()) +
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

    CommandOutput simulate(const std::string &flags) const
    {
        return run(std::string(NOCALERT_SIMULATE_BIN) + " " + flags);
    }

    CommandOutput shard(const std::string &flags) const
    {
        return run(std::string(NOCALERT_SHARD_BIN) + " " + flags);
    }

    fs::path dir_;
};

// ---- rejection paths ----

TEST_F(WorkloadCli, MalformedPhaseProgramNamesTheSegmentAndField)
{
    const CommandOutput out = simulate(
        "--mesh 4 --cycles 200 --phases 0:100:uniform:fast");
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("phase segment 0"), std::string::npos)
        << out.text;
    EXPECT_NE(out.text.find("rate 'fast'"), std::string::npos)
        << out.text;
}

TEST_F(WorkloadCli, OverlappingSegmentsAreRejectedByName)
{
    const CommandOutput out = simulate(
        "--mesh 4 --cycles 400 "
        "--phases 0:200:uniform:0.05,100:300:transpose:0.1");
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("overlaps"), std::string::npos) << out.text;
}

TEST_F(WorkloadCli, BadBurstSpecNamesTheField)
{
    const CommandOutput out = simulate(
        "--mesh 4 --cycles 200 --phases 0:200:uniform:0.05 "
        "--burst 64:maybe:2:0");
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("onProbability"), std::string::npos)
        << out.text;
}

TEST_F(WorkloadCli, BurstWithoutPhasesIsRejected)
{
    const CommandOutput out =
        simulate("--mesh 4 --cycles 200 --burst 64:0.5:2:0");
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("--burst requires"), std::string::npos)
        << out.text;

    const CommandOutput campaign = shard("run --out " + path("x.json") +
                                         " --mesh 4 --sites 2"
                                         " --burst 64:0.5:2:0");
    EXPECT_NE(campaign.status, 0);
    EXPECT_NE(campaign.text.find("--burst requires"), std::string::npos)
        << campaign.text;
    EXPECT_FALSE(fs::exists(path("x.json")));
}

TEST_F(WorkloadCli, PhaseRepeatWithoutPhasesIsRejected)
{
    const CommandOutput out =
        simulate("--mesh 4 --cycles 200 --phase-repeat");
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("--phase-repeat requires"), std::string::npos)
        << out.text;

    const CommandOutput campaign = shard(
        "run --out " + path("x.json") + " --mesh 4 --sites 2 --phase-repeat");
    EXPECT_NE(campaign.status, 0);
    EXPECT_NE(campaign.text.find("--phase-repeat requires"),
              std::string::npos)
        << campaign.text;
    EXPECT_FALSE(fs::exists(path("x.json")));
}

TEST_F(WorkloadCli, PhasesAndTraceReplayAreMutuallyExclusive)
{
    const CommandOutput out = simulate(
        "--mesh 4 --cycles 200 --phases 0:200:uniform:0.05 "
        "--trace-replay whatever.trace");
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("mutually exclusive"), std::string::npos)
        << out.text;
}

TEST_F(WorkloadCli, MissingTraceFileIsReported)
{
    const CommandOutput out = simulate(
        "--mesh 4 --cycles 200 --trace-replay " + path("missing.trace"));
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("missing.trace"), std::string::npos)
        << out.text;
}

TEST_F(WorkloadCli, CorruptTraceFileIsReported)
{
    const std::string file = path("garbage.trace");
    std::ofstream(file, std::ios::binary) << "this is not a trace";
    const CommandOutput out =
        simulate("--mesh 4 --cycles 200 --trace-replay " + file);
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("magic"), std::string::npos) << out.text;
}

TEST_F(WorkloadCli, OutOfRangeSyntheticRateNamesTheField)
{
    const CommandOutput out =
        simulate("--mesh 4 --cycles 200 --rate 1.7");
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("injectionRate"), std::string::npos)
        << out.text;
}

TEST_F(WorkloadCli, ShardRejectsBadPhaseProgramsToo)
{
    const CommandOutput out = shard(
        "run --out " + path("x.json") +
        " --mesh 4 --sites 2 --phases 100:50:uniform:0.05");
    EXPECT_NE(out.status, 0);
    EXPECT_NE(out.text.find("end"), std::string::npos) << out.text;
}

// ---- --fault site specs ----

/** Exit status 1 naming --fault: a fatal error, not an abort. */
void
expectFaultRejected(const CommandOutput &out, const std::string &spec)
{
    EXPECT_EQ(out.status, 1) << spec << "\n" << out.text;
    EXPECT_NE(out.text.find("--fault"), std::string::npos)
        << spec << "\n" << out.text;
}

TEST_F(WorkloadCli, MalformedFaultNumbersAreFatal)
{
    for (const char *spec :
         {"rabc:Sa2Grant:E:2", "r5:Sa2Grant:E:x", "r5:Sa2Grant:E:2:",
          "r5x:Sa2Grant:E:2", "r5:Sa2Grant:E:-1",
          "r5:Sa2Grant:E:2:4294967295"}) {
        expectFaultRejected(
            simulate(std::string("--mesh 4 --cycles 200 --fault ") + spec),
            spec);
    }
}

TEST_F(WorkloadCli, FaultSitesOutsideTheCatalogAreFatal)
{
    // On a 4x4 mesh with 4 VCs: a per-VC register without its VC, a
    // VA grant past the VC count, a wire given a VC, a router off the
    // mesh, a bit past its field, and an unconnected port.
    for (const char *spec :
         {"r5:StVcState:E:0", "r5:Va2Grant:E:0:9", "r5:Sa2Grant:E:2:0",
          "r999:Sa2Grant:E:2", "r5:Sa2Grant:E:99", "r0:Sa2Grant:W:2"}) {
        expectFaultRejected(
            simulate(std::string("--mesh 4 --cycles 200 --fault ") + spec),
            spec);
    }
}

TEST_F(WorkloadCli, CatalogFaultSitesRun)
{
    for (const char *flags :
         {"--mesh 4 --fault r15:WriteEnable:L:2",
          "--mesh 4 --fault r5:StVcState:E:1:3",
          "--mesh 8 --fault r36:Sa2Grant:E:2"}) {
        const CommandOutput out =
            simulate(std::string("--cycles 200 ") + flags);
        EXPECT_EQ(out.status, 0) << flags << "\n" << out.text;
        EXPECT_NE(out.text.find("armed transient fault"),
                  std::string::npos)
            << flags << "\n" << out.text;
    }
}

// ---- the record -> replay loop ----

TEST_F(WorkloadCli, RecordedTraceReplaysTheExactRun)
{
    const std::string trace = path("run.trace");
    const CommandOutput recorded = simulate(
        "--mesh 4 --cycles 500 --rate 0.08 --seed 11 --record-trace " +
        trace);
    ASSERT_EQ(recorded.status, 0) << recorded.text;
    ASSERT_TRUE(fs::exists(trace));

    const CommandOutput replayed =
        simulate("--mesh 4 --cycles 500 --trace-replay " + trace);
    ASSERT_EQ(replayed.status, 0) << replayed.text;

    // Both runs print identical statistics lines (packets, flits,
    // latency, throughput) — the replay IS the original workload.
    const auto stats_line = [](const std::string &text) {
        const std::size_t at = text.find("pkts(");
        EXPECT_NE(at, std::string::npos) << text;
        return text.substr(at, text.find('\n', at) - at);
    };
    EXPECT_EQ(stats_line(recorded.text), stats_line(replayed.text));
}

TEST_F(WorkloadCli, PhasedRecordingReplaysThePhaseProgram)
{
    const std::string trace = path("phased.trace");
    const std::string phases =
        "0:250:uniform:0.06,300:500:transpose:0.12";
    const CommandOutput recorded = simulate(
        "--mesh 4 --cycles 500 --phases " + phases +
        " --burst 32:0.5:2:0.25 --record-trace " + trace);
    ASSERT_EQ(recorded.status, 0) << recorded.text;

    const CommandOutput replayed =
        simulate("--mesh 4 --cycles 500 --trace-replay " + trace);
    ASSERT_EQ(replayed.status, 0) << replayed.text;

    const auto stats_line = [](const std::string &text) {
        const std::size_t at = text.find("pkts(");
        EXPECT_NE(at, std::string::npos) << text;
        return text.substr(at, text.find('\n', at) - at);
    };
    EXPECT_EQ(stats_line(recorded.text), stats_line(replayed.text));
}

TEST_F(WorkloadCli, ShardCampaignsVerifyAcrossWorkloadBackends)
{
    // A phased campaign run at --jobs 1 and --jobs 4 must produce
    // byte-identical artifacts (the CLI-level determinism check).
    const std::string base =
        "run --mesh 4 --sites 4 --warmup 200 "
        "--phases 0:300:uniform:0.06,300:600:transpose:0.1 "
        "--phase-repeat --burst 64:0.5:2:0.25 ";
    const CommandOutput a =
        shard(base + "--jobs 1 --out " + path("a.json"));
    ASSERT_EQ(a.status, 0) << a.text;
    const CommandOutput b =
        shard(base + "--jobs 4 --out " + path("b.json"));
    ASSERT_EQ(b.status, 0) << b.text;

    const CommandOutput verify =
        shard("verify " + path("a.json") + " " + path("b.json"));
    EXPECT_EQ(verify.status, 0) << verify.text;

    std::ifstream fa(path("a.json")), fb(path("b.json"));
    const std::string ja((std::istreambuf_iterator<char>(fa)),
                         std::istreambuf_iterator<char>());
    const std::string jb((std::istreambuf_iterator<char>(fb)),
                         std::istreambuf_iterator<char>());
    ASSERT_FALSE(ja.empty());
    EXPECT_EQ(ja, jb);
    // The artifact must self-describe as a schema-v6 workload doc.
    EXPECT_NE(ja.find("\"version\": 6"), std::string::npos);
    EXPECT_NE(ja.find("\"workload\""), std::string::npos);
}

} // namespace
} // namespace nocalert
