/**
 * End-to-end tests of the nocalert_serve daemon and nocalert_client
 * CLI as real processes over a real socket — the same drive CI's
 * serve-smoke job performs:
 *
 *  - a served artifact is byte-identical to a campaign_shard batch
 *    run of the same flags;
 *  - a repeated submission is a cache hit (stats prove no re-run);
 *  - the documented exit-code contract (0 ok / 1 server error /
 *    2 usage / 3 cannot connect);
 *  - a shutdown request stops the daemon and removes the socket.
 *
 * Binary paths arrive via compile definitions:
 * NOCALERT_SERVE_BIN, NOCALERT_CLIENT_BIN, NOCALERT_SHARD_BIN.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#ifndef NOCALERT_SERVE_BIN
#error "NOCALERT_SERVE_BIN must point at the nocalert_serve binary"
#endif
#ifndef NOCALERT_CLIENT_BIN
#error "NOCALERT_CLIENT_BIN must point at the nocalert_client binary"
#endif
#ifndef NOCALERT_SHARD_BIN
#error "NOCALERT_SHARD_BIN must point at the campaign_shard binary"
#endif

namespace {

namespace fs = std::filesystem;

/** Campaign flags shared by the served and the batch invocation. */
const char *kCampaignFlags = "--mesh 4 --sites 4 --rate 0.05 --seed 11"
                             " --warmup 80";

/** CI's phased workload-smoke flags, on fewer sites. */
const char *kPhasedFlags =
    "--mesh 4 --sites 4 --seed 13 --warmup 200 --phases "
    "0:200:uniform:0.06,200:400:transpose:0.1,400:600:hotspot:0.05:5:0.5"
    " --burst 64:0.5:2.0:0.25:2 --phase-repeat";

int
exitStatus(const std::string &command)
{
    const int raw = std::system(command.c_str());
    EXPECT_NE(raw, -1) << command;
    return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream file(path, std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

class ServeCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("nocalert_serve_cli_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
        socket_ = (dir_ / "sock").string();

        // The daemon as a real background process, like CI runs it.
        const std::string launch =
            std::string(NOCALERT_SERVE_BIN) + " --socket " + socket_ +
            " --cache " + (dir_ / "cache").string() +
            " --jobs 1 --quantum 4 --checkpoint-every 1 > " +
            (dir_ / "serve.log").string() + " 2>&1 &";
        ASSERT_EQ(exitStatus(launch), 0);
        ASSERT_TRUE(awaitSocket()) << readFile(dir_ / "serve.log");
    }

    void TearDown() override
    {
        // Best effort: ask the daemon to exit and wait for the socket
        // to disappear so the temp dir can be removed cleanly.
        if (fs::exists(socket_)) {
            exitStatus(client("shutdown") + " >/dev/null 2>&1");
            awaitSocketGone();
        }
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    bool awaitSocket() const
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (!fs::exists(socket_)) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return true;
    }

    bool awaitSocketGone() const
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (fs::exists(socket_)) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return true;
    }

    /** `nocalert_client <command> --socket <sock>`. */
    std::string client(const std::string &command) const
    {
        return std::string(NOCALERT_CLIENT_BIN) + " " + command +
               " --socket " + socket_;
    }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /**
     * Start a second daemon with @p flags: it must exit 1 naming
     * @p flag before it ever listens. `timeout` turns a daemon that
     * wrongly starts into a failure instead of a hang.
     */
    void expectFlagRejected(const std::string &flags,
                            const std::string &flag) const
    {
        const std::string socket = path("bad.sock");
        const std::string launch =
            "timeout 10 " + std::string(NOCALERT_SERVE_BIN) +
            " --socket " + socket + " --cache " + path("bad-cache") + " " +
            flags + " > " + path("bad.log") + " 2>&1";
        EXPECT_EQ(exitStatus(launch), 1) << readFile(dir_ / "bad.log");
        EXPECT_NE(readFile(dir_ / "bad.log").find(flag), std::string::npos)
            << readFile(dir_ / "bad.log");
        EXPECT_FALSE(fs::exists(socket));
    }

    fs::path dir_;
    std::string socket_;
};

TEST_F(ServeCli, ServedArtifactIsByteIdenticalToTheBatchCli)
{
    const char *const cases[] = {kCampaignFlags, kPhasedFlags};
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const std::string flags = cases[i];
        SCOPED_TRACE(flags);
        // Fresh names per case: an existing --out file is the batch
        // run's checkpoint, and a different campaign's is refused.
        const std::string served = path("served" + std::to_string(i));
        const std::string reference = path("ref" + std::to_string(i));

        // The served path: submit, wait, fetch.
        const std::string submit = client("submit") + " " + flags +
                                   " --wait --out " + served + " 2> " +
                                   path("client.log");
        ASSERT_EQ(exitStatus(submit), 0) << readFile(dir_ / "client.log");

        // The batch path: same flags through campaign_shard run.
        const std::string batch =
            std::string(NOCALERT_SHARD_BIN) + " run " + flags +
            " --jobs 1 --out " + reference + " >/dev/null 2>&1";
        ASSERT_EQ(exitStatus(batch), 0);

        ASSERT_FALSE(readFile(served).empty());
        EXPECT_EQ(readFile(served), readFile(reference))
            << "the service must reproduce the batch CLI byte for byte";
    }
}

TEST_F(ServeCli, RepeatedSubmissionIsACacheHit)
{
    const std::string submit = client("submit") + " " + kCampaignFlags +
                               " --wait --out " + path("first.json") +
                               " 2>/dev/null";
    ASSERT_EQ(exitStatus(submit), 0);

    // Again; answered from the artifact store, byte-identically.
    const std::string again = client("submit") + " " + kCampaignFlags +
                              " --wait --out " + path("second.json") +
                              " 2>/dev/null";
    ASSERT_EQ(exitStatus(again), 0);
    EXPECT_EQ(readFile(dir_ / "first.json"),
              readFile(dir_ / "second.json"));

    // And the daemon's own counters prove nothing was re-simulated:
    // 4 planned runs executed once, one cache hit.
    ASSERT_EQ(exitStatus(client("stats") + " > " + path("stats.txt")),
              0);
    const std::string stats = readFile(dir_ / "stats.txt");
    EXPECT_NE(stats.find("cacheHits"), std::string::npos) << stats;
    EXPECT_NE(stats.find("runsExecuted         4"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("cacheHits            1"), std::string::npos)
        << stats;
}

TEST_F(ServeCli, ExitCodeContract)
{
    // 0: liveness.
    EXPECT_EQ(exitStatus(client("ping") + " >/dev/null 2>&1"), 0);
    // 1: the server answers with a typed error.
    EXPECT_EQ(exitStatus(client("status") + " no-such-campaign"
                                            " >/dev/null 2>&1"),
              1);
    // 2: usage (no socket).
    EXPECT_EQ(exitStatus(std::string(NOCALERT_CLIENT_BIN) +
                         " ping >/dev/null 2>&1"),
              2);
    // 3: nobody listening there.
    EXPECT_EQ(exitStatus(std::string(NOCALERT_CLIENT_BIN) +
                         " ping --socket " + path("nowhere.sock") +
                         " >/dev/null 2>&1"),
              3);
}

TEST_F(ServeCli, NegativeJobsIsRejectedBeforeListening)
{
    // Read as a signed integer, -1 used to become 2^32-1 workers and
    // abort on the first submission.
    expectFlagRejected("--jobs -1", "--jobs");
}

TEST_F(ServeCli, NegativeCacheBudgetIsRejectedBeforeListening)
{
    expectFlagRejected("--cache-max-bytes -1", "--cache-max-bytes");
}

TEST_F(ServeCli, ListAndStatusSeeASubmittedCampaign)
{
    // Fire-and-forget submit prints the campaign id on stdout.
    const std::string submit = client("submit") + " " + kCampaignFlags +
                               " > " + path("id.txt") + " 2>/dev/null";
    ASSERT_EQ(exitStatus(submit), 0);
    std::string id = readFile(dir_ / "id.txt");
    while (!id.empty() && (id.back() == '\n' || id.back() == '\r'))
        id.pop_back();
    ASSERT_FALSE(id.empty());

    EXPECT_EQ(exitStatus(client("status") + " " + id +
                         " >/dev/null 2>&1"),
              0);
    ASSERT_EQ(exitStatus(client("list") + " > " + path("list.txt")), 0);
    EXPECT_NE(readFile(dir_ / "list.txt").find(id), std::string::npos);
    // Detached campaigns run to completion without a client attached.
    EXPECT_EQ(exitStatus(client("watch") + " " + id +
                         " >/dev/null 2>&1"),
              0);
    EXPECT_EQ(exitStatus(client("result") + " " + id + " --out " +
                         path("artifact.json") + " 2>/dev/null"),
              0);
    EXPECT_FALSE(readFile(dir_ / "artifact.json").empty());
}

TEST_F(ServeCli, ShutdownStopsTheDaemonAndRemovesTheSocket)
{
    ASSERT_EQ(exitStatus(client("shutdown") + " >/dev/null 2>&1"), 0);
    EXPECT_TRUE(awaitSocketGone());
    // Nothing is listening any more.
    EXPECT_EQ(exitStatus(client("ping") + " >/dev/null 2>&1"), 3);
}

} // namespace
