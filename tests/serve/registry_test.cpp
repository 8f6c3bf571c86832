/**
 * CampaignRegistry battery: caching, coalescing, fairness,
 * cancellation/resume, disconnect interest tracking, run-time failure
 * containment and telemetry — all driven through stepOnce() with the
 * scheduler thread disabled, so every interleaving is deterministic.
 *
 * The load-bearing assertions mirror the acceptance criteria:
 *  - a served artifact is byte-identical to a direct batch run of the
 *    same spec;
 *  - a repeated submission is answered from the cache without
 *    simulating anything (RegistryStats::runsExecuted is unchanged);
 *  - a cancelled campaign leaves a resumable checkpoint and a
 *    re-submission converges on the same bytes.
 */

#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/serialize.hpp"

namespace nocalert::serve {
namespace {

namespace fs = std::filesystem;

/** A campaign small enough for many full runs per test. */
fault::CampaignConfig
tinySpec(std::uint64_t traffic_seed)
{
    fault::CampaignConfig config;
    config.network.width = 4;
    config.network.height = 4;
    config.workload.synthetic.injectionRate = 0.05;
    config.workload.synthetic.seed = traffic_seed;
    config.warmup = 80;
    config.observeWindow = 400;
    config.drainLimit = 2000;
    config.maxSites = 3;
    config.runForever = false;
    return config;
}

/** A spec that passes submit validation but fatals at run time: the
 *  golden run cannot possibly drain a saturated mesh in one cycle. */
fault::CampaignConfig
undrainableSpec()
{
    fault::CampaignConfig config = tinySpec(5);
    config.workload.synthetic.injectionRate = 0.9;
    config.observeWindow = 200;
    config.drainLimit = 1;
    return config;
}

/** What the batch path would produce for @p spec, byte for byte. */
std::string
directArtifact(const fault::CampaignConfig &spec)
{
    fault::FaultCampaign campaign(spec);
    const fault::CampaignResult result = campaign.run();
    EXPECT_TRUE(result.complete());
    return fault::writeCampaignJson(result);
}

class RegistryTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("nocalert_registry_" + std::to_string(::getpid()) +
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

    /** Manual-stepping registry (no scheduler thread). */
    RegistryConfig manual(unsigned quantum) const
    {
        RegistryConfig config;
        config.jobs = 1;
        config.quantum = quantum;
        config.checkpointEvery = 1;
        config.startScheduler = false;
        return config;
    }

    void drain(CampaignRegistry &registry)
    {
        while (registry.stepOnce()) {
        }
    }

    fs::path dir_;
};

TEST_F(RegistryTest, ServedArtifactIsByteIdenticalToBatchRun)
{
    const fault::CampaignConfig spec = tinySpec(21);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome submitted = registry.submit(spec, false, 1);
    ASSERT_EQ(submitted.errorCode, nullptr) << submitted.error;
    EXPECT_EQ(submitted.state, CampaignState::Queued);
    EXPECT_FALSE(submitted.cached);

    // Not complete until the quanta have run.
    EXPECT_STREQ(registry.result(submitted.id).errorCode, kErrNotComplete);

    drain(registry);

    const auto status = registry.status(submitted.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::Complete);
    EXPECT_EQ(status->runsCompleted, status->runsPlanned);

    const ResultOutcome result = registry.result(submitted.id);
    ASSERT_TRUE(result.artifact.has_value());
    EXPECT_EQ(*result.artifact, directArtifact(spec));

    // The artifact landed and its checkpoint was retired.
    EXPECT_TRUE(fs::exists(cache.artifactPath(submitted.id)));
    EXPECT_FALSE(fs::exists(cache.checkpointPath(submitted.id)));
}

TEST_F(RegistryTest, RepeatSubmissionIsACacheHitWithoutSimulation)
{
    const fault::CampaignConfig spec = tinySpec(22);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(2), cache);

    const SubmitOutcome first = registry.submit(spec, false, 1);
    ASSERT_EQ(first.errorCode, nullptr);
    drain(registry);
    const std::uint64_t executed = registry.stats().runsExecuted;
    EXPECT_GT(executed, 0u);

    const SubmitOutcome second = registry.submit(spec, false, 2);
    EXPECT_EQ(second.id, first.id);
    EXPECT_EQ(second.state, CampaignState::Complete);
    EXPECT_TRUE(second.cached);
    drain(registry); // Must be a no-op.

    // The acceptance check: nothing was simulated for the repeat.
    const RegistryStats stats = registry.stats();
    EXPECT_EQ(stats.runsExecuted, executed);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.submissions, 2u);

    const ResultOutcome a = registry.result(first.id);
    const ResultOutcome b = registry.result(second.id);
    ASSERT_TRUE(a.artifact.has_value());
    ASSERT_TRUE(b.artifact.has_value());
    EXPECT_EQ(*a.artifact, *b.artifact);
}

TEST_F(RegistryTest, ColdStartServesFromADiskArtifactOfAPastLife)
{
    const fault::CampaignConfig spec = tinySpec(23);
    ResultCache cache(dir_.string());
    std::string id;
    {
        CampaignRegistry registry(manual(4), cache);
        id = registry.submit(spec, false, 1).id;
        drain(registry);
    }

    // A fresh registry over the same store: the artifact answers the
    // submission with zero simulation.
    CampaignRegistry reborn(manual(4), cache);
    const SubmitOutcome outcome = reborn.submit(spec, false, 1);
    EXPECT_EQ(outcome.id, id);
    EXPECT_EQ(outcome.state, CampaignState::Complete);
    EXPECT_TRUE(outcome.cached);
    EXPECT_EQ(reborn.stats().runsExecuted, 0u);
    EXPECT_EQ(reborn.stats().cacheHits, 1u);
    ASSERT_TRUE(reborn.result(id).artifact.has_value());
}

TEST_F(RegistryTest, InFlightDuplicatesCoalesceOntoOneEntry)
{
    const fault::CampaignConfig spec = tinySpec(24);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome first = registry.submit(spec, false, 1);
    ASSERT_TRUE(registry.stepOnce()); // Now mid-flight.

    const SubmitOutcome second = registry.submit(spec, false, 2);
    EXPECT_EQ(second.id, first.id);
    EXPECT_TRUE(second.coalesced);
    EXPECT_FALSE(second.cached);

    drain(registry);
    const RegistryStats stats = registry.stats();
    EXPECT_EQ(stats.coalesced, 1u);
    EXPECT_EQ(stats.cacheHits, 0u);
    // One campaign's worth of runs, not two.
    const auto status = registry.status(first.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(stats.runsExecuted, status->runsPlanned);
    EXPECT_EQ(registry.list().size(), 1u);
}

TEST_F(RegistryTest, ConcurrentCampaignsInterleaveRoundRobin)
{
    const fault::CampaignConfig spec_a = tinySpec(25);
    const fault::CampaignConfig spec_b = tinySpec(26);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome a = registry.submit(spec_a, false, 1);
    const SubmitOutcome b = registry.submit(spec_b, false, 1);
    ASSERT_NE(a.id, b.id);

    // Record the per-quantum event stream of both campaigns.
    std::vector<std::string> order;
    ASSERT_TRUE(registry.watch(a.id, 1, [&order](const JsonValue &e) {
        order.push_back(e.find("id")->string());
        return true;
    }));
    ASSERT_TRUE(registry.watch(b.id, 1, [&order](const JsonValue &e) {
        order.push_back(e.find("id")->string());
        return true;
    }));

    drain(registry);

    // quantum=1 and 3 runs each: every event alternates a,b,a,b,...
    ASSERT_EQ(order.size(), 6u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i % 2 == 0 ? a.id : b.id) << "event " << i;

    // Neither campaign starved: both completed, bytes both correct.
    EXPECT_EQ(*registry.result(a.id).artifact, directArtifact(spec_a));
    EXPECT_EQ(*registry.result(b.id).artifact, directArtifact(spec_b));
}

TEST_F(RegistryTest, CancelLeavesAResumableCheckpointAndConverges)
{
    const fault::CampaignConfig spec = tinySpec(27);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome submitted = registry.submit(spec, false, 1);
    ASSERT_TRUE(registry.stepOnce()); // One run committed.

    EXPECT_EQ(registry.cancel(submitted.id), nullptr);
    drain(registry); // The job observes the token on its next turn.

    const auto status = registry.status(submitted.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::Cancelled);
    EXPECT_EQ(registry.stats().campaignsCancelled, 1u);
    // The contract: a valid checkpoint is on disk, no artifact yet.
    EXPECT_TRUE(fs::exists(cache.checkpointPath(submitted.id)));
    EXPECT_FALSE(fs::exists(cache.artifactPath(submitted.id)));
    EXPECT_STREQ(registry.result(submitted.id).errorCode, kErrNotComplete);
    // Cancelling a settled campaign is a typed error.
    EXPECT_STREQ(registry.cancel(submitted.id), kErrNotActive);

    const std::uint64_t executed_before = registry.stats().runsExecuted;

    // Resubmission resumes from the checkpoint...
    const SubmitOutcome again = registry.submit(spec, false, 1);
    EXPECT_EQ(again.id, submitted.id);
    EXPECT_EQ(again.state, CampaignState::Queued);
    drain(registry);

    // ...and converges on exactly the batch-run bytes, having executed
    // only the remaining runs (nothing was thrown away or redone).
    const ResultOutcome result = registry.result(submitted.id);
    ASSERT_TRUE(result.artifact.has_value());
    EXPECT_EQ(*result.artifact, directArtifact(spec));
    const auto final_status = registry.status(submitted.id);
    ASSERT_TRUE(final_status.has_value());
    EXPECT_EQ(registry.stats().runsExecuted,
              final_status->runsPlanned);
    EXPECT_GT(registry.stats().runsExecuted, executed_before);
}

TEST_F(RegistryTest, LastInterestedDisconnectAutoCancels)
{
    const fault::CampaignConfig spec = tinySpec(28);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome submitted = registry.submit(spec, false, 7);
    ASSERT_TRUE(registry.stepOnce());

    registry.disconnect(7); // Abrupt: the one interested peer is gone.
    drain(registry);

    const auto status = registry.status(submitted.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::Cancelled);
    EXPECT_TRUE(fs::exists(cache.checkpointPath(submitted.id)));
}

TEST_F(RegistryTest, SecondInterestedClientKeepsTheCampaignAlive)
{
    const fault::CampaignConfig spec = tinySpec(29);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome submitted = registry.submit(spec, false, 7);
    registry.submit(spec, false, 8); // Coalesced second interest.

    registry.disconnect(7);
    drain(registry);

    const auto status = registry.status(submitted.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::Complete) << "client 8 "
        "still cared; the disconnect of 7 must not cancel";
}

TEST_F(RegistryTest, DetachedCampaignsSurviveDisconnect)
{
    const fault::CampaignConfig spec = tinySpec(30);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome submitted = registry.submit(spec, true, 7);
    registry.disconnect(7);
    drain(registry);

    const auto status = registry.status(submitted.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::Complete);
}

TEST_F(RegistryTest, ConstructorRejectionIsATypedBadSpec)
{
    fault::CampaignConfig bad = tinySpec(31);
    bad.network.width = 1; // Below the 2x2 minimum.
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome outcome = registry.submit(bad, false, 1);
    EXPECT_STREQ(outcome.errorCode, kErrBadSpec);
    EXPECT_FALSE(outcome.error.empty());
    // Nothing was scheduled and the registry is still serviceable.
    EXPECT_FALSE(registry.stepOnce());
    const SubmitOutcome good = registry.submit(tinySpec(31), false, 1);
    EXPECT_EQ(good.errorCode, nullptr);
}

TEST_F(RegistryTest, RunTimeFatalRetiresTheCampaignAsFailed)
{
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(4), cache);

    // Passes validation; the golden run cannot drain at run time.
    const SubmitOutcome submitted =
        registry.submit(undrainableSpec(), false, 1);
    ASSERT_EQ(submitted.errorCode, nullptr) << submitted.error;

    drain(registry);

    const auto status = registry.status(submitted.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, CampaignState::Failed);
    EXPECT_NE(status->failure.find("drain"), std::string::npos)
        << status->failure;
    EXPECT_EQ(registry.stats().campaignsFailed, 1u);

    const ResultOutcome result = registry.result(submitted.id);
    EXPECT_STREQ(result.errorCode, kErrCampaignFailed);
    EXPECT_FALSE(result.failure.empty());

    // One tenant's bad spec never takes the service down: a healthy
    // campaign still completes afterwards.
    const fault::CampaignConfig good = tinySpec(32);
    const SubmitOutcome healthy = registry.submit(good, false, 1);
    ASSERT_EQ(healthy.errorCode, nullptr);
    drain(registry);
    EXPECT_EQ(*registry.result(healthy.id).artifact,
              directArtifact(good));
}

TEST_F(RegistryTest, WatchStreamsFiniteDeltasAndOneDoneEvent)
{
    const fault::CampaignConfig spec = tinySpec(33);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome submitted = registry.submit(spec, false, 1);
    std::vector<JsonValue> events;
    ASSERT_TRUE(
        registry.watch(submitted.id, 1, [&events](const JsonValue &e) {
            events.push_back(e);
            return true;
        }));

    drain(registry);

    // 3 runs at quantum=1: two telemetry deltas, then the terminal.
    ASSERT_EQ(events.size(), 3u);
    for (std::size_t i = 0; i + 1 < events.size(); ++i) {
        const JsonValue &event = events[i];
        ASSERT_EQ(event.find("type")->string(), "telemetry");
        EXPECT_EQ(event.find("id")->string(), submitted.id);
        EXPECT_EQ(event.find("deltaRuns")->asUint(), 1u);
        // The wire contract: every double is finite.
        for (const char *key :
             {"windowSeconds", "runsPerSecond", "etaSeconds"}) {
            const JsonValue *value = event.find(key);
            ASSERT_NE(value, nullptr) << key;
            EXPECT_TRUE(std::isfinite(value->asDouble())) << key;
        }
    }
    const JsonValue &done = events.back();
    EXPECT_EQ(done.find("type")->string(), "done");
    EXPECT_EQ(done.find("state")->string(), "complete");
}

TEST_F(RegistryTest, WatchOnATerminalCampaignAnswersImmediately)
{
    const fault::CampaignConfig spec = tinySpec(34);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(4), cache);

    const SubmitOutcome submitted = registry.submit(spec, false, 1);
    drain(registry);

    std::vector<JsonValue> events;
    EXPECT_TRUE(
        registry.watch(submitted.id, 2, [&events](const JsonValue &e) {
            events.push_back(e);
            return true;
        }));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].find("type")->string(), "done");
    EXPECT_EQ(events[0].find("state")->string(), "complete");

    EXPECT_FALSE(registry.watch("no-such-id", 2,
                                [](const JsonValue &) { return true; }));
}

TEST_F(RegistryTest, DeadSinksAreDroppedNotFatal)
{
    const fault::CampaignConfig spec = tinySpec(35);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome submitted = registry.submit(spec, false, 1);
    int delivered = 0;
    ASSERT_TRUE(registry.watch(submitted.id, 1,
                               [&delivered](const JsonValue &) {
                                   ++delivered;
                                   return false; // Dead peer.
                               }));
    drain(registry);
    // The sink was dropped after its first refusal; the campaign
    // still ran to completion.
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(registry.status(submitted.id)->state,
              CampaignState::Complete);
}

TEST_F(RegistryTest, ShutdownCancelsActiveWorkButKeepsCheckpoints)
{
    const fault::CampaignConfig spec = tinySpec(36);
    ResultCache cache(dir_.string());
    CampaignRegistry registry(manual(1), cache);

    const SubmitOutcome submitted = registry.submit(spec, false, 1);
    ASSERT_TRUE(registry.stepOnce());

    registry.shutdown();

    EXPECT_EQ(registry.status(submitted.id)->state,
              CampaignState::Cancelled);
    EXPECT_TRUE(fs::exists(cache.checkpointPath(submitted.id)));
    // Submissions after shutdown are refused, not crashed.
    const SubmitOutcome refused = registry.submit(spec, false, 2);
    EXPECT_STREQ(refused.errorCode, kErrNotActive);
}

} // namespace
} // namespace nocalert::serve
