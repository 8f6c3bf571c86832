#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace nocalert::exec {
namespace {

/** Run count chosen so jobs == count is a meaningful sweep point. */
constexpr std::size_t kCount = 24;

std::vector<int>
collectResults(unsigned jobs, bool skewed_durations)
{
    CampaignExecutor executor(jobs);
    std::vector<int> sink_order;
    const bool finished = executor.run<int>(
        kCount,
        [&](std::size_t index) {
            if (skewed_durations) {
                // Early tasks take longest, maximizing out-of-order
                // completion under parallel schedules.
                std::this_thread::sleep_for(
                    std::chrono::microseconds((kCount - index) * 50));
            }
            return static_cast<int>(index) * 3 + 1;
        },
        [&](std::size_t index, int &&value) {
            EXPECT_EQ(index, sink_order.size());
            sink_order.push_back(value);
        });
    EXPECT_TRUE(finished);
    return sink_order;
}

TEST(CampaignExecutor, SinkSeesIndexOrderForEveryJobsCount)
{
    const std::vector<int> serial = collectResults(1, false);
    ASSERT_EQ(serial.size(), kCount);
    for (const unsigned jobs :
         {2u, 4u, static_cast<unsigned>(kCount)}) {
        EXPECT_EQ(collectResults(jobs, true), serial)
            << "jobs=" << jobs;
    }
}

TEST(CampaignExecutor, FailurePropagatesAfterQuiescing)
{
    CampaignExecutor executor(4);
    std::vector<std::size_t> committed;
    try {
        executor.run<int>(
            50,
            [](std::size_t index) -> int {
                if (index == 10)
                    throw std::runtime_error("run 10 exploded");
                return 0;
            },
            [&](std::size_t index, int &&) {
                committed.push_back(index);
            });
        FAIL() << "expected TaskError";
    } catch (const TaskError &error) {
        EXPECT_EQ(error.taskIndex(), 10u);
        EXPECT_STREQ(error.what(), "run 10 exploded");
    }
    // Whatever was committed is a contiguous prefix not containing
    // the failed index — the checkpoint invariant.
    for (std::size_t i = 0; i < committed.size(); ++i)
        EXPECT_EQ(committed[i], i);
    EXPECT_LT(committed.size(), 11u);
}

TEST(CampaignExecutor, CancelLeavesContiguousPrefix)
{
    CampaignExecutor executor(4);
    CancelToken cancel;
    std::vector<std::size_t> committed;
    const bool finished = executor.run<int>(
        100,
        [](std::size_t) {
            // Slow the tasks so dispatch cannot outrun the cancel:
            // workers check the token between tasks, and instant
            // tasks could otherwise all finish before commit 7.
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            return 0;
        },
        [&](std::size_t index, int &&) {
            committed.push_back(index);
            if (committed.size() == 7)
                cancel.cancel();
        },
        &cancel);
    EXPECT_FALSE(finished);
    ASSERT_GE(committed.size(), 7u);
    EXPECT_LT(committed.size(), 100u);
    for (std::size_t i = 0; i < committed.size(); ++i)
        EXPECT_EQ(committed[i], i);
}

TEST(CampaignExecutor, ReportsLiveUtilizationPerWorker)
{
    CampaignExecutor executor(3);
    TelemetryHub hub(12, executor.jobs(), {"done"});
    executor.run<int>(
        12,
        [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            return 0;
        },
        [&](std::size_t, int &&) { hub.recordRun(0); }, nullptr, &hub);

    const TelemetrySnapshot snap = hub.snapshot();
    EXPECT_EQ(snap.runsCompleted, 12u);
    ASSERT_EQ(snap.workerUtilization.size(), 3u);
    double total = 0.0;
    for (const double u : snap.workerUtilization) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
        total += u;
    }
    EXPECT_GT(total, 0.0); // somebody did the sleeping
}

} // namespace
} // namespace nocalert::exec
