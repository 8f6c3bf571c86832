#include "exec/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace nocalert::exec {
namespace {

TEST(TelemetryHub, CountersAccumulatePerLabel)
{
    TelemetryHub hub(10, 2, {"tp", "fp", "tn"});
    hub.recordRun(0);
    hub.recordRun(2);
    hub.recordRun(2);

    const TelemetrySnapshot snap = hub.snapshot();
    EXPECT_EQ(snap.runsPlanned, 10u);
    EXPECT_EQ(snap.runsCompleted, 3u);
    ASSERT_EQ(snap.counterLabels,
              (std::vector<std::string>{"tp", "fp", "tn"}));
    EXPECT_EQ(snap.counters, (std::vector<std::uint64_t>{1, 0, 2}));
}

TEST(TelemetryHub, BumpCountsAnEventWithoutARun)
{
    TelemetryHub hub(10, 1, {"tn", "stop", "repeat"});
    hub.recordRun(0);
    hub.bump(1);
    hub.bump(1);
    hub.bump(2);

    const TelemetrySnapshot snap = hub.snapshot();
    EXPECT_EQ(snap.runsCompleted, 1u);
    EXPECT_EQ(snap.counters, (std::vector<std::uint64_t>{1, 2, 1}));
    EXPECT_NE(TelemetryHub::progressLine(snap).find("stop=2 repeat=1"),
              std::string::npos);
}

TEST(TelemetryHub, EtaUnknownBeforeFirstRun)
{
    TelemetryHub hub(10, 1, {"done"});
    const TelemetrySnapshot snap = hub.snapshot();
    EXPECT_EQ(snap.runsCompleted, 0u);
    EXPECT_LT(snap.etaSeconds, 0.0);
}

TEST(TelemetryHub, EtaNonNegativeOnceRateIsKnown)
{
    TelemetryHub hub(10, 1, {"done"});
    hub.recordRun(0);
    const TelemetrySnapshot snap = hub.snapshot();
    EXPECT_GT(snap.runsPerSecond, 0.0);
    EXPECT_GE(snap.etaSeconds, 0.0);
}

TEST(TelemetryHub, UtilizationIsClampedToUnitInterval)
{
    TelemetryHub hub(1, 2, {"done"});
    // Report far more busy time than could have elapsed; the snapshot
    // must clamp rather than report >100%.
    hub.recordBusy(0, 3'600'000'000'000ULL); // one hour
    const TelemetrySnapshot snap = hub.snapshot();
    ASSERT_EQ(snap.workerUtilization.size(), 2u);
    EXPECT_EQ(snap.workerUtilization[0], 1.0);
    EXPECT_GE(snap.workerUtilization[1], 0.0);
    EXPECT_LE(snap.workerUtilization[1], 1.0);
}

TEST(TelemetryHub, ProgressLineRendersHandBuiltSnapshot)
{
    TelemetrySnapshot snap;
    snap.runsPlanned = 10;
    snap.runsCompleted = 5;
    snap.elapsedSeconds = 2.0;
    snap.runsPerSecond = 2.5;
    snap.etaSeconds = 2.0;
    snap.counterLabels = {"tp", "fp", "tn"};
    snap.counters = {4, 0, 1};
    snap.workerUtilization = {0.9, 0.7};

    const std::string line = TelemetryHub::progressLine(snap);
    EXPECT_NE(line.find("5/10"), std::string::npos) << line;
    EXPECT_NE(line.find("runs/s"), std::string::npos) << line;
    EXPECT_NE(line.find("eta 2s"), std::string::npos) << line;
    EXPECT_NE(line.find("util  80%"), std::string::npos) << line;
    EXPECT_NE(line.find("tp=4"), std::string::npos) << line;
    EXPECT_NE(line.find("tn=1"), std::string::npos) << line;
    // Zero counters are omitted to keep the line short.
    EXPECT_EQ(line.find("fp="), std::string::npos) << line;
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
}

TEST(TelemetryHub, ProgressLineOmitsUnknownEta)
{
    TelemetrySnapshot snap;
    snap.runsPlanned = 10;
    snap.etaSeconds = -1.0;
    const std::string line = TelemetryHub::progressLine(snap);
    EXPECT_EQ(line.find("eta"), std::string::npos) << line;
    EXPECT_NE(line.find("0/10"), std::string::npos) << line;
}

// ---- deltaBetween: the windowed stream unit must never leak a
// ---- non-finite double onto the wire, whatever the snapshot pair.

void
expectAllFinite(const TelemetryDelta &delta)
{
    EXPECT_TRUE(std::isfinite(delta.windowSeconds));
    EXPECT_TRUE(std::isfinite(delta.runsPerSecond));
    EXPECT_TRUE(std::isfinite(delta.etaSeconds));
}

TelemetrySnapshot
snapAt(std::size_t completed, std::size_t planned, double elapsed,
       double rate = 0.0)
{
    TelemetrySnapshot snap;
    snap.runsCompleted = completed;
    snap.runsPlanned = planned;
    snap.elapsedSeconds = elapsed;
    snap.runsPerSecond = rate;
    return snap;
}

TEST(TelemetryDelta, NormalWindowComputesWindowedRate)
{
    const TelemetryDelta delta =
        deltaBetween(snapAt(10, 100, 5.0), snapAt(30, 100, 10.0));
    EXPECT_EQ(delta.runsCompleted, 30u);
    EXPECT_EQ(delta.deltaRuns, 20u);
    EXPECT_DOUBLE_EQ(delta.windowSeconds, 5.0);
    EXPECT_DOUBLE_EQ(delta.runsPerSecond, 4.0);
    EXPECT_DOUBLE_EQ(delta.etaSeconds, 70.0 / 4.0);
    expectAllFinite(delta);
}

TEST(TelemetryDelta, ZeroElapsedWindowDoesNotDivide)
{
    // Two snapshots inside one clock tick: runs advanced, time did
    // not. A naive deltaRuns/window would emit inf.
    const TelemetryDelta delta =
        deltaBetween(snapAt(10, 100, 5.0), snapAt(30, 100, 5.0, 6.0));
    EXPECT_EQ(delta.deltaRuns, 20u);
    EXPECT_DOUBLE_EQ(delta.windowSeconds, 0.0);
    EXPECT_DOUBLE_EQ(delta.runsPerSecond, 0.0);
    // Eta falls back to the cumulative rate instead of going infinite.
    EXPECT_DOUBLE_EQ(delta.etaSeconds, 70.0 / 6.0);
    expectAllFinite(delta);
}

TEST(TelemetryDelta, ZeroCompletedWindowIsAnIdlePoll)
{
    const TelemetryDelta delta =
        deltaBetween(snapAt(10, 100, 5.0), snapAt(10, 100, 8.0, 1.25));
    EXPECT_EQ(delta.deltaRuns, 0u);
    EXPECT_DOUBLE_EQ(delta.runsPerSecond, 0.0);
    EXPECT_DOUBLE_EQ(delta.etaSeconds, 90.0 / 1.25);
    expectAllFinite(delta);
}

TEST(TelemetryDelta, NoRateAnywhereMeansUnknownEta)
{
    const TelemetryDelta delta =
        deltaBetween(snapAt(0, 100, 0.0), snapAt(0, 100, 0.0));
    EXPECT_DOUBLE_EQ(delta.runsPerSecond, 0.0);
    EXPECT_DOUBLE_EQ(delta.etaSeconds, -1.0);
    expectAllFinite(delta);
}

TEST(TelemetryDelta, FinishedCampaignReportsZeroEta)
{
    const TelemetryDelta delta =
        deltaBetween(snapAt(90, 100, 5.0), snapAt(100, 100, 6.0));
    EXPECT_DOUBLE_EQ(delta.etaSeconds, 0.0);
    expectAllFinite(delta);
}

TEST(TelemetryDelta, BackwardsCountersClampToZero)
{
    // A subscriber may pair snapshots across a campaign restart; the
    // delta clamps rather than wrapping a size_t around.
    const TelemetryDelta delta =
        deltaBetween(snapAt(50, 100, 9.0), snapAt(10, 100, 3.0));
    EXPECT_EQ(delta.deltaRuns, 0u);
    EXPECT_DOUBLE_EQ(delta.windowSeconds, 0.0);
    EXPECT_DOUBLE_EQ(delta.runsPerSecond, 0.0);
    expectAllFinite(delta);
}

TEST(TelemetryDelta, NonFiniteInputsAreContained)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const TelemetrySnapshot pairs[][2] = {
        {snapAt(10, 100, nan), snapAt(20, 100, 5.0, inf)},
        {snapAt(10, 100, 5.0), snapAt(20, 100, inf, nan)},
        {snapAt(10, 100, -inf), snapAt(20, 100, inf, inf)},
        {snapAt(0, 100, 0.0), snapAt(1, 100, 0.0, nan)},
    };
    for (const auto &pair : pairs) {
        const TelemetryDelta delta = deltaBetween(pair[0], pair[1]);
        expectAllFinite(delta);
        EXPECT_GE(delta.windowSeconds, 0.0);
        EXPECT_GE(delta.runsPerSecond, 0.0);
        EXPECT_GE(delta.etaSeconds, -1.0);
    }
}

TEST(TelemetryDelta, LiveHubSnapshotsProduceFiniteDeltas)
{
    TelemetryHub hub(8, 1, {"done"});
    const TelemetrySnapshot before = hub.snapshot();
    hub.recordRun(0);
    hub.recordRun(0);
    const TelemetrySnapshot after = hub.snapshot();
    const TelemetryDelta delta = deltaBetween(before, after);
    EXPECT_EQ(delta.deltaRuns, 2u);
    expectAllFinite(delta);
    // And the degenerate immediate re-poll (possibly zero-width
    // window) stays finite too.
    expectAllFinite(deltaBetween(after, hub.snapshot()));
}

} // namespace
} // namespace nocalert::exec
