#include "exec/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/log.hpp"

namespace nocalert::exec {

namespace {

/** Clamp a possibly-degenerate double to a finite, non-negative one. */
double
finiteOrZero(double value)
{
    return std::isfinite(value) && value > 0.0 ? value : 0.0;
}

} // namespace

TelemetryDelta
deltaBetween(const TelemetrySnapshot &prev, const TelemetrySnapshot &cur)
{
    TelemetryDelta delta;
    delta.runsCompleted = cur.runsCompleted;
    delta.runsPlanned = cur.runsPlanned;
    // A hub only moves forward, but a subscriber may pair snapshots
    // across a campaign restart; clamp instead of wrapping around.
    delta.deltaRuns = cur.runsCompleted > prev.runsCompleted
                          ? cur.runsCompleted - prev.runsCompleted
                          : 0;
    delta.windowSeconds = finiteOrZero(cur.elapsedSeconds -
                                       prev.elapsedSeconds);

    // The windowed rate exists only when the window has both duration
    // and progress — a zero-elapsed window (two snapshots inside one
    // clock tick) or a zero-completed window (an idle poll) must not
    // divide its way to inf/NaN.
    if (delta.deltaRuns > 0 && delta.windowSeconds > 0.0) {
        delta.runsPerSecond =
            finiteOrZero(static_cast<double>(delta.deltaRuns) /
                         delta.windowSeconds);
    }

    const std::size_t remaining =
        cur.runsPlanned > cur.runsCompleted
            ? cur.runsPlanned - cur.runsCompleted
            : 0;
    if (remaining == 0 && cur.runsCompleted > 0) {
        delta.etaSeconds = 0.0;
    } else if (remaining > 0) {
        // Prefer the windowed rate (it tracks the current phase of an
        // adaptive campaign); fall back to the cumulative rate.
        const double rate = delta.runsPerSecond > 0.0
                                ? delta.runsPerSecond
                                : finiteOrZero(cur.runsPerSecond);
        if (rate > 0.0) {
            const double eta = static_cast<double>(remaining) / rate;
            if (std::isfinite(eta))
                delta.etaSeconds = eta;
        }
    }
    return delta;
}

TelemetryHub::TelemetryHub(std::size_t runs_planned, unsigned workers,
                           std::vector<std::string> counter_labels)
    : start_(std::chrono::steady_clock::now()),
      runsPlanned_(runs_planned),
      labels_(std::move(counter_labels)),
      counters_(labels_.size()),
      busyNanos_(workers == 0 ? 1 : workers)
{
}

void
TelemetryHub::recordRun(std::size_t counter)
{
    NOCALERT_ASSERT(counter < counters_.size(),
                    "telemetry counter out of range");
    counters_[counter].fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
}

void
TelemetryHub::bump(std::size_t counter)
{
    NOCALERT_ASSERT(counter < counters_.size(),
                    "telemetry counter out of range");
    counters_[counter].fetch_add(1, std::memory_order_relaxed);
}

void
TelemetryHub::recordBusy(unsigned worker, std::uint64_t nanos)
{
    NOCALERT_ASSERT(worker < busyNanos_.size(),
                    "telemetry worker out of range");
    busyNanos_[worker].fetch_add(nanos, std::memory_order_relaxed);
}

TelemetrySnapshot
TelemetryHub::snapshot() const
{
    TelemetrySnapshot snap;
    snap.runsPlanned = runsPlanned_.load(std::memory_order_relaxed);
    snap.runsCompleted = completed_.load(std::memory_order_relaxed);
    snap.elapsedSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    if (snap.elapsedSeconds > 0.0) {
        snap.runsPerSecond =
            finiteOrZero(snap.runsCompleted / snap.elapsedSeconds);
    }
    if (snap.runsCompleted > 0 && snap.runsPerSecond > 0.0) {
        const std::size_t remaining =
            snap.runsPlanned > snap.runsCompleted
                ? snap.runsPlanned - snap.runsCompleted
                : 0;
        // finiteOrZero would misread a legitimate eta of 0; clamp the
        // division result explicitly instead.
        const double eta = remaining / snap.runsPerSecond;
        snap.etaSeconds = std::isfinite(eta) ? eta : -1.0;
    }
    snap.counterLabels = labels_;
    snap.counters.reserve(counters_.size());
    for (const auto &counter : counters_)
        snap.counters.push_back(counter.load(std::memory_order_relaxed));
    snap.workerUtilization.reserve(busyNanos_.size());
    for (const auto &busy : busyNanos_) {
        const double busy_seconds =
            busy.load(std::memory_order_relaxed) * 1e-9;
        snap.workerUtilization.push_back(
            snap.elapsedSeconds > 0.0
                ? std::min(1.0, busy_seconds / snap.elapsedSeconds)
                : 0.0);
    }
    return snap;
}

std::string
TelemetryHub::progressLine(const TelemetrySnapshot &snap)
{
    char buf[160];
    const double pct =
        snap.runsPlanned > 0
            ? 100.0 * snap.runsCompleted / snap.runsPlanned
            : 100.0;
    std::string line;
    std::snprintf(buf, sizeof(buf), "%zu/%zu %5.1f%% | %.1f runs/s",
                  snap.runsCompleted, snap.runsPlanned, pct,
                  snap.runsPerSecond);
    line += buf;
    if (snap.etaSeconds >= 0.0) {
        std::snprintf(buf, sizeof(buf), " eta %.0fs", snap.etaSeconds);
        line += buf;
    }
    if (!snap.workerUtilization.empty()) {
        double sum = 0.0;
        for (double u : snap.workerUtilization)
            sum += u;
        std::snprintf(buf, sizeof(buf), " | util %3.0f%%",
                      100.0 * sum / snap.workerUtilization.size());
        line += buf;
    }
    std::string counters;
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
        if (snap.counters[i] == 0)
            continue;
        std::snprintf(buf, sizeof(buf), "%s%s=%llu",
                      counters.empty() ? "" : " ",
                      snap.counterLabels[i].c_str(),
                      static_cast<unsigned long long>(snap.counters[i]));
        counters += buf;
    }
    if (!counters.empty())
        line += " | " + counters;
    return line;
}

} // namespace nocalert::exec
