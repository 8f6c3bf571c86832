/**
 * @file
 * Live progress/telemetry channel for the execution engine.
 *
 * A TelemetryHub accumulates lock-free counters while a campaign runs
 * — completed runs, labeled outcome counters, per-worker busy time —
 * and produces consistent-enough snapshots on demand for a progress
 * line (runs/s, ETA, utilization). The hub is a *live* channel only:
 * wall-clock rates and utilization never enter serialized artifacts,
 * which must stay byte-identical regardless of machine or `--jobs`.
 * The `telemetry` block in campaign JSON is a deterministic projection
 * computed from committed runs by the serializer, not by this class.
 *
 * Layering: exec knows nothing about fault outcomes — counters are
 * labeled slots supplied by the caller.
 */

#ifndef NOCALERT_EXEC_TELEMETRY_HPP
#define NOCALERT_EXEC_TELEMETRY_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nocalert::exec {

/** Point-in-time view of a running (or finished) campaign. */
struct TelemetrySnapshot
{
    std::size_t runsPlanned = 0;
    std::size_t runsCompleted = 0; ///< Committed (in-order) runs.
    double elapsedSeconds = 0.0;
    double runsPerSecond = 0.0;
    /** Estimated seconds remaining; negative when unknowable (no
     *  completed runs yet). */
    double etaSeconds = -1.0;
    std::vector<std::string> counterLabels;
    std::vector<std::uint64_t> counters;
    /** Per-worker busy fraction of elapsed wall time, in [0, 1]. */
    std::vector<double> workerUtilization;
};

/**
 * Windowed progress between two snapshots of the same hub — the unit
 * a telemetry *stream* (a subscribed client) receives. Every field is
 * guaranteed finite: a zero-elapsed window, a zero-completed window,
 * or a snapshot pair carrying non-finite rates (however produced) must
 * never leak inf/NaN onto the wire, where a JSON serializer would
 * either crash or emit an unparseable token.
 */
struct TelemetryDelta
{
    std::size_t runsCompleted = 0; ///< Cumulative, at the window end.
    std::size_t runsPlanned = 0;   ///< Plan at the window end.
    std::uint64_t deltaRuns = 0;   ///< Runs committed inside the window.
    double windowSeconds = 0.0;    ///< Window wall-clock length (>= 0).
    /** Rate inside the window; 0 when the window is empty or instant. */
    double runsPerSecond = 0.0;
    /**
     * Seconds remaining at the windowed rate (falling back to the
     * cumulative rate when the window saw no runs); -1 when no rate is
     * available yet. Always finite.
     */
    double etaSeconds = -1.0;
};

/**
 * Compute the delta between two snapshots taken from one hub, @p prev
 * before @p cur. Tolerates out-of-order and degenerate inputs (clock
 * ties, counter resets, non-finite fields) by clamping instead of
 * propagating: the result is always finite.
 */
TelemetryDelta deltaBetween(const TelemetrySnapshot &prev,
                            const TelemetrySnapshot &cur);

/** Thread-safe accumulator behind TelemetrySnapshot. */
class TelemetryHub
{
  public:
    /**
     * @p counter_labels names the outcome slots recordRun indexes
     * into (e.g. one per campaign outcome class). The elapsed clock
     * starts here.
     */
    TelemetryHub(std::size_t runs_planned, unsigned workers,
                 std::vector<std::string> counter_labels);

    TelemetryHub(const TelemetryHub &) = delete;
    TelemetryHub &operator=(const TelemetryHub &) = delete;

    /** Count one committed run against counter slot @p counter. */
    void recordRun(std::size_t counter);

    /**
     * Add one to counter slot @p counter without counting a run: an
     * event inside runs (e.g. a run that stopped early), which a
     * worker may report before its run commits.
     */
    void bump(std::size_t counter);

    /**
     * Update the planned-run total. Adaptive (sampled) campaigns grow
     * the plan batch by batch, so the denominator is mutable; pass the
     * new absolute total, not a delta.
     */
    void setRunsPlanned(std::size_t runs_planned)
    {
        runsPlanned_.store(runs_planned, std::memory_order_relaxed);
    }

    /** Add task wall time for @p worker (called from worker threads). */
    void recordBusy(unsigned worker, std::uint64_t nanos);

    TelemetrySnapshot snapshot() const;

    /**
     * Render a snapshot as a single status line, e.g.
     * `412/1000 41.2% | 12.3 runs/s eta 48s | util 87% | tp=9 tn=400`.
     * No trailing newline; callers own the `\r` / `\n` framing.
     */
    static std::string progressLine(const TelemetrySnapshot &snap);

  private:
    std::chrono::steady_clock::time_point start_;
    std::atomic<std::size_t> runsPlanned_;
    std::vector<std::string> labels_;
    std::atomic<std::size_t> completed_{0};
    std::vector<std::atomic<std::uint64_t>> counters_;
    std::vector<std::atomic<std::uint64_t>> busyNanos_;
};

} // namespace nocalert::exec

#endif // NOCALERT_EXEC_TELEMETRY_HPP
