/**
 * @file
 * CampaignExecutor — the front door of the execution engine.
 *
 * Composes the worker pool (scheduling), the ordered reducer
 * (determinism) and the telemetry hub (observability) into one call:
 * run N independent indexed tasks, deliver their results to a sink in
 * strict index order, and report progress along the way.
 *
 * A task receives only its index, and the caller fixes every input a
 * task reads before dispatch, so a task's result depends only on its
 * index, not on which worker ran it or when. Combined with the
 * ordered reduction this is the whole determinism argument: task
 * inputs are index-pure, task outputs are index-ordered, therefore
 * campaign output is a pure function of (config, seed) — identical for
 * every jobs count and every interleaving.
 *
 * The executor is deliberately ignorant of fault campaigns: Result is
 * a template parameter and outcome counters are the caller's labeled
 * slots, keeping exec a leaf subsystem under util only.
 */

#ifndef NOCALERT_EXEC_EXECUTOR_HPP
#define NOCALERT_EXEC_EXECUTOR_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "exec/cancel.hpp"
#include "exec/reduce.hpp"
#include "exec/telemetry.hpp"
#include "exec/workpool.hpp"

namespace nocalert::exec {

/** Maps independent indexed tasks onto workers, reduces in order. */
class CampaignExecutor
{
  public:
    /** @p jobs 0 resolves to hardware concurrency. */
    explicit CampaignExecutor(unsigned jobs) : pool_(jobs) {}

    /** Resolved worker count (>= 1). */
    unsigned jobs() const { return pool_.workers(); }

    /**
     * Run tasks 0..count-1. @p fn maps a task index to a Result;
     * @p sink receives each (index, Result) in strictly increasing
     * index order, serialized under the reducer lock (shared state
     * touched only from the sink needs no extra locking, and any
     * checkpoint flushed there covers a contiguous prefix).
     *
     * Returns true when all @p count results were committed; false
     * when @p cancel stopped the run early (the sink then saw a
     * contiguous prefix of the task sequence). Rethrows the first
     * task failure as TaskError after quiescing the pool.
     */
    template <typename Result, typename RunFn, typename SinkFn>
    bool run(std::size_t count, RunFn &&fn, SinkFn &&sink,
             CancelToken *cancel = nullptr,
             TelemetryHub *telemetry = nullptr)
    {
        OrderedReducer<Result> reducer(
            [&sink](std::size_t index, Result &&result) {
                sink(index, std::move(result));
            });
        pool_.runIndexed(
            count,
            [&](std::size_t task, unsigned worker) {
                const auto begin = std::chrono::steady_clock::now();
                Result result = fn(task);
                if (telemetry) {
                    // Live utilization: busy time is measured here
                    // alone, as each task finishes.
                    telemetry->recordBusy(
                        worker,
                        static_cast<std::uint64_t>(
                            std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - begin)
                                .count()));
                }
                reducer.commit(task, std::move(result));
            },
            cancel);
        return reducer.committed() == count;
    }

  private:
    WorkerPool pool_;
};

} // namespace nocalert::exec

#endif // NOCALERT_EXEC_EXECUTOR_HPP
