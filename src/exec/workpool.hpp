/**
 * @file
 * Fixed-size worker pool — the scheduling layer of the execution
 * engine.
 *
 * Workers claim task indices in increasing order from one shared
 * atomic cursor, so a worker that finishes early simply takes the
 * next unclaimed index. Campaign tasks are few and coarse (a fault
 * run costs from a fraction of a millisecond to ~100 ms), and one
 * fetch_add per task balances them. Completion order is intentionally
 * non-deterministic; determinism of campaign output is owed entirely
 * to the ordered reducer downstream, never to the schedule.
 *
 * Failure and cancellation are first-class: the first task exception
 * aborts dispatch, in-flight tasks finish, and runIndexed rethrows a
 * TaskError naming the offending task index; a CancelToken stops
 * dispatch cooperatively without an error.
 */

#ifndef NOCALERT_EXEC_WORKPOOL_HPP
#define NOCALERT_EXEC_WORKPOOL_HPP

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>

#include "exec/cancel.hpp"

namespace nocalert::exec {

/** Thrown by runIndexed when a task threw; names the failing task. */
class TaskError : public std::runtime_error
{
  public:
    TaskError(std::size_t task_index, const std::string &message)
        : std::runtime_error(message), index_(task_index)
    {
    }

    /** Index of the first task observed to fail. */
    std::size_t taskIndex() const { return index_; }

  private:
    std::size_t index_;
};

/** Fixed-size pool executing indexed task sets. */
class WorkerPool
{
  public:
    /** One unit of work: task index plus the executing worker's id. */
    using Task = std::function<void(std::size_t task, unsigned worker)>;

    /** @p workers 0 resolves to hardwareConcurrency(). */
    explicit WorkerPool(unsigned workers);

    /** Resolved worker count (>= 1). */
    unsigned workers() const { return workers_; }

    /**
     * Execute tasks 0..count-1 and block until every dispatched task
     * finished. The calling thread is worker 0 (the serial path spawns
     * no threads at all). Throws TaskError on the first task failure
     * after quiescing the pool; returns early (without error) when
     * @p cancel fires, leaving undispatched tasks unrun.
     */
    void runIndexed(std::size_t count, const Task &task,
                    CancelToken *cancel = nullptr);

    /** std::thread::hardware_concurrency clamped to >= 1. */
    static unsigned hardwareConcurrency();

  private:
    unsigned workers_;
};

} // namespace nocalert::exec

#endif // NOCALERT_EXEC_WORKPOOL_HPP
