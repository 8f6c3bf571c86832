#include "exec/workpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace nocalert::exec {
namespace {

TEST(WorkerPool, HardwareConcurrencyIsAtLeastOne)
{
    EXPECT_GE(WorkerPool::hardwareConcurrency(), 1u);
    EXPECT_EQ(WorkerPool(0).workers(),
              WorkerPool::hardwareConcurrency());
}

TEST(WorkerPool, EveryIndexExecutesExactlyOnce)
{
    constexpr std::size_t kCount = 257; // not a multiple of workers
    for (const unsigned workers : {1u, 2u, 4u, 7u}) {
        WorkerPool pool(workers);
        std::vector<std::atomic<int>> hits(kCount);
        pool.runIndexed(kCount, [&](std::size_t task, unsigned worker) {
            ASSERT_LT(task, kCount);
            ASSERT_LT(worker, workers);
            hits[task].fetch_add(1);
        });
        for (std::size_t i = 0; i < kCount; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
}

TEST(WorkerPool, SingleWorkerRunsInlineInOrder)
{
    WorkerPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.runIndexed(16, [&](std::size_t task, unsigned worker) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(worker, 0u);
        order.push_back(task);
    });
    std::vector<std::size_t> expected(16);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(order, expected);
}

TEST(WorkerPool, ZeroTasksIsANoOp)
{
    WorkerPool pool(4);
    pool.runIndexed(0, [&](std::size_t, unsigned) { FAIL(); });
}

TEST(WorkerPool, TaskExceptionBecomesTaskErrorNamingTheIndex)
{
    WorkerPool pool(1);
    try {
        pool.runIndexed(10, [](std::size_t task, unsigned) {
            if (task == 7)
                throw std::runtime_error("synthetic failure");
        });
        FAIL() << "expected TaskError";
    } catch (const TaskError &error) {
        EXPECT_EQ(error.taskIndex(), 7u);
        EXPECT_STREQ(error.what(), "synthetic failure");
    }
}

TEST(WorkerPool, ExceptionAbortsRemainingDispatch)
{
    // Parallel flavor: the pool must quiesce and rethrow exactly one
    // TaskError; tasks dispatched after the failure was observed do
    // not run (executed stays well below the full count).
    WorkerPool pool(4);
    std::atomic<std::size_t> executed{0};
    std::size_t failing = SIZE_MAX;
    try {
        pool.runIndexed(1000, [&](std::size_t task, unsigned) {
            if (task == 3)
                throw std::runtime_error("boom");
            executed.fetch_add(1);
        });
        FAIL() << "expected TaskError";
    } catch (const TaskError &error) {
        failing = error.taskIndex();
    }
    EXPECT_EQ(failing, 3u);
    EXPECT_LT(executed.load(), 1000u);
}

TEST(WorkerPool, PreCancelledTokenRunsNothing)
{
    WorkerPool pool(4);
    CancelToken cancel;
    cancel.cancel();
    std::atomic<std::size_t> executed{0};
    pool.runIndexed(100, [&](std::size_t, unsigned) {
        executed.fetch_add(1);
    }, &cancel);
    EXPECT_EQ(executed.load(), 0u);
}

TEST(WorkerPool, MidRunCancelStopsDispatchWithoutError)
{
    WorkerPool pool(1);
    CancelToken cancel;
    std::size_t executed = 0;
    pool.runIndexed(100, [&](std::size_t, unsigned) {
        if (++executed == 5)
            cancel.cancel();
    }, &cancel);
    EXPECT_EQ(executed, 5u);
}

TEST(WorkerPool, SlowTaskDoesNotHoldBackTheRest)
{
    // Task 0 occupies its worker until every other task has run, so
    // the remaining workers must take over all of them, including the
    // indices a static split would have left to task 0's worker.
    constexpr std::size_t kCount = 64;
    WorkerPool pool(4);
    std::atomic<std::size_t> others{0};
    std::size_t seen_by_task0 = 0;
    pool.runIndexed(kCount, [&](std::size_t task, unsigned) {
        if (task != 0) {
            others.fetch_add(1);
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (others.load() < kCount - 1 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        seen_by_task0 = others.load();
    });
    EXPECT_EQ(seen_by_task0, kCount - 1);
}

} // namespace
} // namespace nocalert::exec
