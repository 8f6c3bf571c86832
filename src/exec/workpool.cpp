#include "exec/workpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace nocalert::exec {

unsigned
WorkerPool::hardwareConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

WorkerPool::WorkerPool(unsigned workers)
    : workers_(workers == 0 ? hardwareConcurrency() : workers)
{
}

void
WorkerPool::runIndexed(std::size_t count, const Task &task,
                       CancelToken *cancel)
{
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> abort{false};
    std::mutex failure_mutex;
    std::optional<TaskError> failure;

    auto fail = [&](std::size_t index, const char *message) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure)
            failure.emplace(index, message);
        abort.store(true, std::memory_order_relaxed);
    };

    auto worker = [&](unsigned w) {
        while (!abort.load(std::memory_order_relaxed) &&
               !(cancel && cancel->cancelled())) {
            const std::size_t t = cursor++;
            if (t >= count)
                return;
            try {
                task(t, w);
            } catch (const std::exception &e) {
                fail(t, e.what());
                return;
            } catch (...) {
                fail(t, "unknown exception");
                return;
            }
        }
    };

    // A worker beyond the task count would find the cursor spent.
    // jthreads join on destruction, so the helpers never outlive the
    // state they share, also when starting one of them throws.
    const std::size_t active = std::min<std::size_t>(workers_, count);
    std::vector<std::jthread> helpers;
    for (unsigned w = 1; w < active; ++w)
        helpers.emplace_back(worker, w);
    worker(0);
    helpers.clear();

    if (failure)
        throw *failure;
}

} // namespace nocalert::exec
