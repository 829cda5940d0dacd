/**
 * @file
 * Parallel experiment runner. Every bench binary sweeps a scheme x
 * workload grid whose cells are completely independent simulations (one
 * NdpSystem each), so the grid runs on a std::thread pool: cells are
 * claimed from an atomic cursor, results land at their submission index,
 * and the output vector is therefore identical for any job count —
 * including jobs=1, which runs inline on the calling thread and is the
 * serial reference the determinism tests compare against.
 *
 * The simulations themselves share no mutable state (stats, machines,
 * allocators, and RNGs are all per-NdpSystem; the backend registry is
 * read-only after static init), so no locking is needed beyond the
 * cursor.
 */

#ifndef SYNCRON_HARNESS_GRID_HH
#define SYNCRON_HARNESS_GRID_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace syncron::harness {

/**
 * Runs every task and returns their results in submission order.
 *
 * @param tasks  callables returning the per-cell result (e.g. RunOutput)
 * @param jobs   worker threads; 1 runs inline, n is capped at the task
 *               count
 * @param failedIndex  when a task throws, receives the index of the
 *                     task whose exception is rethrown
 *
 * The first exception thrown by a task (lowest submission index) is
 * rethrown after all workers finish, matching what a serial loop would
 * have reported.
 */
template <typename Task>
auto
runGrid(std::vector<Task> tasks, unsigned jobs,
        std::size_t *failedIndex = nullptr)
    -> std::vector<std::invoke_result_t<Task &>>
{
    using Result = std::invoke_result_t<Task &>;
    std::vector<Result> results(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());

    std::atomic<std::size_t> cursor{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size())
                return;
            try {
                results[i] = tasks[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const std::size_t n = std::min<std::size_t>(jobs, tasks.size());
    if (n <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (std::size_t t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (errors[i]) {
            if (failedIndex != nullptr)
                *failedIndex = i;
            std::rethrow_exception(errors[i]);
        }
    }
    return results;
}

} // namespace syncron::harness

#endif // SYNCRON_HARNESS_GRID_HH
