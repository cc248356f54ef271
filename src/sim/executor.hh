/**
 * @file
 * Work-stealing thread pool for embarrassingly parallel simulation
 * tasks (one task per fleet server, one task per bench cell).
 *
 * Tasks are identified by their index in [0, count). Each worker
 * seeds its own deque with the round-robin slice {i : i % workers ==
 * w} and, once that drains, steals single tasks from the back of a
 * sibling's deque — so one straggler (a server with a long uptime
 * draw) never serialises the tail of a run.
 *
 * Determinism contract: the executor promises nothing about
 * *execution* order, only that every task runs exactly once and that
 * run() does not return before all of them finished. Callers that
 * need schedule-independent output must (a) keep tasks independent —
 * no shared mutable state except commutative/atomic counters — and
 * (b) write results into per-task slots and merge them by task index
 * after run() returns. Fleet::run() is the canonical client: it
 * calls run() once per bounded window of servers and merges each
 * window in server order before dispatching the next, so its memory
 * stays O(window) at any population size. See DESIGN.md §10 for the
 * full set of rules.
 *
 * threads == 1 never spawns: tasks run inline, in index order, on
 * the calling thread. This is the legacy sequential path and the
 * baseline that parallel runs must reproduce bit-identically.
 */

#ifndef CTG_SIM_EXECUTOR_HH
#define CTG_SIM_EXECUTOR_HH

#include <cstddef>
#include <functional>

namespace ctg
{

class Executor
{
  public:
    /**
     * Worker count used when a config leaves it at 0: the CTG_THREADS
     * environment variable when it parses to >= 1, else
     * std::thread::hardware_concurrency(), and never less than 1.
     * Read on every call so tests can flip the variable.
     */
    static unsigned defaultThreads();

    /** @param threads worker count; 0 = defaultThreads(). */
    explicit Executor(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Run task(0) .. task(count - 1) to completion across the
     * workers, the calling thread included. If tasks throw, the
     * remaining tasks still run and the exception thrown by the
     * lowest-indexed failing task is rethrown — the surviving
     * exception is schedule-independent, so failures replay exactly
     * at any thread count.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &task);

  private:
    unsigned threads_;
};

} // namespace ctg

#endif // CTG_SIM_EXECUTOR_HH
