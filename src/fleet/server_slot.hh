/**
 * @file
 * Per-worker pooled server storage for fleet runs.
 *
 * A ServerSlot pairs one Arena (base/arena.hh) with the Server
 * currently living inside it. Fleet tasks take a slot from an idle
 * list (at most one per worker exists) and recycle it across tasks:
 * begin() tears the previous server down and rewinds the arena in
 * O(blocks), then the task
 * constructs (or snapshot-restores) the next server into the same
 * storage — eliminating the per-task heap churn that dominates
 * setup/teardown cost at 10⁵–10⁶-server populations. Simulation
 * results are bit-identical to fresh construction (nothing in the
 * simulator observes allocation addresses); the pooled-vs-fresh
 * equivalence suite in tests/test_fleet_scale.cc pins that, with
 * every fault site armed, at 1/4/8 threads.
 *
 * Lifecycle per task (see Fleet::run):
 *   slot.begin();                     // destroy old, rewind arena
 *   ArenaScope scope(slot.arena());   // route this thread's news
 *   Server &server = slot.construct(config);   // or adopt(...)
 *   ... run, scan, deep-copy outliving results (ArenaSuspend) ...
 *   // scope closes; storage stays parked until the next begin()
 *
 * begin() must run *before* the task's ArenaScope opens: the rewind
 * invalidates every allocation in the arena, so nothing the task
 * has already allocated (trace captures, span state) may predate
 * it.
 */

#ifndef CTG_FLEET_SERVER_SLOT_HH
#define CTG_FLEET_SERVER_SLOT_HH

#include <memory>

#include "base/arena.hh"
#include "fleet/server.hh"

namespace ctg
{

class ServerSlot
{
  public:
    ServerSlot() = default;

    ~ServerSlot()
    {
        const ArenaScope scope(arena_);
        current_.reset();
        // arena_ destroyed after current_: the server's frees are
        // owns() no-ops, then the blocks go back to the host.
    }

    ServerSlot(const ServerSlot &) = delete;
    ServerSlot &operator=(const ServerSlot &) = delete;

    /** Destroy the previous task's server and rewind the arena.
     * Call once per task, before opening the task's ArenaScope. */
    void
    begin()
    {
        const ArenaScope scope(arena_);
        current_.reset();
        arena_.reset();
    }

    /** Cold-construct the task's server inside the arena. Does not
     * rewind (so a failed restore can fall back to this without
     * clobbering its own trace/span captures). */
    Server &
    construct(const Server::Config &config)
    {
        const ArenaScope scope(arena_);
        current_ = std::make_unique<Server>(config);
        return *current_;
    }

    /** Adopt a server the caller built under this slot's scope (the
     * snapshot-restore path, where decodeSnapshot owns
     * construction). */
    Server &
    adopt(std::unique_ptr<Server> server)
    {
        current_ = std::move(server);
        return *current_;
    }

    /** Destroy the task's server now, under the task's open
     * ArenaScope, so teardown is charged to that task; begin() still
     * rewinds the arena. */
    void
    release()
    {
        current_.reset();
    }

    /** The arena tasks should scope their allocations into. */
    Arena &arena() { return arena_; }

  private:
    Arena arena_;
    std::unique_ptr<Server> current_;
};

} // namespace ctg

#endif // CTG_FLEET_SERVER_SLOT_HH
