/**
 * @file
 * Causal span tracing: the simulator's one trace stream.
 *
 * CTG_SPAN opens a *scoped span*: a named interval with arguments, a
 * unique id, and a causal parent — the innermost span open on the
 * same thread when it began. A region resize therefore shows up as
 * one connected tree (policy.tick → region.expand → region.evacuate →
 * migrate.block → chw/shootdown), and asynchronous continuations that
 * the call stack cannot link (CHW copies and shootdown completions
 * scheduled on the event queue) are stitched with *flow ids* instead.
 * CTG_SPAN_EVENT records a point event inside the current span.
 *
 * Each subsystem owns a TraceFlag; the flags are the span categories
 * and one atomic mask enables them. CTG_TRACE_SPANS=path turns
 * collection on (every flag, or only those a CTG_TRACE spec lists)
 * and exports the spans as Chrome/Perfetto `trace_event` JSON at
 * process exit, loadable in https://ui.perfetto.dev or
 * chrome://tracing. With no flag enabled a trace point is a single
 * relaxed mask test; span argument evaluation is a handful of
 * integer stores.
 *
 * Threading (DESIGN.md §10): a worker wraps each task in a
 * spans::Capture, events land in that capture's bounded per-thread
 * buffer, and the merge step publishes the buffers in task order —
 * so the collected event sequence (ids, parents, logical timestamps)
 * is identical at any CTG_THREADS, and worker threads never contend
 * on shared state. Events emitted outside any capture go to the
 * process-wide collector under a mutex (the main thread's phase
 * spans).
 *
 * Timestamps: every event carries a per-stream *logical* timestamp
 * (strictly monotonic, so Begin/End pairs always nest in viewers)
 * plus the simulated tick when a tick source is installed
 * (hardware-model runs) and a wall-clock microsecond reading for
 * profiling Fleet::run phases. Only the logical clock is
 * deterministic; ServerScans are never affected either way — span
 * collection reads simulator state but feeds nothing back.
 */

#ifndef CTG_BASE_SPAN_TRACE_HH
#define CTG_BASE_SPAN_TRACE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"

namespace ctg
{

/** One bit per traced subsystem. */
enum class TraceFlag : std::uint32_t
{
    Buddy      = 1u << 0, //!< buddy gigantic-allocation failures
    Compaction = 1u << 1, //!< compaction passes and outcomes
    Migrate    = 1u << 2, //!< software page-migration attempts
    Shootdown  = 1u << 3, //!< TLB shootdown / migration procedures
    ChwEngine  = 1u << 4, //!< Contiguitas-HW copy engine
    Region     = 1u << 5, //!< region manager + resize controller
    Fleet      = 1u << 6, //!< fleet/server level progress
    Kernel     = 1u << 7, //!< kernel facade slow paths
    Faults     = 1u << 8, //!< fault-injector firings
};

namespace spans
{

/** One named integer argument attached to a span or instant. */
struct Arg
{
    const char *key;
    std::int64_t value;
};

/** Maximum arguments recorded per event; extras are dropped. */
constexpr unsigned maxArgs = 4;

/** One collected span event. `name` and arg keys must be string
 * literals (the buffer stores the pointers). */
struct Event
{
    enum class Phase : std::uint8_t
    {
        Begin,     //!< span opened ("B")
        End,       //!< span closed ("E")
        Instant,   //!< point event ("i")
        FlowBegin, //!< flow arrow tail ("s"), binds to open span
        FlowEnd,   //!< flow arrow head ("f"), binds to open span
    };

    Phase phase = Phase::Instant;
    TraceFlag flag = TraceFlag::Fleet;
    const char *name = "";
    /** Span id (Begin/End), flow id (FlowBegin/FlowEnd), 0 for
     * instants. */
    std::uint64_t id = 0;
    /** Id of the innermost span open when this event was emitted
     * (for Begin: the causal parent); 0 = none. */
    std::uint64_t parent = 0;
    /** Per-stream logical timestamp; strictly increasing within a
     * stream, deterministic at any thread count. */
    std::uint64_t ts = 0;
    /** Simulated tick when a trace tick source was installed. */
    Tick tick = 0;
    /** Wall-clock microseconds since process start (profiling only;
     * not deterministic). */
    std::uint64_t wallUs = 0;
    /** Track the event renders on: 0 = main, i + 1 = server i. */
    std::uint32_t stream = 0;
    std::uint8_t nargs = 0;
    std::array<Arg, maxArgs> args{};
};

/** Bitmask of enabled flags. Relaxed atomic: executor workers
 * read it while tests (or a debugger) toggle flags — the race is
 * benign by design, but it must still be data-race-free for TSan. */
extern std::atomic<std::uint32_t> mask_;

inline bool
enabled(TraceFlag flag)
{
    return (mask_.load(std::memory_order_relaxed) &
            static_cast<std::uint32_t>(flag)) != 0u;
}

inline bool
anyEnabled()
{
    return mask_.load(std::memory_order_relaxed) != 0u;
}

void enable(TraceFlag flag);
void disable(TraceFlag flag);
void enableAll();
void disableAll();

/** Comma/space-separated flag names, e.g. "Region,Migrate" or "All".
 * Unknown names warn and are skipped. */
void setFromString(const std::string &spec);

/** Canonical name of a flag ("Buddy", ...). */
const char *flagName(TraceFlag flag);

/** Reverse lookup; returns false for unknown names. */
bool flagFromName(const std::string &name, TraceFlag *out);

/** OR of every defined flag bit. */
std::uint32_t allFlagsMask();

/** Install the simulated-time source used to stamp each event
 * (e.g. [&eq]{ return eq.now(); }); clear to drop the stamp. The
 * source is thread-local: each fleet worker sees only the clock of
 * the server it is currently running. */
void setTickSource(std::function<Tick()> source);
void clearTickSource();

/** Current simulated tick per the installed source; 0 when none. */
Tick currentTick();

/**
 * RAII span. Construct through CTG_SPAN / CTG_SPAN_NAMED rather than
 * directly. When the flag is disabled (or the capture buffer is
 * full) the scope is inactive: nothing is recorded, including the
 * matching End — pairs are never half-dropped.
 */
class Scope
{
  public:
    Scope(TraceFlag flag, const char *name)
    {
        if (enabled(flag))
            begin(flag, name, nullptr, 0);
    }

    Scope(TraceFlag flag, const char *name,
          std::initializer_list<Arg> args)
    {
        if (enabled(flag))
            begin(flag, name, args.begin(), args.size());
    }

    ~Scope()
    {
        if (active_)
            end();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Attach a result argument, recorded on the End event (for
     * outcomes only known when the operation finishes). */
    void
    arg(const char *key, std::int64_t value)
    {
        if (active_ && nEndArgs_ < maxArgs)
            endArgs_[nEndArgs_++] = Arg{key, value};
    }

    bool active() const { return active_; }

    /** Id of this span (0 when inactive). */
    std::uint64_t id() const { return id_; }

  private:
    void begin(TraceFlag flag, const char *name, const Arg *args,
               std::size_t nargs);
    void end();

    TraceFlag flag_ = TraceFlag::Fleet;
    const char *name_ = "";
    std::uint64_t id_ = 0;
    bool active_ = false;
    std::uint8_t nEndArgs_ = 0;
    std::array<Arg, maxArgs> endArgs_{};
};

/** Emit a point event inside the current span (use CTG_SPAN_EVENT). */
void instant(TraceFlag flag, const char *name,
             std::initializer_list<Arg> args = {});

/** Allocate a flow id from the current stream's deterministic
 * counter. Returns 0 when no span flag is enabled. */
std::uint64_t newFlowId();

/** Emit the tail / head of a flow arrow, bound to the innermost open
 * span. Connects causally-related spans across asynchronous
 * boundaries (event-queue continuations). */
void flowBegin(TraceFlag flag, const char *name, std::uint64_t flow);
void flowEnd(TraceFlag flag, const char *name, std::uint64_t flow);

/**
 * RAII per-thread capture of span events: while active, events from
 * this thread land in a private bounded buffer instead of the shared
 * collector, and span/flow ids are drawn from a per-stream counter —
 * (stream, sequence) — so ids and order are schedule-independent.
 * The merge step (Fleet::run, fig12) publish()es each capture's
 * events in task order. Captures nest; the inner one shadows the
 * outer.
 */
class Capture
{
  public:
    /** @param stream track id (server index + 1; 0 = main thread)
     *  @param capacity event cap; 0 = defaultCaptureCapacity. New
     *  events past the cap are counted in dropped() and discarded
     *  (Begin drops deactivate their Scope, keeping pairs sound). */
    explicit Capture(std::uint32_t stream, std::size_t capacity = 0);
    ~Capture();

    Capture(const Capture &) = delete;
    Capture &operator=(const Capture &) = delete;

    /** Move out everything captured so far. */
    std::vector<Event> take();

    std::uint64_t dropped() const;

    static constexpr std::size_t defaultCaptureCapacity = 1u << 18;

    /** Implementation detail (defined in span_trace.cc). */
    struct State;

  private:
    State *state_;
    State *prev_;
};

/** Reserve `count` consecutive stream ids and return the first.
 * Fleet::run calls this once per run (from the main thread, so the
 * assignment is deterministic) and hands stream base + i to server
 * i's Capture — ids and logical clocks never collide across
 * back-to-back fleets sharing one process. */
std::uint32_t reserveStreams(std::uint32_t count);

/** Append events to the process-wide collector (the fleet merge
 * step, in server order). Honors the collector cap. */
void publish(std::vector<Event> events);

/** Events collected so far (captures still open are not included). */
std::size_t collectedCount();

/** Events discarded because a capture or the collector was full. */
std::uint64_t droppedCount();

/** Snapshot of the collected events (test introspection). */
std::vector<Event> collectedEvents();

/** Render the collected events as a Chrome trace_event JSON object
 * ({"traceEvents":[...]}). */
std::string exportJson();

/** exportJson() to a file; false (with a warning) on open failure. */
bool writeJson(const std::string &path);

/** Path the process writes at exit when span flags are enabled
 * (CTG_TRACE_SPANS); empty disables the exit hook. */
void setExportPath(const std::string &path);

/** Drop all collected events and dropped counts; disable all flags.
 * Tests call this between cases. */
void resetForTest();

/** Shrink the collector's event cap (0 restores the default).
 * Tests use this to exercise the publish-time drop discipline
 * without materializing millions of events; resetForTest restores
 * the default. */
void setCollectorCapForTest(std::size_t cap);

} // namespace spans
} // namespace ctg

#define CTG_SPAN_PASTE2_(a, b) a##b
#define CTG_SPAN_PASTE_(a, b) CTG_SPAN_PASTE2_(a, b)

/** Open a span for the rest of the enclosing scope:
 * CTG_SPAN(Region, "region.expand", {{"pages", n}}). Arguments after
 * the name are an optional {{key, value}, ...} list of integer
 * args; they are evaluated (cheaply) even when the flag is off. */
#define CTG_SPAN(flag, ...)                                            \
    const ::ctg::spans::Scope CTG_SPAN_PASTE_(ctg_span_, __COUNTER__)( \
        ::ctg::TraceFlag::flag, __VA_ARGS__)

/** Like CTG_SPAN but names the scope variable so result args can be
 * attached: CTG_SPAN_NAMED(span, Migrate, "migrate.block");
 * span.arg("result", r). */
#define CTG_SPAN_NAMED(var, flag, ...)                                 \
    ::ctg::spans::Scope var(::ctg::TraceFlag::flag, __VA_ARGS__)

/** Point event inside the current span. */
#define CTG_SPAN_EVENT(flag, ...)                                      \
    do {                                                               \
        if (::ctg::spans::enabled(::ctg::TraceFlag::flag))             \
            ::ctg::spans::instant(::ctg::TraceFlag::flag,              \
                                  __VA_ARGS__);                        \
    } while (0)

#endif // CTG_BASE_SPAN_TRACE_HH
