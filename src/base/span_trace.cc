#include "base/span_trace.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "base/env_config.hh"
#include "base/logging.hh"

namespace ctg
{
namespace spans
{

std::atomic<std::uint32_t> mask_{0};

/**
 * Per-stream collection state. Captures own one each; stream 0 (the
 * uncaptured path, i.e. the main thread between tasks) shares a
 * single mutex-guarded instance whose events append straight to the
 * collector.
 */
struct Capture::State
{
    std::uint32_t stream = 0;
    /** 0 = the global stream (no private buffer, collector cap
     * applies instead). */
    std::size_t capacity = 0;
    std::vector<Event> buf;
    /** Next (stream-local) sequence number; ids are
     * stream << 32 | seq, unique and schedule-independent. */
    std::uint64_t nextSeq = 1;
    /** Logical clock: max(lastTs + 1, tick) per event, so Begin/End
     * pairs always nest in trace viewers. */
    std::uint64_t lastTs = 0;
    std::uint64_t nDropped = 0;
    /** Ids of spans currently open on this stream, innermost last. */
    std::vector<std::uint64_t> openStack;
};

namespace
{

using State = Capture::State;

struct FlagEntry
{
    TraceFlag flag;
    const char *name;
};

constexpr FlagEntry flagTable[] = {
    {TraceFlag::Buddy, "Buddy"},
    {TraceFlag::Compaction, "Compaction"},
    {TraceFlag::Migrate, "Migrate"},
    {TraceFlag::Shootdown, "Shootdown"},
    {TraceFlag::ChwEngine, "ChwEngine"},
    {TraceFlag::Region, "Region"},
    {TraceFlag::Fleet, "Fleet"},
    {TraceFlag::Kernel, "Kernel"},
    {TraceFlag::Faults, "Faults"},
};

/**
 * Tick source of the simulation driving this thread. thread_local so
 * parallel fleet workers each observe the event queue of the server
 * they are running, never a sibling's (which would both race and
 * leak the work-stealing schedule into captured span timestamps).
 */
thread_local std::function<Tick()> tickSource_;

/** Guards the collector, the global stream, stream-id handout, and
 * the export path. Capture-backed emission never takes it. */
std::mutex mu_;
std::vector<Event> collected_;
std::uint64_t collectorDropped_ = 0;
/** Collector cap: ~4M events (~300 MB). End events bypass it so
 * open spans always close; overshoot is bounded by open depth.
 * Mutable only through setCollectorCapForTest. */
constexpr std::size_t defaultCollectorCap = std::size_t{1} << 22;
std::size_t collectorCap = defaultCollectorCap;
State globalStream_;
std::uint32_t nextStream_ = 1;
std::string exportPath_;
bool atexitRegistered_ = false;

thread_local State *tlsCapture_ = nullptr;

std::uint64_t
wallUs()
{
    using namespace std::chrono;
    static const steady_clock::time_point start = steady_clock::now();
    return static_cast<std::uint64_t>(
        duration_cast<microseconds>(steady_clock::now() - start)
            .count());
}

std::uint64_t
makeId(State &s)
{
    return (static_cast<std::uint64_t>(s.stream) << 32) |
           (s.nextSeq++ & 0xffffffffu);
}

/** Fill the stream-derived fields: logical ts, tick, wall clock,
 * track, causal parent (innermost open span). */
void
stamp(State &s, Event &ev)
{
    ev.stream = s.stream;
    ev.tick = currentTick();
    s.lastTs = std::max(s.lastTs + 1,
                        static_cast<std::uint64_t>(ev.tick));
    ev.ts = s.lastTs;
    ev.wallUs = wallUs();
    ev.parent = s.openStack.empty() ? 0 : s.openStack.back();
}

void
copyArgs(Event &ev, const Arg *args, std::size_t nargs)
{
    ev.nargs = static_cast<std::uint8_t>(
        std::min<std::size_t>(nargs, maxArgs));
    for (unsigned i = 0; i < ev.nargs; ++i)
        ev.args[i] = args[i];
}

/** Emit a non-Begin event (instant / flow / End) on the right
 * stream, honoring the caps. End events are never dropped. */
void
emit(Event &ev)
{
    if (State *s = tlsCapture_) {
        if (s->buf.size() >= s->capacity &&
            ev.phase != Event::Phase::End) {
            ++s->nDropped;
            return;
        }
        stamp(*s, ev);
        if (ev.phase == Event::Phase::End) {
            ctg_assert(!s->openStack.empty() &&
                       s->openStack.back() == ev.id);
            s->openStack.pop_back();
            ev.parent =
                s->openStack.empty() ? 0 : s->openStack.back();
        }
        s->buf.push_back(ev);
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (collected_.size() >= collectorCap &&
        ev.phase != Event::Phase::End) {
        ++collectorDropped_;
        return;
    }
    stamp(globalStream_, ev);
    if (ev.phase == Event::Phase::End) {
        ctg_assert(!globalStream_.openStack.empty() &&
                   globalStream_.openStack.back() == ev.id);
        globalStream_.openStack.pop_back();
        ev.parent = globalStream_.openStack.empty()
                        ? 0
                        : globalStream_.openStack.back();
    }
    collected_.push_back(ev);
}

void
appendEscaped(std::string &out, const char *text)
{
    for (const char *p = text; *p != '\0'; ++p) {
        const char c = *p;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
appendEventJson(std::string &out, const Event &ev)
{
    const char *ph = "i";
    switch (ev.phase) {
      case Event::Phase::Begin:
        ph = "B";
        break;
      case Event::Phase::End:
        ph = "E";
        break;
      case Event::Phase::Instant:
        ph = "i";
        break;
      case Event::Phase::FlowBegin:
        ph = "s";
        break;
      case Event::Phase::FlowEnd:
        ph = "f";
        break;
    }

    char buf[160];
    out += "{\"name\":\"";
    appendEscaped(out, ev.name);
    out += "\",\"cat\":\"";
    out += flagName(ev.flag);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"%s\",\"pid\":1,\"tid\":%" PRIu32
                  ",\"ts\":%" PRIu64,
                  ph, ev.stream, ev.ts);
    out += buf;

    if (ev.phase == Event::Phase::FlowBegin ||
        ev.phase == Event::Phase::FlowEnd) {
        std::snprintf(buf, sizeof(buf), ",\"id\":%" PRIu64, ev.id);
        out += buf;
        if (ev.phase == Event::Phase::FlowEnd)
            out += ",\"bp\":\"e\"";
    }
    if (ev.phase == Event::Phase::Instant)
        out += ",\"s\":\"t\"";

    out += ",\"args\":{";
    bool first = true;
    if (ev.phase == Event::Phase::Begin) {
        std::snprintf(buf, sizeof(buf),
                      "\"span_id\":%" PRIu64 ",\"parent_span\":%" PRIu64,
                      ev.id, ev.parent);
        out += buf;
        first = false;
    }
    if (ev.tick != 0) {
        std::snprintf(buf, sizeof(buf), "%s\"tick\":%" PRIu64,
                      first ? "" : ",", ev.tick);
        out += buf;
        first = false;
    }
    std::snprintf(buf, sizeof(buf), "%s\"wall_us\":%" PRIu64,
                  first ? "" : ",", ev.wallUs);
    out += buf;
    for (unsigned i = 0; i < ev.nargs; ++i) {
        out += ",\"";
        appendEscaped(out, ev.args[i].key);
        std::snprintf(buf, sizeof(buf), "\":%" PRId64,
                      ev.args[i].value);
        out += buf;
    }
    out += "}}";
}

/** One-time CTG_TRACE_SPANS pickup: write the trace to the given
 * path at process exit. With no CTG_TRACE spec every flag is
 * enabled; a spec restricts the trace to the listed subsystems. */
struct EnvInit
{
    EnvInit()
    {
        const sim::EnvConfig env = sim::EnvConfig::fromEnv();
        if (!env.traceSpansPath.empty()) {
            setExportPath(env.traceSpansPath);
            if (env.traceSpec.empty())
                enableAll();
            else
                setFromString(env.traceSpec);
        }
    }
};

const EnvInit envInit_;

} // namespace

void
enable(TraceFlag flag)
{
    mask_.fetch_or(static_cast<std::uint32_t>(flag),
                   std::memory_order_relaxed);
}

void
disable(TraceFlag flag)
{
    mask_.fetch_and(~static_cast<std::uint32_t>(flag),
                    std::memory_order_relaxed);
}

void
enableAll()
{
    mask_.store(allFlagsMask(), std::memory_order_relaxed);
}

void
disableAll()
{
    mask_.store(0, std::memory_order_relaxed);
}

void
setFromString(const std::string &spec)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t end = spec.find_first_of(", ", pos);
        const std::string tok =
            spec.substr(pos, end == std::string::npos
                                 ? std::string::npos
                                 : end - pos);
        pos = end == std::string::npos ? spec.size() : end + 1;
        if (tok.empty())
            continue;
        if (tok == "All") {
            enableAll();
            continue;
        }
        TraceFlag flag;
        if (flagFromName(tok, &flag))
            enable(flag);
        else
            warn("unknown trace flag '%s' ignored", tok.c_str());
    }
}

const char *
flagName(TraceFlag flag)
{
    for (const FlagEntry &e : flagTable) {
        if (e.flag == flag)
            return e.name;
    }
    return "?";
}

bool
flagFromName(const std::string &name, TraceFlag *out)
{
    for (const FlagEntry &e : flagTable) {
        if (name == e.name) {
            *out = e.flag;
            return true;
        }
    }
    return false;
}

std::uint32_t
allFlagsMask()
{
    std::uint32_t mask = 0;
    for (const FlagEntry &e : flagTable)
        mask |= static_cast<std::uint32_t>(e.flag);
    return mask;
}

void
setTickSource(std::function<Tick()> source)
{
    tickSource_ = std::move(source);
}

void
clearTickSource()
{
    tickSource_ = nullptr;
}

Tick
currentTick()
{
    return tickSource_ ? tickSource_() : 0;
}

void
Scope::begin(TraceFlag flag, const char *name, const Arg *args,
             std::size_t nargs)
{
    flag_ = flag;
    name_ = name;

    Event ev;
    ev.phase = Event::Phase::Begin;
    ev.flag = flag;
    ev.name = name;
    copyArgs(ev, args, nargs);

    if (State *s = tlsCapture_) {
        if (s->buf.size() >= s->capacity) {
            ++s->nDropped;
            return; // stays inactive; the matching End never emits
        }
        id_ = makeId(*s);
        ev.id = id_;
        stamp(*s, ev);
        s->openStack.push_back(id_);
        s->buf.push_back(ev);
    } else {
        std::lock_guard<std::mutex> lock(mu_);
        if (collected_.size() >= collectorCap) {
            ++collectorDropped_;
            return;
        }
        id_ = makeId(globalStream_);
        ev.id = id_;
        stamp(globalStream_, ev);
        globalStream_.openStack.push_back(id_);
        collected_.push_back(ev);
    }
    active_ = true;
}

void
Scope::end()
{
    active_ = false;
    Event ev;
    ev.phase = Event::Phase::End;
    ev.flag = flag_;
    ev.name = name_;
    ev.id = id_;
    ev.nargs = nEndArgs_;
    ev.args = endArgs_;
    emit(ev);
}

void
instant(TraceFlag flag, const char *name,
        std::initializer_list<Arg> args)
{
    if (!enabled(flag))
        return;
    Event ev;
    ev.phase = Event::Phase::Instant;
    ev.flag = flag;
    ev.name = name;
    copyArgs(ev, args.begin(), args.size());
    emit(ev);
}

std::uint64_t
newFlowId()
{
    if (!anyEnabled())
        return 0;
    if (State *s = tlsCapture_)
        return makeId(*s);
    std::lock_guard<std::mutex> lock(mu_);
    return makeId(globalStream_);
}

void
flowBegin(TraceFlag flag, const char *name, std::uint64_t flow)
{
    if (flow == 0 || !enabled(flag))
        return;
    Event ev;
    ev.phase = Event::Phase::FlowBegin;
    ev.flag = flag;
    ev.name = name;
    ev.id = flow;
    emit(ev);
}

void
flowEnd(TraceFlag flag, const char *name, std::uint64_t flow)
{
    if (flow == 0 || !enabled(flag))
        return;
    Event ev;
    ev.phase = Event::Phase::FlowEnd;
    ev.flag = flag;
    ev.name = name;
    ev.id = flow;
    emit(ev);
}

Capture::Capture(std::uint32_t stream, std::size_t capacity)
    : state_(new State), prev_(tlsCapture_)
{
    state_->stream = stream;
    state_->capacity =
        capacity != 0 ? capacity : defaultCaptureCapacity;
    tlsCapture_ = state_;
}

Capture::~Capture()
{
    tlsCapture_ = prev_;
    if (state_->nDropped != 0) {
        std::lock_guard<std::mutex> lock(mu_);
        collectorDropped_ += state_->nDropped;
    }
    delete state_;
}

std::vector<Event>
Capture::take()
{
    std::vector<Event> out = std::move(state_->buf);
    state_->buf.clear();
    return out;
}

std::uint64_t
Capture::dropped() const
{
    return state_->nDropped;
}

std::uint32_t
reserveStreams(std::uint32_t count)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint32_t base = nextStream_;
    nextStream_ += count;
    return base;
}

void
publish(std::vector<Event> events)
{
    if (events.empty())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    // Ends bypass the cap only when their Begin made it in. A Begin
    // dropped at the cap poisons its span id so the matching End
    // vanishes with it — otherwise a full collector would publish
    // dangling Ends and unbalance the stream's B/E stack.
    std::unordered_set<std::uint64_t> droppedSpans;
    for (Event &ev : events) {
        if (ev.phase == Event::Phase::End &&
            droppedSpans.count(ev.id) != 0) {
            ++collectorDropped_;
            continue;
        }
        if (collected_.size() >= collectorCap &&
            ev.phase != Event::Phase::End) {
            if (ev.phase == Event::Phase::Begin)
                droppedSpans.insert(ev.id);
            ++collectorDropped_;
            continue;
        }
        collected_.push_back(ev);
    }
}

std::size_t
collectedCount()
{
    std::lock_guard<std::mutex> lock(mu_);
    return collected_.size();
}

std::uint64_t
droppedCount()
{
    std::lock_guard<std::mutex> lock(mu_);
    return collectorDropped_;
}

std::vector<Event>
collectedEvents()
{
    std::lock_guard<std::mutex> lock(mu_);
    return collected_;
}

std::string
exportJson()
{
    const std::vector<Event> events = collectedEvents();
    const std::uint64_t dropped = droppedCount();

    std::string out;
    out.reserve(events.size() * 96 + 256);
    out += "{\"traceEvents\":[";

    // One thread_name metadata record per track that has events.
    std::vector<std::uint32_t> streams;
    for (const Event &ev : events)
        streams.push_back(ev.stream);
    std::sort(streams.begin(), streams.end());
    streams.erase(std::unique(streams.begin(), streams.end()),
                  streams.end());
    bool first = true;
    char buf[160];
    for (const std::uint32_t stream : streams) {
        if (!first)
            out += ",";
        first = false;
        if (stream == 0) {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"thread_name\",\"ph\":\"M\","
                          "\"pid\":1,\"tid\":0,"
                          "\"args\":{\"name\":\"main\"}}");
        } else {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"thread_name\",\"ph\":\"M\","
                          "\"pid\":1,\"tid\":%" PRIu32
                          ",\"args\":{\"name\":\"srv-%" PRIu32 "\"}}",
                          stream, stream);
        }
        out += buf;
    }

    for (const Event &ev : events) {
        if (!first)
            out += ",\n";
        first = false;
        appendEventJson(out, ev);
    }
    std::snprintf(buf, sizeof(buf),
                  "],\"displayTimeUnit\":\"ms\","
                  "\"otherData\":{\"dropped_events\":%" PRIu64 "}}\n",
                  dropped);
    out += buf;
    return out;
}

bool
writeJson(const std::string &path)
{
    const std::string json = exportJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot open span trace file '%s'", path.c_str());
        return false;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (const std::uint64_t dropped = droppedCount())
        warn("span trace '%s' is truncated: %" PRIu64
             " events dropped at a capture or collector cap",
             path.c_str(), dropped);
    return true;
}

void
setExportPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    exportPath_ = path;
    if (!atexitRegistered_ && !exportPath_.empty()) {
        atexitRegistered_ = true;
        std::atexit(+[] {
            std::string path;
            {
                std::lock_guard<std::mutex> lock(mu_);
                path = exportPath_;
            }
            if (!path.empty())
                writeJson(path);
        });
    }
}

void
resetForTest()
{
    disableAll();
    std::lock_guard<std::mutex> lock(mu_);
    collected_.clear();
    collectorDropped_ = 0;
    globalStream_ = State{};
    nextStream_ = 1;
    exportPath_.clear();
    collectorCap = defaultCollectorCap;
}

void
setCollectorCapForTest(std::size_t cap)
{
    std::lock_guard<std::mutex> lock(mu_);
    collectorCap = cap != 0 ? cap : defaultCollectorCap;
}

} // namespace spans
} // namespace ctg
