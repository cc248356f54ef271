#include "hw/chw/engine.hh"

#include "base/span_trace.hh"
#include "sim/fault_injector.hh"

namespace ctg
{

ChwEngine::ChwEngine(EventQueue &eventq, MemHierarchy &mem)
    : eventq_(eventq), mem_(mem)
{}

bool
ChwEngine::submitMigrate(Descriptor desc)
{
    ctg_assert(desc.src != invalidPfn && desc.dst != invalidPfn);

    CTG_SPAN_NAMED(span, ChwEngine, "chw.submit",
                   {{"src", static_cast<std::int64_t>(desc.src)},
                    {"dst", static_cast<std::int64_t>(desc.dst)},
                    {"pages", desc.sizePages},
                    {"cacheable",
                     desc.mode == ChwMode::Cacheable ? 1 : 0}});

    // Injected install failure: the descriptor is rejected before
    // anything is installed, exactly like a full metadata table, so
    // the OS fallback path (software migration) takes over.
    if (faultInjector().shouldFail(FaultSite::ChwInstallFail)) {
        ++stats_.installsRejected;
        span.arg("rejected", 1);
        return false;
    }

    MigrationEntry *entry = mem_.migrationTable().install(
        desc.src, desc.dst, desc.mode, desc.sizePages);
    if (entry == nullptr) {
        ++stats_.installsRejected;
        span.arg("rejected", 1);
        return false;
    }

    RunState state;
    state.startTick = eventq_.now();
    // The copy proceeds through event-queue hops the call tree
    // cannot link; a flow arrow ties this submit slice to the
    // completion (or abort) slice.
    state.flowId = spans::newFlowId();
    spans::flowBegin(TraceFlag::ChwEngine, "chw.migration",
                     state.flowId);
    state.onComplete = std::move(desc.onComplete);
    state.onAbort = std::move(desc.onAbort);
    running_[desc.src] = std::move(state);
    ++stats_.migrationsStarted;

    if (desc.startCopyNow)
        startCopy(desc.src);
    return true;
}

void
ChwEngine::startCopy(Pfn src)
{
    CTG_SPAN(ChwEngine, "chw.start_copy",
             {{"src", static_cast<std::int64_t>(src)}});
    MigrationEntry *entry = mem_.migrationTable().findBySrc(src);
    ctg_assert(entry != nullptr);
    ctg_assert(!entry->copying && !entry->copyDone);
    entry->copying = true;
    auto it = running_.find(src);
    ctg_assert(it != running_.end());
    it->second.startTick = eventq_.now();
    it->second.currentSlice =
        mem_.sliceOf(pfnToAddr(entry->srcPpn));
    eventq_.schedule(mem_.config().chwLat,
                     [this, src] { copyNextLine(src); },
                     EventPriority::HardwareResponse);
}

void
ChwEngine::finishCopy(Pfn src, MigrationEntry &entry)
{
    entry.copying = false;
    entry.copyDone = true;
    auto it = running_.find(src);
    ctg_assert(it != running_.end());
    stats_.lastCopyCycles = eventq_.now() - it->second.startTick;
    ++stats_.migrationsCompleted;
    {
        CTG_SPAN(ChwEngine, "chw.complete",
                 {{"src", static_cast<std::int64_t>(src)},
                  {"cycles", static_cast<std::int64_t>(
                                 stats_.lastCopyCycles)}});
        spans::flowEnd(TraceFlag::ChwEngine, "chw.migration",
                       it->second.flowId);
    }
    if (it->second.onComplete)
        it->second.onComplete();
    running_.erase(it);
}

void
ChwEngine::abortRun(Pfn src)
{
    auto it = running_.find(src);
    if (it == running_.end())
        return;
    ++stats_.migrationsAborted;
    {
        CTG_SPAN(ChwEngine, "chw.abort",
                 {{"src", static_cast<std::int64_t>(src)}});
        spans::flowEnd(TraceFlag::ChwEngine, "chw.migration",
                       it->second.flowId);
    }
    // Detach before invoking: the callback may resubmit this page.
    auto on_abort = std::move(it->second.onAbort);
    running_.erase(it);
    if (on_abort)
        on_abort();
}

void
ChwEngine::copyNextLine(Pfn src)
{
    MigrationEntry *entry = mem_.migrationTable().findBySrc(src);
    if (entry == nullptr || !entry->copying) {
        // The OS cleared the mapping mid-copy. Account the abort and
        // tell the OS instead of erasing the run silently —
        // migrations_started must always reconcile with
        // completed + aborted + in-flight.
        abortRun(src);
        return;
    }

    // Injected engine fault mid-copy: drop the mapping and abort, as
    // if the OS had cleared it under the engine.
    if (faultInjector().shouldFail(FaultSite::ChwMidcopyAbort)) {
        mem_.migrationTable().clear(src);
        abortRun(src);
        return;
    }

    const unsigned total_lines =
        entry->sizePages * static_cast<unsigned>(linesPerPage);
    if (entry->ptr >= total_lines) {
        finishCopy(src, *entry);
        return;
    }

    const unsigned idx = entry->ptr;
    const Addr off = static_cast<Addr>(idx) * lineBytes;
    const Addr src_line = pfnToAddr(entry->srcPpn) + off;
    const Addr dst_line = pfnToAddr(entry->dstPpn) + off;

    Cycles cost = mem_.config().chwCopyPerLine;
    auto it = running_.find(src);
    ctg_assert(it != running_.end());
    RunState &state = it->second;

    // Slice handoff: the copy proceeds in line order, and the slice
    // owning the next source line takes over when it changes.
    const unsigned src_home = mem_.sliceOf(src_line);
    if (src_home != state.currentSlice) {
        cost += mem_.ringLat(state.currentSlice, src_home);
        state.currentSlice = src_home;
        ++stats_.sliceHandoffs;
    }

    const bool skip =
        entry->mode == ChwMode::Cacheable &&
        mem_.lineModifiedInPrivate(dst_line);
    if (skip) {
        // Destination already holds newer data (Modified in a
        // private cache); copying would roll it back.
        ++stats_.linesSkippedDirty;
    } else {
        // The engine keeps several lines in flight; chwCopyPerLine
        // is the calibrated steady-state cost per line rather than
        // the serialized BusRdX + Write round trips.
        const std::uint64_t value = mem_.busRdX(src_line, nullptr);
        mem_.copyWrite(dst_line, value, nullptr);
        const unsigned dst_home = mem_.sliceOf(dst_line);
        if (dst_home != src_home) {
            // Write + Ack across the ring (Figure 9 steps 2-3).
            cost += 2 * mem_.ringLat(src_home, dst_home);
            ++stats_.crossSliceWrites;
        }
        ++stats_.linesCopied;
    }

    ++entry->ptr;
    eventq_.schedule(cost, [this, src] { copyNextLine(src); },
                     EventPriority::HardwareResponse);
}

void
ChwEngine::clear(Pfn src)
{
    mem_.migrationTable().clear(src);
    // Clearing after completion is the normal teardown (the run is
    // already gone); clearing while the run exists aborts it.
    abortRun(src);
}

void
ChwEngine::regStats(StatGroup group) const
{
    group.gauge(
        "migrations_started",
        [this] { return double(stats_.migrationsStarted); });
    group.gauge(
        "migrations_completed",
        [this] { return double(stats_.migrationsCompleted); });
    group.gauge(
        "migrations_aborted",
        [this] { return double(stats_.migrationsAborted); },
        "migrations ended by Clear or fault before completion");
    group.gauge(
        "installs_rejected",
        [this] { return double(stats_.installsRejected); },
        "Migrate descriptors rejected at submission");
    group.gauge(
        "migrations_in_flight",
        [this] { return double(running_.size()); },
        "installed and neither completed nor aborted");
    group.gauge("lines_copied",
                [this] { return double(stats_.linesCopied); });
    group.gauge(
        "lines_skipped_dirty",
        [this] { return double(stats_.linesSkippedDirty); },
        "destination lines left alone: Modified in a private cache");
    group.gauge("slice_handoffs",
                [this] { return double(stats_.sliceHandoffs); });
    group.gauge(
        "cross_slice_writes",
        [this] { return double(stats_.crossSliceWrites); },
        "lines whose source and destination homes differ");
    group.gauge("last_copy_cycles",
                [this] { return double(stats_.lastCopyCycles); },
                "duration of the most recent completed copy");
}

} // namespace ctg
