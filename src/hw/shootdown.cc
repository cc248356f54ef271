#include "hw/shootdown.hh"

#include "base/span_trace.hh"

namespace ctg
{

ShootdownManager::ShootdownManager(EventQueue &eventq,
                                   const HwConfig &config,
                                   MemHierarchy &mem,
                                   std::vector<Mmu *> mmus)
    : eventq_(eventq), config_(config), mem_(mem),
      mmus_(std::move(mmus))
{}

Cycles
ShootdownManager::classicShootdownCost(unsigned victims) const
{
    // Per victim: IPI delivery, handler entry, INVLPG (with its
    // pipeline flush), acknowledgement — serialized at the
    // initiator, hence the linear scaling the paper measures.
    const Cycles per_victim = config_.ipiDeliverLat +
                              config_.ipiHandlerLat +
                              config_.invlpgCost + config_.ipiAckLat;
    return victims * per_victim;
}

void
ShootdownManager::regStats(StatGroup group) const
{
    group.gauge(
        "software_migrations",
        [this] { return double(stats_.softwareMigrations); },
        "completed classic shootdown+copy migrations");
    group.gauge(
        "contiguitas_migrations",
        [this] { return double(stats_.contiguitasMigrations); },
        "completed redirection-based migrations");
    group.gauge("ipis_sent",
                [this] { return double(stats_.ipisSent); });
    group.gauge(
        "unavailable_cycles",
        [this] { return double(stats_.unavailableCycles); },
        "summed page-unavailable window over all migrations");
    group.gauge("total_cycles",
                [this] { return double(stats_.totalCycles); },
                "summed end-to-end migration latency");
}

Cycles
ShootdownManager::copyPage(Pfn src, Pfn dst)
{
    // Move the data tokens functionally so correctness checks hold;
    // charge the cost of a pipelined kernel memcpy rather than 128
    // serialized misses (real copies keep many lines in flight).
    Cycles ignored = 0;
    for (unsigned idx = 0; idx < linesPerPage; ++idx) {
        const Addr off = static_cast<Addr>(idx) * lineBytes;
        const std::uint64_t v =
            mem_.busRdX(pfnToAddr(src) + off, &ignored);
        mem_.copyWrite(pfnToAddr(dst) + off, v, &ignored);
    }
    // ~20 cycles per line sustains the ~1300-cycle 4 KB copy the
    // paper reports.
    return linesPerPage * 20;
}

void
ShootdownManager::softwareMigrate(
    CoreId initiator, unsigned victims, Vpn vpn, PageTables &tables,
    Pfn dst, std::function<void(MigrationTiming)> done)
{
    ctg_assert(initiator < mmus_.size());
    ctg_assert(victims < mmus_.size());
    const Translation tr = tables.translate(vpn);
    ctg_assert(tr.valid && tr.order == 0);
    const Pfn src = tr.pfn;
    const std::uint32_t tag = tr.tag;

    auto timing = std::make_shared<MigrationTiming>();
    timing->start = eventq_.now();

    // The procedure runs as a chain of event-queue continuations; a
    // flow arrow ties this initiation slice to the completion slice.
    const std::uint64_t flow = spans::newFlowId();
    {
        CTG_SPAN(Shootdown, "shootdown.sw_migrate",
                 {{"vpn", static_cast<std::int64_t>(vpn)},
                  {"dst", static_cast<std::int64_t>(dst)},
                  {"victims", victims}});
        spans::flowBegin(TraceFlag::Shootdown, "shootdown.sw", flow);
    }

    // Step 1: clear the PTE — the page becomes unavailable.
    eventq_.schedule(config_.pteUpdateLat, [=, this, &tables] {
        CTG_SPAN(Shootdown, "shootdown.pte_clear_ipis",
                 {{"vpn", static_cast<std::int64_t>(vpn)},
                  {"victims", victims}});
        tables.unmap(vpn);
        timing->pteCleared = eventq_.now();

        // Step 2: initiator invalidates its own TLB.
        const Cycles local = mmus_[initiator]->invlpg(vpn);

        // Steps 3-5: IPI each victim; handler INVLPGs and acks.
        Cycles shoot = 0;
        for (unsigned v = 0; v < victims; ++v) {
            const CoreId victim = (initiator + 1 + v) %
                                  static_cast<CoreId>(mmus_.size());
            shoot += config_.ipiDeliverLat + config_.ipiHandlerLat;
            shoot += mmus_[victim]->invlpg(vpn);
            shoot += config_.ipiAckLat;
            ++stats_.ipisSent;
        }

        eventq_.schedule(local + shoot, [=, this, &tables] {
            timing->shootdownDone = eventq_.now();

            // Step 6: copy the page.
            Cycles copy_cost = 0;
            {
                CTG_SPAN(Shootdown, "shootdown.copy_page",
                         {{"src", static_cast<std::int64_t>(src)},
                          {"dst", static_cast<std::int64_t>(dst)}});
                copy_cost = copyPage(src, dst);
            }
            eventq_.schedule(copy_cost, [=, this, &tables] {
                timing->copyDone = eventq_.now();

                // Step 7: update the PTE — available again.
                eventq_.schedule(config_.pteUpdateLat,
                                 [=, this, &tables] {
                    tables.map(vpn, dst, 0, tag);
                    timing->pteUpdated = eventq_.now();
                    timing->unavailableCycles =
                        timing->pteUpdated - timing->pteCleared;
                    timing->totalCycles =
                        timing->pteUpdated - timing->start;
                    ++stats_.softwareMigrations;
                    stats_.unavailableCycles +=
                        timing->unavailableCycles;
                    stats_.totalCycles += timing->totalCycles;
                    {
                        CTG_SPAN(
                            Shootdown, "shootdown.sw_complete",
                            {{"vpn", static_cast<std::int64_t>(vpn)},
                             {"total_cycles",
                              static_cast<std::int64_t>(
                                  timing->totalCycles)},
                             {"unavailable_cycles",
                              static_cast<std::int64_t>(
                                  timing->unavailableCycles)}});
                        spans::flowEnd(TraceFlag::Shootdown,
                                       "shootdown.sw", flow);
                    }
                    done(*timing);
                });
            });
        });
    });
}

void
ShootdownManager::contiguitasMigrate(
    CoreId initiator, Vpn vpn, PageTables &tables, Pfn dst,
    ChwMode mode, ChwEngine &engine,
    std::function<void(MigrationTiming)> done)
{
    ctg_assert(initiator < mmus_.size());
    const Translation tr = tables.translate(vpn);
    ctg_assert(tr.valid && tr.order == 0);
    const Pfn src = tr.pfn;
    const std::uint32_t tag = tr.tag;

    auto timing = std::make_shared<MigrationTiming>();
    timing->start = eventq_.now();
    // The page is never unavailable: both mappings stay serviceable
    // through LLC redirection for the whole procedure.
    timing->pteCleared = eventq_.now();
    timing->pteUpdated = eventq_.now();

    const bool cacheable = mode == ChwMode::Cacheable;

    ChwEngine::Descriptor desc;
    desc.src = src;
    desc.dst = dst;
    desc.mode = mode;
    desc.startCopyNow = !cacheable;
    desc.onComplete = [timing, done, src, &engine, this] {
        timing->copyDone = eventq_.now();
        // The OS notices the completion flag at the next natural
        // kernel entry and issues the Clear command.
        eventq_.schedule(config_.kernelEntryPeriod / 2,
                         [timing, done, src, &engine, this] {
            engine.clear(src);
            auto t = *timing;
            t.totalCycles = eventq_.now() - t.start;
            t.unavailableCycles = 0;
            ++stats_.contiguitasMigrations;
            stats_.totalCycles += t.totalCycles;
            done(t);
        });
    };

    // ENQCMD submission, then immediate PTE flip: redirection keeps
    // both mappings live, so no synchronization is needed.
    eventq_.schedule(ChwEngine::enqcmdCost + config_.pteUpdateLat,
                     [=, this, &tables, &engine] {
        const bool installed = engine.submitMigrate(desc);
        ctg_assert(installed);
        tables.unmap(vpn);
        tables.map(vpn, dst, 0, tag);

        // Lazy local invalidations: each core INVLPGs at its next
        // natural kernel entry — no IPIs, no synchronous acks.
        Tick lazy_span = 0;
        for (unsigned c = 0; c < mmus_.size(); ++c) {
            const Tick entry_delay =
                (c + 1) * (config_.kernelEntryPeriod /
                           static_cast<Tick>(mmus_.size()));
            lazy_span = std::max(lazy_span, entry_delay);
            eventq_.schedule(entry_delay, [this, c, vpn] {
                mmus_[c]->invlpg(vpn);
            });
        }

        if (cacheable) {
            // Phase 2: the copy starts once every TLB switched to
            // the destination mapping.
            eventq_.schedule(lazy_span + 1, [=, &engine] {
                engine.startCopy(src);
            });
        }
    });
}

} // namespace ctg
