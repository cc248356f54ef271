/**
 * @file
 * Figure 11: unmovable 2 MB blocks per workload, stock Linux vs
 * Contiguitas. Paper: Linux 19-42% (average 31%); Contiguitas at
 * most 9% (average 7%), confined in the unmovable region. Also
 * reports the Section 5.2 internal fragmentation of the unmovable
 * region (paper: ~22% of pages in its 2 MB blocks are free).
 *
 * Each (workload, system) cell is a *population* of servers — the
 * fleet's seed spreads intensities and uptimes, and the reported
 * share is the population mean — run in parallel by the fleet
 * executor. CTG_FIG11_POP sets servers per cell (default 8, i.e. a
 * 64-server study); CTG_THREADS sets the worker count. Output is
 * bit-identical at any thread count.
 */

#include "bench/bench_util.hh"
#include "kernel/migrate.hh"

using namespace ctg;

namespace
{

struct CellResult
{
    double unmovableShare = 0.0;     //!< mean of unmovableBlocks[2M]
    double unmovablePageRatio = 0.0; //!< mean unmovable page share
    double regionFreeShare = 0.0;    //!< mean Section 5.2 free share
    double wallMs = 0.0;
    unsigned threads = 1;
};

CellResult
runCell(WorkloadKind kind, bool contiguitas, unsigned pop,
        std::string *stats_json)
{
    Fleet::Config config;
    config.servers = pop;
    config.memBytes = std::uint64_t{2} << 30;
    config.policy.name = contiguitas ? "contiguitas" : "vanilla";
    config.workloadOverride = workloadKey(kind);
    config.minUptimeSec = 45.0;
    config.maxUptimeSec = 75.0;
    config.minIntensity = 0.7;
    config.maxIntensity = 1.3;
    config.prefragmentFrac = 0.25;
    config.seed = 0x11f1f1 ^
                  (static_cast<std::uint64_t>(kind) * 2 +
                   (contiguitas ? 1 : 0));
    config.applyEnvOverlay();

    std::string prefix = std::string(workloadName(kind)) +
                         (contiguitas ? ".ctg" : ".linux");
    for (char &c : prefix) {
        if (c == ' ')
            c = '_'; // "Cache A" -> "Cache_A"; spaces are not
                     // legal in stat names
    }
    config.useSnapshotSubdir(prefix);
    Fleet fleet(config);
    // Per-cell registry: the wall/thread gauges read live fleet
    // state, so dump before the fleet dies.
    StatRegistry registry;
    fleet.attachTelemetry(registry, prefix);
    bench::regFaultStats(registry);

    const auto scans = fleet.run();
    CellResult cell;
    for (const ServerScan &scan : scans) {
        cell.unmovableShare += scan.unmovableBlocks[0];
        cell.unmovablePageRatio += scan.unmovablePageRatio;
        cell.regionFreeShare += scan.unmovableRegionFreeShare;
    }
    const double n = static_cast<double>(scans.size());
    cell.unmovableShare /= n;
    cell.unmovablePageRatio /= n;
    cell.regionFreeShare /= n;
    cell.wallMs = fleet.lastRunWallMs();
    cell.threads = fleet.lastRunThreads();
    *stats_json += registry.jsonLines();
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner("Figure 11",
                  "Unmovable 2MB blocks: Linux vs Contiguitas");

    const WorkloadKind kinds[] = {WorkloadKind::CI, WorkloadKind::Web,
                                  WorkloadKind::CacheA,
                                  WorkloadKind::CacheB};
    const unsigned pop = sim::EnvConfig::fromEnv().fig11Population;
    std::printf("(population: %u servers per cell, %zu cells)\n",
                pop, 2 * std::size(kinds));

    Table table;
    table.header({"Workload", "Linux", "Contiguitas",
                  "Linux unmov pages", "Ctg region free share"});
    double linux_sum = 0.0;
    double ctg_sum = 0.0;
    double ctg_max = 0.0;
    double free_share_sum = 0.0;
    double wall_sum = 0.0;
    unsigned threads = 1;
    std::string stats_json;
    for (const WorkloadKind kind : kinds) {
        const CellResult linux_cell =
            runCell(kind, false, pop, &stats_json);
        const CellResult ctg_cell =
            runCell(kind, true, pop, &stats_json);
        linux_sum += linux_cell.unmovableShare;
        ctg_sum += ctg_cell.unmovableShare;
        ctg_max = std::max(ctg_max, ctg_cell.unmovableShare);
        free_share_sum += ctg_cell.regionFreeShare;
        wall_sum += linux_cell.wallMs + ctg_cell.wallMs;
        threads = linux_cell.threads;
        table.row({
            workloadName(kind),
            formatPercent(linux_cell.unmovableShare),
            formatPercent(ctg_cell.unmovableShare),
            formatPercent(linux_cell.unmovablePageRatio),
            formatPercent(ctg_cell.regionFreeShare),
        });
    }
    table.print();

    const double n = static_cast<double>(std::size(kinds));
    std::printf("\nAverages: Linux %.1f%% vs Contiguitas %.1f%% "
                "(max %.1f%%)   [paper: 31%% vs 7%% (max 9%%)]\n",
                100.0 * linux_sum / n, 100.0 * ctg_sum / n,
                100.0 * ctg_max);
    std::printf("Unmovable-region internal fragmentation: %.0f%% of "
                "pages free inside its 2MB blocks [paper: 22%%]\n",
                100.0 * free_share_sum / n);
    std::printf("\n[fleet] %u worker thread(s), total fleet wall "
                "%.0f ms across %u servers (set CTG_THREADS to "
                "change)\n",
                threads, wall_sum,
                pop * 2 * unsigned(std::size(kinds)));

    // Process-wide software-migration totals across every cell.
    StatRegistry totals;
    regMigrateStats(StatGroup(totals, "kernel.migrate"));
    stats_json += totals.jsonLines();
    bench::dumpText("per-cell fleet stats (JSON lines)", stats_json);
    return 0;
}
