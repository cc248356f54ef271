/**
 * @file
 * Figure 12: potential memory contiguity — the fraction of memory a
 * hypothetically perfect software compaction could consolidate into
 * 2 MB / 32 MB / 1 GB regions. On vanilla Linux scattered unmovable
 * pages cap this well below 100% and make 1 GB unreachable; under
 * Contiguitas the whole movable region is recoverable by design.
 */

#include <chrono>
#include <optional>
#include <vector>

#include "base/span_trace.hh"
#include "bench/bench_util.hh"
#include "fleet/server.hh"

using namespace ctg;

namespace
{

ServerScan
runOne(WorkloadKind kind, bool contiguitas)
{
    Server::Config config;
    // 8 GiB machines so the 1 GB granularity has enough blocks.
    config.memBytes = std::uint64_t{8} << 30;
    config.policy.name = contiguitas ? "contiguitas" : "vanilla";
    config.kind = kind;
    config.uptimeSec = 50.0;
    config.seed = 0x12f1;
    Server server(config);
    return server.run();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner("Figure 12",
                  "Potential contiguity after perfect compaction "
                  "(% of total memory)");

    const WorkloadKind kinds[] = {WorkloadKind::CI, WorkloadKind::Web,
                                  WorkloadKind::CacheA,
                                  WorkloadKind::CacheB};

    // The eight (workload, system) cells are independent servers:
    // run them through the work-stealing executor, collect into
    // per-cell slots, and print in cell order. Each cell's spans go
    // to its own capture on track base + i and are published in cell
    // order, so output and span trace are identical at any
    // CTG_THREADS.
    const auto wallStart = std::chrono::steady_clock::now();
    Executor executor;
    std::vector<ServerScan> cells(2 * std::size(kinds));
    FaultInjector &ambient = faultInjector();
    std::vector<FaultInjector> cellFaults(cells.size(),
                                          FaultInjector(0));
    const bool spansOn = spans::anyEnabled();
    const std::uint32_t streamBase =
        spansOn ? spans::reserveStreams(
                      static_cast<std::uint32_t>(cells.size()))
                : 0;
    std::vector<std::vector<spans::Event>> cellSpans(cells.size());
    executor.run(cells.size(), [&](std::size_t i) {
        std::optional<spans::Capture> capture;
        if (spansOn)
            capture.emplace(streamBase + static_cast<std::uint32_t>(i));
        cellFaults[i] = ambient.forkForTask(i);
        const FaultInjectorScope scope(cellFaults[i]);
        cells[i] = runOne(kinds[i / 2], /*contiguitas=*/i % 2 == 1);
        if (capture)
            cellSpans[i] = capture->take();
    });
    for (std::size_t i = 0; i < cells.size(); ++i) {
        spans::publish(std::move(cellSpans[i]));
        ambient.absorbStats(cellFaults[i]);
    }
    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wallStart)
            .count();

    Table table;
    table.header({"Workload", "System", "2M", "32M", "1G"});
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
        const ServerScan &linux_scan = cells[2 * k];
        const ServerScan &ctg_scan = cells[2 * k + 1];
        table.row({workloadName(kinds[k]), "Linux",
                   formatPercent(linux_scan.potentialContiguity[0]),
                   formatPercent(linux_scan.potentialContiguity[1]),
                   formatPercent(linux_scan.potentialContiguity[2])});
        table.row({"", "Contiguitas",
                   formatPercent(ctg_scan.potentialContiguity[0]),
                   formatPercent(ctg_scan.potentialContiguity[1]),
                   formatPercent(ctg_scan.potentialContiguity[2])});
    }
    table.print();
    std::printf("\n[executor] %u worker thread(s), wall %.0f ms for "
                "%zu cells (set CTG_THREADS to change)\n",
                executor.threads(), wallMs, cells.size());

    std::printf("\nShape check: Linux degrades sharply toward 1G "
                "(paper: no 1G region at all);\nContiguitas keeps "
                "the whole movable region recoverable at every "
                "granularity.\n");
    return 0;
}
