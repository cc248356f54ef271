/**
 * @file
 * Figure 4: CDF across the fleet of free-memory contiguity at the
 * 2 MB / 4 MB / 32 MB / 1 GB allocation levels, on vanilla Linux.
 * Headline numbers: the share of servers without a single free 2 MB
 * block (paper: 23%) and without a 32 MB block (paper: 59%).
 */

#include "bench/bench_util.hh"

using namespace ctg;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner("Figure 4",
                  "Contiguity availability as a percentage of free "
                  "memory (fleet CDF, vanilla Linux)");

    Fleet fleet(bench::standardFleet("vanilla"));
    StatRegistry registry;
    fleet.attachTelemetry(registry);
    bench::regFaultStats(registry);
    const auto scans = fleet.run();

    OnlineHistogram cdfs[4];
    unsigned no_2m = 0;
    unsigned no_32m = 0;
    unsigned no_1g = 0;
    for (const ServerScan &scan : scans) {
        for (int i = 0; i < 4; ++i)
            cdfs[i].add(scan.freeContiguity[i] * 100.0);
        no_2m += scan.freeContiguity[0] == 0.0;
        no_32m += scan.freeContiguity[2] == 0.0;
        no_1g += scan.freeContiguity[3] == 0.0;
    }

    Table table("CDF of servers vs contiguity (% of free memory)");
    std::vector<double> thresholds = {0, 2, 5, 10, 15, 20, 25, 30,
                                      50, 80};
    std::vector<std::string> header = {"Block size"};
    for (const double x : thresholds)
        header.push_back("<=" + cell(x, 0) + "%");
    table.header(header);
    const char *labels[4] = {"2MB", "4MB", "32MB", "1GB"};
    for (int i = 0; i < 4; ++i)
        bench::printCdfRows(table, labels[i], thresholds, cdfs[i]);
    table.print();

    const double n = static_cast<double>(scans.size());
    std::printf("\nServers lacking even one free block:  2MB: %.0f%%"
                "   32MB: %.0f%%   1GB: %.0f%%\n",
                100.0 * no_2m / n, 100.0 * no_32m / n,
                100.0 * no_1g / n);
    std::printf("(paper: 23%% of servers lack a free 2MB block, 59%% "
                "lack 32MB; dynamic 1GB allocation is practically "
                "impossible)\n");
    bench::printFleetWall(fleet);
    bench::dumpStats(registry, "fleet stats (JSON lines)");
    return 0;
}
