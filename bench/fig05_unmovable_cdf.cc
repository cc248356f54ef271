/**
 * @file
 * Figure 5: fleet CDF of the share of 2 MB / 4 MB / 32 MB / 1 GB
 * blocks containing unmovable pages, plus the Section 2.5 scattering
 * headline: a median ~7.6% of 4 KB pages are unmovable yet they
 * contaminate ~34% of 2 MB blocks.
 */

#include <algorithm>

#include "bench/bench_util.hh"

using namespace ctg;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner("Figure 5",
                  "Distribution of unmovable pages in contiguous "
                  "regions (fleet CDF, vanilla Linux)");

    Fleet fleet(bench::standardFleet("vanilla"));
    StatRegistry registry;
    fleet.attachTelemetry(registry);
    bench::regFaultStats(registry);
    const auto scans = fleet.run();

    OnlineHistogram cdfs[4];
    std::vector<double> page_ratios;
    std::vector<double> block_ratios;
    for (const ServerScan &scan : scans) {
        for (int i = 0; i < 4; ++i)
            cdfs[i].add(scan.unmovableBlocks[i] * 100.0);
        page_ratios.push_back(scan.unmovablePageRatio * 100.0);
        block_ratios.push_back(scan.unmovableBlocks[0] * 100.0);
    }

    Table table("CDF of servers vs % of blocks containing unmovable "
                "pages");
    std::vector<double> thresholds = {5, 10, 20, 30, 40, 60, 80, 100};
    std::vector<std::string> header = {"Block size"};
    for (const double x : thresholds)
        header.push_back("<=" + cell(x, 0) + "%");
    table.header(header);
    const char *labels[4] = {"2MB", "4MB", "32MB", "1GB"};
    for (int i = 0; i < 4; ++i)
        bench::printCdfRows(table, labels[i], thresholds, cdfs[i]);
    table.print();

    std::sort(page_ratios.begin(), page_ratios.end());
    std::sort(block_ratios.begin(), block_ratios.end());
    const double median_pages = page_ratios[page_ratios.size() / 2];
    const double median_blocks =
        block_ratios[block_ratios.size() / 2];
    std::printf("\nMedian unmovable 4KB pages: %.1f%% of all pages\n",
                median_pages);
    std::printf("Median 2MB blocks contaminated: %.1f%% "
                "(scattering amplification %.1fx)\n",
                median_blocks, median_blocks / median_pages);
    std::printf("(paper: 7.6%% of pages make 34%% of 2MB blocks "
                "unmovable, ~4.5x)\n");
    bench::printFleetWall(fleet);
    bench::dumpStats(registry, "fleet stats (JSON lines)");
    return 0;
}
