/**
 * @file
 * Fleet study: sample a population of simulated servers running
 * mixed production-like workloads, scan every machine, and print a
 * Section 2-style fragmentation report — then repeat the exercise
 * with Contiguitas kernels to see the fleet-wide effect.
 *
 * Usage: fleet_study [num_servers]
 *
 * Under CTG_CHECKPOINT=<dir> / CTG_RESTORE=<dir> each fleet keeps its
 * own snapshot set, in <dir>/vanilla and <dir>/contiguitas.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/stats.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "fleet/fleet.hh"

using namespace ctg;

namespace
{

struct Summary
{
    double medianUnmovPages = 0;
    double medianUnmov2m = 0;
    double fracNoFree2m = 0;
    double medianPotential32m = 0;
};

Summary
summarize(const std::vector<ServerScan> &scans)
{
    OnlineHistogram unmov_pages;
    OnlineHistogram unmov_2m;
    OnlineHistogram pot_32m;
    unsigned no_free_2m = 0;
    for (const ServerScan &scan : scans) {
        unmov_pages.add(scan.unmovablePageRatio);
        unmov_2m.add(scan.unmovableBlocks[0]);
        pot_32m.add(scan.potentialContiguity[1]);
        no_free_2m += scan.free2mBlocks == 0;
    }
    Summary s;
    s.medianUnmovPages = unmov_pages.quantile(0.5);
    s.medianUnmov2m = unmov_2m.quantile(0.5);
    s.fracNoFree2m = static_cast<double>(no_free_2m) /
                     static_cast<double>(scans.size());
    s.medianPotential32m = pot_32m.quantile(0.5);
    return s;
}

/** Run one fleet under `policy`, checkpointing to / restoring from
 * that policy's subdirectory of the configured snapshot dirs. */
std::vector<ServerScan>
runFleet(Fleet::Config config, const std::string &policy)
{
    config.policy.name = policy;
    config.useSnapshotSubdir(policy);
    return Fleet(config).run();
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned servers =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 24;

    Fleet::Config config;
    config.servers = servers;
    config.memBytes = 2_GiB;
    config.minUptimeSec = 25.0;
    config.maxUptimeSec = 80.0;
    config.seed = 0xf1ee7;
    // Honor CTG_THREADS / CTG_CHECKPOINT / CTG_RESTORE etc., like
    // the bench binaries do. The printed report is bit-identical
    // whatever these knobs say, which CI's round-trip smoke diffs.
    config.applyEnvOverlay();

    std::printf("sampling %u vanilla servers ...\n", servers);
    const auto linux_scans = runFleet(config, "vanilla");

    std::printf("sampling %u Contiguitas servers ...\n\n", servers);
    const auto ctg_scans = runFleet(config, "contiguitas");

    const Summary lx = summarize(linux_scans);
    const Summary cg = summarize(ctg_scans);

    Table table("fleet fragmentation report (" +
                std::to_string(servers) + " servers each)");
    table.header({"Metric (median)", "Linux", "Contiguitas"});
    table.row({"Unmovable 4KB pages",
               formatPercent(lx.medianUnmovPages),
               formatPercent(cg.medianUnmovPages)});
    table.row({"Contaminated 2MB blocks",
               formatPercent(lx.medianUnmov2m),
               formatPercent(cg.medianUnmov2m)});
    table.row({"Servers without a free 2MB block",
               formatPercent(lx.fracNoFree2m),
               formatPercent(cg.fracNoFree2m)});
    table.row({"Potential 32MB contiguity",
               formatPercent(lx.medianPotential32m),
               formatPercent(cg.medianPotential32m)});
    table.print();

    std::printf("\nWorkloads can land on any server: with "
                "Contiguitas the whole fleet offers huge-page "
                "contiguity,\nso no more automatic reboots to "
                "defragment critical hosts.\n");
    return 0;
}
