/**
 * @file
 * The design-choice matrix: placement policies × workloads × machine
 * shapes, swept from one invocation.
 *
 * Every registered policy (vanilla, contiguitas, contiguitas-nobias,
 * zone-movable, plus anything tests or forks add) runs against every
 * selected workload profile — the paper's six production services
 * and the Mansi-&-Swift aging profiles — on every machine shape, as
 * a small fleet per cell. Each cell prints one table row and emits
 * one JSON line, so CI artifacts carry the whole matrix in
 * machine-readable form. Cell rows contain only simulation results
 * (no wall clocks), making the output bit-identical at any
 * CTG_THREADS; the wall clock is dumped separately.
 *
 * Flags:
 *   --policies  csv of registry names, or "all" (default)
 *   --workloads csv of workloadKey names, "paper" (the six
 *               production profiles) or "all" (default)
 *   --shapes    csv of machine sizes in MiB (default "512,1024")
 *   --servers   servers per cell (default 12)
 */

#include <algorithm>

#include "bench/bench_util.hh"
#include "mem/mem_stats.hh"

using namespace ctg;

namespace
{

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        if (!item.empty())
            out.push_back(item);
        pos = comma + 1;
    }
    return out;
}

std::vector<std::string>
selectPolicies(const std::string &flag)
{
    std::vector<std::string> names;
    if (flag == "all" || flag.empty()) {
        for (const PolicyRegistry::Entry &entry :
             PolicyRegistry::instance().entries())
            names.push_back(entry.name);
        return names;
    }
    for (const std::string &spec : splitCsv(flag)) {
        const std::string name = spec.substr(0, spec.find(':'));
        if (!PolicyRegistry::instance().has(name)) {
            std::fprintf(stderr, "unknown policy '%s' (try --list)\n",
                         name.c_str());
            std::exit(2);
        }
        names.push_back(spec);
    }
    return names;
}

std::vector<WorkloadKind>
selectWorkloads(const std::string &flag)
{
    std::vector<WorkloadKind> kinds;
    if (flag == "all" || flag.empty()) {
        for (unsigned k = 0; k < numWorkloadKinds; ++k)
            kinds.push_back(static_cast<WorkloadKind>(k));
        return kinds;
    }
    if (flag == "paper") {
        for (unsigned k = 0; k <= unsigned(WorkloadKind::Memcached);
             ++k)
            kinds.push_back(static_cast<WorkloadKind>(k));
        return kinds;
    }
    for (const std::string &name : splitCsv(flag)) {
        WorkloadKind kind = WorkloadKind::Web;
        if (!parseWorkloadKind(name, &kind)) {
            std::fprintf(stderr,
                         "unknown workload '%s' (try --list)\n",
                         name.c_str());
            std::exit(2);
        }
        kinds.push_back(kind);
    }
    return kinds;
}

struct CellResult
{
    double unmovableBlocks2m = 0.0;
    double freeContiguity2m = 0.0;
    double unmovablePageRatio = 0.0;
};

/** Run one matrix cell: a small single-workload fleet under the
 * given policy on the given machine shape; report population means. */
CellResult
runCell(const std::string &policySpec, WorkloadKind kind,
        std::uint64_t mem_mib, unsigned servers)
{
    Fleet::Config config;
    config.servers = servers;
    config.memBytes = mem_mib << 20;
    if (!parsePolicySpec(policySpec, &config.policy)) {
        std::fprintf(stderr, "unknown policy '%s' (try --list)\n",
                     policySpec.c_str());
        std::exit(2);
    }
    config.workloadOverride = workloadKey(kind);
    config.minUptimeSec = 6.0;
    config.maxUptimeSec = 14.0;
    config.minIntensity = 0.7;
    config.maxIntensity = 1.3;
    config.prefragmentFrac = 0.25;
    config.seed = 0xab1a710;
    config.applyEnvOverlay();
    config.useSnapshotSubdir(policySpec + "/" + workloadKey(kind) +
                             "/" + std::to_string(mem_mib));

    Fleet fleet(config);
    const std::vector<ServerScan> scans = fleet.run();

    CellResult cell;
    for (const ServerScan &scan : scans) {
        cell.unmovableBlocks2m += scan.unmovableBlocks[0];
        cell.freeContiguity2m += scan.freeContiguity[0];
        cell.unmovablePageRatio += scan.unmovablePageRatio;
    }
    const double n = std::max<std::size_t>(scans.size(), 1);
    cell.unmovableBlocks2m /= n;
    cell.freeContiguity2m /= n;
    cell.unmovablePageRatio /= n;
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string policiesFlag = "all";
    std::string workloadsFlag = "all";
    std::string shapesFlag = "512,1024";
    std::string serversFlag = "12";
    bench::parseArgs(
        argc, argv,
        {{"policies", &policiesFlag,
          "csv of policy names, or 'all' (default)"},
         {"workloads", &workloadsFlag,
          "csv of workload names, 'paper' or 'all' (default)"},
         {"shapes", &shapesFlag,
          "csv of machine sizes in MiB (default 512,1024)"},
         {"servers", &serversFlag,
          "servers per matrix cell (default 12)"}});

    const std::vector<std::string> policies =
        selectPolicies(policiesFlag);
    const std::vector<WorkloadKind> workloads =
        selectWorkloads(workloadsFlag);
    std::vector<std::uint64_t> shapes;
    for (const std::string &item : splitCsv(shapesFlag))
        shapes.push_back(bench::flagU64(item, "shapes"));
    const unsigned servers = static_cast<unsigned>(
        bench::flagU64(serversFlag, "servers"));
    if (shapes.empty() || servers == 0) {
        std::fprintf(stderr, "need at least one shape and server\n");
        return 2;
    }

    bench::banner("Ablation matrix",
                  "policies x workloads x machine shapes");
    std::printf("%zu policies x %zu workloads x %zu shapes, "
                "%u servers per cell\n",
                policies.size(), workloads.size(), shapes.size(),
                servers);

    bench::WallTimer wall;
    std::string json;
    Table table("matrix cells (population means)");
    table.header({"Policy", "Workload", "MiB", "Unmov 2M blocks",
                  "Free contig 2M", "Unmov page ratio"});
    for (const std::string &policy : policies) {
        for (const WorkloadKind kind : workloads) {
            for (const std::uint64_t mib : shapes) {
                const CellResult res =
                    runCell(policy, kind, mib, servers);
                table.row({policy, workloadKey(kind), cell(mib),
                           formatPercent(res.unmovableBlocks2m),
                           formatPercent(res.freeContiguity2m),
                           formatPercent(res.unmovablePageRatio)});
                char line[256];
                std::snprintf(
                    line, sizeof(line),
                    "{\"name\":\"ablation.cell\",\"policy\":\"%s\","
                    "\"workload\":\"%s\",\"mem_mib\":%llu,"
                    "\"servers\":%u,\"unmovable_blocks_2m\":%.6f,"
                    "\"free_contiguity_2m\":%.6f,"
                    "\"unmovable_page_ratio\":%.6f}\n",
                    policy.c_str(), workloadKey(kind),
                    static_cast<unsigned long long>(mib), servers,
                    res.unmovableBlocks2m, res.freeContiguity2m,
                    res.unmovablePageRatio);
                json += line;
            }
        }
    }
    table.print();
    bench::dumpText("matrix cells (JSON lines)", json);
    bench::dumpWallMs(wall.ms());
    std::printf("\n[matrix] %zu cells, wall %.0f ms\n",
                policies.size() * workloads.size() * shapes.size(),
                wall.ms());
    return 0;
}
