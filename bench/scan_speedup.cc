/**
 * @file
 * Scan-path microbenchmark: the full fleet metric set (ServerScan —
 * free contiguity at four orders, unmovable-block fractions,
 * potential contiguity, per-source attribution, free/aligned-block
 * counts) computed by the linear scan::reference loops
 * (Server::referenceScan) vs read through MemStats from the
 * incremental ContigIndex (Server::scan; DESIGN.md §11).
 *
 * The rig mirrors the Figure 11 population sampling: fig11-style
 * fragmented 2 GiB servers, each scanned many times per run the way
 * the fleet studies sample populations. The reference loops are the
 * audit oracle of the index, so both must produce bit-identical
 * ServerScan values; the benchmark verifies that on every server
 * before timing is reported.
 *
 * `--json BENCH_scan.json` dumps machine-readable results (keys
 * `bench_scan.*`) for the CI artifact.
 */

#include <chrono>
#include <cstring>

#include "bench/bench_util.hh"
#include "fleet/server.hh"

using namespace ctg;

namespace
{

constexpr unsigned numServers = 4;
constexpr unsigned scansPerServer = 64;

Server::Config
serverConfig(unsigned i)
{
    // Fig11-cell shape: 2 GiB, mixed workloads, fragmented uptime.
    Server::Config config;
    config.memBytes = std::uint64_t{2} << 30;
    config.kind = static_cast<WorkloadKind>(i % 4);
    config.intensity = 0.8 + 0.15 * i;
    config.prefragment = i % 2 == 0;
    config.uptimeSec = 30.0;
    config.seed = 0x5ca9 + i;
    config.applyEnvOverlay();
    return config;
}

/** Exact (bitwise) equality of two scans of the same machine. */
bool
identical(const ServerScan &a, const ServerScan &b)
{
    return std::memcmp(&a, &b, sizeof(ServerScan)) == 0;
}

/** Wall ms of scansPerServer calls of scan_fn; the last result lands
 * in *out. */
template <typename ScanFn>
double
timeScans(ScanFn scan_fn, ServerScan *out)
{
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < scansPerServer; ++i)
        *out = scan_fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner("Scan speedup",
                  "Full metric set: reference scans vs ContigIndex");

    Table table;
    table.header({"Server", "Workload", "Reference (ms)",
                  "Index (ms)", "Speedup", "Identical"});

    double ref_total_ms = 0.0;
    double index_total_ms = 0.0;
    bool all_identical = true;
    for (unsigned i = 0; i < numServers; ++i) {
        const Server::Config config = serverConfig(i);
        Server server(config);
        server.run();

        ServerScan ref_scan;
        ServerScan index_scan;
        const double ref_ms = timeScans(
            [&server] { return server.referenceScan(); }, &ref_scan);
        const double index_ms = timeScans(
            [&server] { return server.scan(); }, &index_scan);
        const bool same = identical(ref_scan, index_scan);
        all_identical = all_identical && same;
        ref_total_ms += ref_ms;
        index_total_ms += index_ms;

        table.row({"#" + std::to_string(i),
                   workloadName(config.kind), cell(ref_ms, 1),
                   cell(index_ms, 2), cell(ref_ms / index_ms, 1) + "x",
                   same ? "yes" : "NO"});
    }
    table.print();

    const double speedup = ref_total_ms / index_total_ms;
    std::printf("\n%u scans of %u servers: reference %.1f ms, "
                "index %.2f ms — %.1fx speedup, results %s\n",
                scansPerServer, numServers, ref_total_ms,
                index_total_ms, speedup,
                all_identical ? "bit-identical" : "DIVERGED");

    StatRegistry registry;
    const StatGroup group(registry, "bench_scan");
    group.settableGauge("servers", "servers scanned")
        .set(numServers);
    group.settableGauge("scans_per_server", "scans per server")
        .set(scansPerServer);
    group.settableGauge("ref_ms", "reference path total ms")
        .set(ref_total_ms);
    group.settableGauge("index_ms", "index path total ms")
        .set(index_total_ms);
    group.settableGauge("speedup", "reference / index wall ratio")
        .set(speedup);
    group.settableGauge("identical", "1 when paths bit-identical")
        .set(all_identical ? 1.0 : 0.0);
    bench::dumpStats(registry, "scan benchmark (JSON lines)");

    return all_identical ? 0 : 1;
}
