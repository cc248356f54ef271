/**
 * @file
 * Fleet-scale capacity study: how many simulated servers one box can
 * hold. Runs a fig11-shaped population (mixed workload kinds,
 * intensity 0.7-1.3, 25% pre-fragmented, half stock Linux and half
 * Contiguitas) at the scale tier — small machines, short uptimes,
 * histograms fed from Fleet::run's per-server callback, coarse
 * stepping — and reports the numbers that bound population size:
 * frame-table and ContigIndex bytes/frame, peak RSS, servers/second
 * and host heap allocations per server.
 *
 * Defaults to 100,000 servers; `--servers` and `--mem-mb` rescale.
 * `--threads` sets worker threads (0 = auto), and `--coarse` toggles
 * the scale stepping mode (Fleet::Config::coarseStep; on by default
 * here, off elsewhere). Fleet::run holds one merge window of results at
 * a time, so peak RSS barely grows with `--servers`. The `--json
 * BENCH_fleet.json` output carries, per system, the measured
 * `bytes_per_frame` next to `bytes_per_frame_aos` and the index's
 * `index_bytes_per_frame`, plus `allocs_per_server`, so CI
 * trend-tracks the >= 2x footprint reduction directly.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "base/host_mem.hh"
#include "base/stats.hh"
#include "bench/bench_util.hh"
#include "fleet/fleet.hh"

using namespace ctg;

namespace
{

struct PopulationResult
{
    unsigned threads = 0;
    double meanFreeContiguity2m = 0.0;
    double meanUnmovableBlocks2m = 0.0;
    /** Frame-table footprint of a representative end-of-run server
     * (meta + link columns), per frame. */
    double bytesPerFrame = 0.0;
    /** ContigIndex footprint of the same server, per frame. */
    double indexBytesPerFrame = 0.0;
    /** Host heap allocations across the run. */
    std::uint64_t heapAllocs = 0;
};

/** The fig11 population shape at the scale tier: the same intensity
 * and pre-fragmentation spread, uptimes shortened so 10^5-10^6
 * servers finish on one box (steady-state fragmentation shape, not
 * magnitude, is the point of this bench). */
Fleet::Config
scaleConfig(bool contiguitas, unsigned servers,
            std::uint64_t mem_bytes, unsigned threads, bool coarse)
{
    Fleet::Config config;
    config.servers = servers;
    config.memBytes = mem_bytes;
    config.policy.name = contiguitas ? "contiguitas" : "vanilla";
    config.minUptimeSec = 2.0;
    config.maxUptimeSec = 5.0;
    config.minIntensity = 0.7;
    config.maxIntensity = 1.3;
    config.prefragmentFrac = 0.25;
    config.threads = threads;
    config.coarseStep = coarse;
    config.seed = 0x5ca1e ^ (contiguitas ? 1 : 0);
    config.applyEnvOverlay();
    config.useSnapshotSubdir(config.policy.name);
    return config;
}

/** Frame-table footprint probe: run one representative server of
 * this population to its scan and measure the table it ends with.
 * The fleet's servers are transient (created and destroyed per
 * task), so the probe builds its own, starting from the fleet's
 * stamped base config. */
void
probeFootprint(const Fleet &fleet, PopulationResult *out)
{
    Server::Config sc = fleet.baseServerConfig();
    sc.kind = WorkloadKind::Web;
    sc.intensity = 1.0;
    sc.prefragment = true;
    sc.uptimeSec = fleet.config().minUptimeSec;
    sc.seed = 0xf00d;
    Server server(sc);
    server.run();
    const FrameArray &frames = server.kernel().mem().frames();
    const double n =
        static_cast<double>(server.kernel().mem().numFrames());
    out->bytesPerFrame = static_cast<double>(frames.bytesUsed()) / n;
    out->indexBytesPerFrame =
        static_cast<double>(
            server.kernel().mem().contigIndex().bytesUsed()) /
        n;
}

PopulationResult
runPopulation(bool contiguitas, unsigned servers,
              std::uint64_t mem_bytes, unsigned threads, bool coarse,
              std::string *stats_json)
{
    const Fleet::Config config =
        scaleConfig(contiguitas, servers, mem_bytes, threads, coarse);
    const char *prefix = contiguitas ? "fleet.ctg" : "fleet.linux";

    PopulationResult result;

    Fleet fleet(config);
    StatRegistry registry;
    fleet.attachTelemetry(registry, prefix);
    bench::regFaultStats(registry);
    // Only the two table metrics are kept: their values repeat
    // (block-count ratios), whereas a sink of per-server uptimes
    // would hold one bucket per server.
    OnlineHistogram freeContiguity2m;
    OnlineHistogram unmovableBlocks2m;
    const std::uint64_t allocsBefore = heapAllocCount();
    fleet.run([&](unsigned, const ServerScan &scan) {
        freeContiguity2m.add(scan.freeContiguity[0]);
        unmovableBlocks2m.add(scan.unmovableBlocks[0]);
    });
    result.heapAllocs = heapAllocCount() - allocsBefore;
    result.threads = fleet.lastRunThreads();
    result.meanFreeContiguity2m = freeContiguity2m.mean();
    result.meanUnmovableBlocks2m = unmovableBlocks2m.mean();
    probeFootprint(fleet, &result);
    *stats_json += registry.jsonLines();

    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s.bytes_per_frame\",\"kind\":"
                  "\"gauge\",\"value\":%.3f}\n",
                  prefix, result.bytesPerFrame);
    *stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s.index_bytes_per_frame\",\"kind\":"
                  "\"gauge\",\"value\":%.3f}\n",
                  prefix, result.indexBytesPerFrame);
    *stats_json += line;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string servers_s = "100000";
    std::string mem_mb_s = "64";
    std::string threads_s = "0";
    std::string coarse_s = "1";
    bench::parseArgs(
        argc, argv,
        {{"servers", &servers_s,
          "total population size (split linux/contiguitas)"},
         {"mem-mb", &mem_mb_s, "per-server memory in MiB"},
         {"threads", &threads_s,
          "worker threads (0 = auto)"},
         {"coarse", &coarse_s,
          "scale stepping: batch idle workload segments (0/1)"}});
    const unsigned servers = static_cast<unsigned>(
        bench::flagU64(servers_s, "servers"));
    const std::uint64_t memBytes =
        bench::flagU64(mem_mb_s, "mem-mb") << 20;
    const unsigned threads = static_cast<unsigned>(
        bench::flagU64(threads_s, "threads"));
    const bool coarse = bench::flagU64(coarse_s, "coarse") != 0;

    bench::banner("Fleet scale",
                  "10^5-10^6-server population capacity study");
    std::printf("(population: %u servers at %llu MiB each, scale "
                "tier, coarse=%d)\n",
                servers,
                static_cast<unsigned long long>(memBytes >> 20),
                int(coarse));

    std::string stats_json;
    bench::WallTimer wall;
    const PopulationResult linux_pop =
        runPopulation(false, servers / 2, memBytes, threads, coarse,
                      &stats_json);
    const PopulationResult ctg_pop =
        runPopulation(true, servers - servers / 2, memBytes, threads,
                      coarse, &stats_json);
    const double totalWallMs = wall.ms();

    const double allocsPerServer =
        static_cast<double>(linux_pop.heapAllocs +
                            ctg_pop.heapAllocs) /
        static_cast<double>(servers);

    const double serversPerSec =
        1000.0 * static_cast<double>(servers) / totalWallMs;
    const double peakRssMb =
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
    // Two reference points: what sizeof says the seed's
    // array-of-structs columns cost (PageFrame value type + two
    // 32-bit links), and the 40 bytes/frame the roadmap charged the
    // pre-diet table with (24 B metadata + 16 B link indices).
    const double aosBytesPerFrame =
        static_cast<double>(sizeof(PageFrame) +
                            2 * sizeof(std::uint32_t));
    const double roadmapBytesPerFrame = 40.0;
    const double maxBytesPerFrame =
        std::max(linux_pop.bytesPerFrame, ctg_pop.bytesPerFrame);

    Table table;
    table.header({"System", "free contig 2M", "unmov blocks 2M",
                  "bytes/frame", "index bytes/frame"});
    table.row({"Linux", formatPercent(linux_pop.meanFreeContiguity2m),
               formatPercent(linux_pop.meanUnmovableBlocks2m),
               cell(linux_pop.bytesPerFrame, 2),
               cell(linux_pop.indexBytesPerFrame, 2)});
    table.row({"Contiguitas",
               formatPercent(ctg_pop.meanFreeContiguity2m),
               formatPercent(ctg_pop.meanUnmovableBlocks2m),
               cell(ctg_pop.bytesPerFrame, 2),
               cell(ctg_pop.indexBytesPerFrame, 2)});
    table.print();

    std::printf("\nFrame table: %.2f bytes/frame worst case — "
                "%.1fx under the pre-diet 40 (roadmap), %.1fx under "
                "the packed array-of-structs %.0f (sizeof)\n",
                maxBytesPerFrame,
                roadmapBytesPerFrame / maxBytesPerFrame,
                aosBytesPerFrame / maxBytesPerFrame,
                aosBytesPerFrame);
    std::printf("Throughput: %.0f servers/sec over %u servers "
                "(%u worker threads, wall %.0f ms)\n",
                serversPerSec, servers, linux_pop.threads,
                totalWallMs);
    std::printf("Heap allocations: %.0f/server\n", allocsPerServer);
    std::printf("Peak RSS: %.0f MiB\n", peakRssMb);

    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.servers\",\"kind\":\"gauge\","
                  "\"value\":%u}\n",
                  servers);
    stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.servers_per_sec\",\"kind\":"
                  "\"gauge\",\"value\":%.1f}\n",
                  serversPerSec);
    stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.threads\",\"kind\":\"gauge\","
                  "\"value\":%u}\n",
                  linux_pop.threads);
    stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.coarse_step\",\"kind\":"
                  "\"gauge\",\"value\":%d}\n",
                  int(coarse));
    stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.allocs_per_server\",\"kind\":"
                  "\"gauge\",\"value\":%.1f}\n",
                  allocsPerServer);
    stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.bytes_per_frame\",\"kind\":"
                  "\"gauge\",\"value\":%.3f}\n",
                  maxBytesPerFrame);
    stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.bytes_per_frame_aos\",\"kind\":"
                  "\"gauge\",\"value\":%.1f}\n",
                  aosBytesPerFrame);
    stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.bytes_per_frame_baseline\","
                  "\"kind\":\"gauge\",\"value\":%.1f}\n",
                  roadmapBytesPerFrame);
    stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.peak_rss_mb\",\"kind\":"
                  "\"gauge\",\"value\":%.1f}\n",
                  peakRssMb);
    stats_json += line;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.run_wall_ms\",\"kind\":"
                  "\"gauge\",\"value\":%.3f}\n",
                  totalWallMs);
    stats_json += line;
    bench::dumpText("fleet-scale stats (JSON lines)", stats_json);
    return 0;
}
