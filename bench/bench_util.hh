/**
 * @file
 * Shared helpers for the per-figure benchmark binaries: standard
 * fleet configurations, CDF rendering, and banner output. Every
 * binary prints the rows/series of one of the paper's tables or
 * figures (shape reproduction — see EXPERIMENTS.md for the
 * paper-vs-measured record).
 */

#ifndef CTG_BENCH_BENCH_UTIL_HH
#define CTG_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/env_config.hh"
#include "base/stat_registry.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "contiguitas/policy_registry.hh"
#include "fleet/fleet.hh"
#include "sim/executor.hh"
#include "sim/fault_injector.hh"
#include "workloads/profile.hh"

namespace ctg
{
namespace bench
{

/** Path set by --json: overrides CTG_STATS_JSON for dump output. */
inline std::string &
jsonOutPath()
{
    static std::string path;
    return path;
}

/** One bench command-line flag: `--name VALUE` or `--name=VALUE`. */
struct FlagSpec
{
    const char *name;   //!< long name, without the leading "--"
    std::string *value; //!< where the parsed value lands
    const char *help;   //!< one-line description for the usage text
};

/** Print the supported-flag list to stderr. */
inline void
printUsage(const char *prog, const std::vector<FlagSpec> &flags)
{
    std::fprintf(stderr,
                 "usage: %s [--flag VALUE | --flag=VALUE]... [--list]\n"
                 "supported flags:\n",
                 prog);
    for (const FlagSpec &spec : flags)
        std::fprintf(stderr, "  --%-12s %s\n", spec.name, spec.help);
    std::fprintf(stderr,
                 "  --%-12s %s\n", "list",
                 "print registered policies and workloads, then exit");
}

/** Enumerate the policy registry and the workload vocabulary — the
 * names --policies/--workloads, CTG_POLICY and CTG_WORKLOAD accept. */
inline void
printRegistry()
{
    std::printf("policies (CTG_POLICY=<name>[:key=val,...]):\n");
    for (const PolicyRegistry::Entry &entry :
         PolicyRegistry::instance().entries()) {
        std::printf("  %-20s %s\n", entry.name.c_str(),
                    entry.description.c_str());
    }
    std::printf("workloads (CTG_WORKLOAD=<name>):\n");
    for (unsigned k = 0; k < numWorkloadKinds; ++k) {
        const auto kind = static_cast<WorkloadKind>(k);
        std::printf("  %-20s %s\n", workloadKey(kind),
                    workloadName(kind));
    }
}

/**
 * Parse the shared bench command line. Every binary gets `--json
 * out.json` (redirects every dumpText/dumpStats call into that file,
 * append, so CI can collect machine-readable artifacts like
 * BENCH_fleet.json without environment plumbing); callers add their
 * own flags via `extra`. Both `--flag VALUE` and `--flag=VALUE`
 * spellings work. Anything that is not a declared flag — an unknown
 * name, a missing value, a stray positional — prints the usage list
 * and exits with status 2 rather than being silently ignored.
 */
inline void
parseArgs(int argc, char **argv, std::vector<FlagSpec> extra = {})
{
    std::vector<FlagSpec> flags;
    flags.push_back({"json", &jsonOutPath(),
                     "append JSON-lines stats to this file"});
    flags.insert(flags.end(), extra.begin(), extra.end());

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            // Registry discoverability from every bench binary.
            printRegistry();
            std::exit(0);
        }
        const FlagSpec *matched = nullptr;
        for (const FlagSpec &spec : flags) {
            const std::string prefix = std::string("--") + spec.name;
            if (arg == prefix) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr,
                                 "missing value for '%s'\n",
                                 arg.c_str());
                    printUsage(argv[0], flags);
                    std::exit(2);
                }
                *spec.value = argv[++i];
                matched = &spec;
                break;
            }
            if (arg.rfind(prefix + "=", 0) == 0) {
                *spec.value = arg.substr(prefix.size() + 1);
                matched = &spec;
                break;
            }
        }
        if (matched == nullptr) {
            std::fprintf(stderr, "unknown bench argument '%s'\n",
                         arg.c_str());
            printUsage(argv[0], flags);
            std::exit(2);
        }
    }
}

/** Parse a flag value as a non-negative integer; usage-error exit on
 * garbage (trailing characters included). */
inline std::uint64_t
flagU64(const std::string &value, const char *name)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || end == nullptr || *end != '\0') {
        std::fprintf(stderr, "flag --%s wants an integer, got '%s'\n",
                     name, value.c_str());
        std::exit(2);
    }
    return v;
}

/** Print the figure banner. */
inline void
banner(const char *figure, const char *caption)
{
    std::printf("\n================================================"
                "====\n");
    std::printf("%s — %s\n", figure, caption);
    std::printf("================================================"
                "====\n");
}

/**
 * Register the process-wide fault injector's per-site counters under
 * `faults.` when CTG_FAULTS armed any site, so chaos runs carry a
 * record of the injections they executed in their dumped stats. A
 * no-op in clean runs, keeping their output byte-identical.
 */
inline void
regFaultStats(StatRegistry &registry)
{
    if (faultInjector().anyArmed())
        faultInjector().regStats(StatGroup(registry, "faults"));
}

/**
 * Print the wall-clock / worker summary of the last fleet run. The
 * same numbers land in the JSON dump as `<prefix>.run_wall_ms` /
 * `<prefix>.threads` when the fleet's telemetry is attached, so
 * BENCH_*.json records track the speedup trajectory.
 */
inline void
printFleetWall(const Fleet &fleet)
{
    std::printf("\n[fleet] %u worker thread(s), run wall %.0f ms "
                "(set CTG_THREADS to change)\n",
                fleet.lastRunThreads(), fleet.lastRunWallMs());
}

/** Wall clock for benches that do not drive a Fleet (hardware
 * binaries) or time several fleets together: start at construction,
 * read in ms. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    ms() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Standard fleet configuration used by the Section 2 studies. The
 * policy is a registry spec ("vanilla", "contiguitas",
 * "contiguitas-nobias:defrag=4", ...). */
inline Fleet::Config
standardFleet(const std::string &policy, unsigned servers = 48)
{
    Fleet::Config config;
    config.servers = servers;
    config.memBytes = std::uint64_t{2} << 30;
    if (!parsePolicySpec(policy, &config.policy)) {
        std::fprintf(stderr, "unknown policy '%s' (try --list)\n",
                     policy.c_str());
        std::exit(2);
    }
    config.minUptimeSec = 25.0;
    config.maxUptimeSec = 90.0;
    config.prefragmentFrac = 0.25;
    config.seed = 0x15ca2023;
    config.applyEnvOverlay();
    return config;
}

/**
 * Emit JSON lines (from StatRegistry / StatSampler) under a labelled
 * section. A --json path (parseArgs), else CTG_STATS_JSON, redirects
 * the text into that file (append), so scripted runs can harvest
 * machine-readable stats without parsing the figure tables.
 */
inline void
dumpText(const char *label, const std::string &text)
{
    std::string path = jsonOutPath();
    if (path.empty())
        path = sim::EnvConfig::fromEnv().statsJsonPath;
    if (!path.empty()) {
        if (FILE *f = std::fopen(path.c_str(), "a")) {
            std::fputs(text.c_str(), f);
            std::fclose(f);
            return;
        }
    }
    std::printf("\n--- %s ---\n%s", label, text.c_str());
}

/** Dump a registry as JSON lines (see dumpText). */
inline void
dumpStats(const StatRegistry &registry, const char *label)
{
    dumpText(label, registry.jsonLines());
}

/**
 * Dump one `fleet.run_wall_ms` gauge line in the same JSON-lines
 * shape StatRegistry::jsonLines emits. Fleet-driven benches get this
 * line from the attached telemetry; benches without a fleet call
 * this so every BENCH_*.json artifact carries its wall clock under
 * the one uniform key CI trend tracking keys on.
 */
inline void
dumpWallMs(double wall_ms)
{
    char line[96];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"fleet.run_wall_ms\",\"kind\":\"gauge\""
                  ",\"value\":%.3f}\n",
                  wall_ms);
    dumpText("wall clock (JSON lines)", line);
}

/** Render "CDF of servers" rows for a per-server metric. */
inline void
printCdfRows(Table &table, const std::string &label,
             const std::vector<double> &thresholds,
             const OnlineHistogram &cdf)
{
    std::vector<std::string> row;
    row.push_back(label);
    for (const double x : thresholds)
        row.push_back(cell(cdf.fractionAtOrBelow(x), 2));
    table.row(std::move(row));
}

} // namespace bench
} // namespace ctg

#endif // CTG_BENCH_BENCH_UTIL_HH
