/**
 * @file
 * One-stop parsing of the CTG_* environment overrides.
 *
 * Every CTG_* variable the simulator, the bench binaries and the
 * examples read is parsed here into a sim::EnvConfig value; nothing
 * else calls getenv. Call sites overlay the parsed values onto their
 * own config structs (Fleet::Config::applyEnvOverlay,
 * Server::Config::applyEnvOverlay) or query fromEnv() directly.
 *
 * fromEnv() re-reads the environment on every call — tests mutate
 * CTG_THREADS et al. with setenv at runtime and expect the change to
 * take effect, so nothing here is cached.
 */

#ifndef CTG_BASE_ENV_CONFIG_HH
#define CTG_BASE_ENV_CONFIG_HH

#include <cstdint>
#include <string>

namespace ctg
{
namespace sim
{

/** Parsed CTG_* environment overrides (defaults when unset). */
struct EnvConfig
{
    /** CTG_THREADS: executor width; 0 = auto (hardware threads). */
    unsigned threads = 0;

    /** CTG_FAULTS_SEED: injector RNG seed override. */
    bool hasFaultSeed = false;
    std::uint64_t faultSeed = 0;

    /** CTG_FAULTS: fault-site spec string ("site:p0.1,..."). */
    std::string faultSpec;

    /** CTG_STATS_JSON: path that bench stat dumps append to. */
    std::string statsJsonPath;

    /** CTG_FIG11_POP: fig11 servers per cell (default 8). */
    unsigned fig11Population = 8;

    /** CTG_TRACE: trace flag spec ("Region,Migrate", "All") that
     * restricts what CTG_TRACE_SPANS records; alone it does
     * nothing (and warns). */
    std::string traceSpec;

    /** CTG_TRACE_SPANS: Perfetto span-trace output path; setting it
     * enables span collection (on every flag unless CTG_TRACE lists
     * some) and writes the JSON at process exit. */
    std::string traceSpansPath;

    /** CTG_POLICY: placement-policy spec "name[:key=val,...]"
     * (registry names: vanilla, contiguitas, contiguitas-nobias,
     * zone-movable, ...). Kept as the raw string here — the
     * contiguitas layer owns the grammar
     * (parsePolicySpec in contiguitas/policy_registry.hh); consumers
     * parse at overlay time so typos warn in context. */
    std::string policySpec;

    /** CTG_WORKLOAD: named workload override (web, cache-a, cache-b,
     * ci, nginx, memcached, aging, fs-cache, unmovable-bursty);
     * every server in the fleet runs this kind. Raw string; parsed
     * by Fleet at overlay time. */
    std::string workloadOverride;

    /** CTG_CHECKPOINT: directory fleet runs write per-server
     * snapshot files and a manifest into. */
    std::string checkpointDir;

    /** CTG_RESTORE: directory fleet runs restore per-server
     * snapshots from; validation failures cold-start the server. */
    std::string restoreDir;

    /** Parse the current environment. Every malformed value warns
     * once, naming the variable and the offending text, and keeps
     * the default — a typo in a CTG_* knob must never be silently
     * interpreted. */
    static EnvConfig fromEnv();
};

} // namespace sim
} // namespace ctg

#endif // CTG_BASE_ENV_CONFIG_HH
