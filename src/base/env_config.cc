#include "base/env_config.hh"

#include <cstdlib>

#include "base/logging.hh"

namespace ctg
{
namespace sim
{

namespace
{

/** Parse a decimal unsigned >= 1; returns false on malformed input
 * (which the caller warns about) and on values below 1. strtoul
 * quietly wraps negative input ("-2" becomes a huge unsigned), so
 * reject anything that does not start with a digit. */
bool
parsePositive(const char *text, unsigned *out)
{
    if (text[0] < '0' || text[0] > '9')
        return false;
    char *end = nullptr;
    const unsigned long parsed = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || parsed < 1)
        return false;
    *out = static_cast<unsigned>(parsed);
    return true;
}

} // namespace

EnvConfig
EnvConfig::fromEnv()
{
    EnvConfig config;

    if (const char *env = std::getenv("CTG_THREADS")) {
        if (!parsePositive(env, &config.threads))
            warn_once("ignoring malformed CTG_THREADS '%s'", env);
    }

    if (const char *env = std::getenv("CTG_FAULTS_SEED")) {
        char *end = nullptr;
        const std::uint64_t parsed = std::strtoull(env, &end, 0);
        if (end != env && *end == '\0') {
            config.hasFaultSeed = true;
            config.faultSeed = parsed;
        } else {
            warn_once("ignoring malformed CTG_FAULTS_SEED '%s'",
                      env);
        }
    }

    if (const char *env = std::getenv("CTG_FAULTS"))
        config.faultSpec = env;

    if (const char *env = std::getenv("CTG_STATS_JSON"))
        config.statsJsonPath = env;

    if (const char *env = std::getenv("CTG_FIG11_POP")) {
        if (!parsePositive(env, &config.fig11Population))
            warn_once("ignoring malformed CTG_FIG11_POP '%s'", env);
    }

    if (const char *env = std::getenv("CTG_TRACE"))
        config.traceSpec = env;

    if (const char *env = std::getenv("CTG_TRACE_SPANS"))
        config.traceSpansPath = env;

    if (!config.traceSpec.empty() && config.traceSpansPath.empty())
        warn_once("CTG_TRACE='%s' has no effect without "
                  "CTG_TRACE_SPANS=<path>: flags only select what the "
                  "span trace records",
                  config.traceSpec.c_str());

    if (const char *env = std::getenv("CTG_POLICY"))
        config.policySpec = env;

    if (const char *env = std::getenv("CTG_WORKLOAD"))
        config.workloadOverride = env;

    if (const char *env = std::getenv("CTG_CHECKPOINT"))
        config.checkpointDir = env;

    if (const char *env = std::getenv("CTG_RESTORE"))
        config.restoreDir = env;

    return config;
}

} // namespace sim
} // namespace ctg
