/**
 * @file
 * Stat snapshotting: turns the scalar views of a StatRegistry into
 * per-stat time series so trajectories (how fragmentation evolves
 * over a run, how the unmovable share grows) are first-class outputs
 * rather than end-of-run scalars.
 *
 * The caller decides when to snapshot: a server samples once per
 * workload step (Server::attachTelemetry), fig13 once per migration.
 *
 * Stats registered after the first snapshot get their earlier
 * samples back-filled with zero, keeping every series equal length.
 */

#ifndef CTG_SIM_STAT_SAMPLER_HH
#define CTG_SIM_STAT_SAMPLER_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "base/stat_registry.hh"
#include "base/types.hh"

namespace ctg
{

/**
 * Snapshot series over one StatRegistry.
 */
class StatSampler
{
  public:
    explicit StatSampler(StatRegistry &registry)
        : registry_(&registry)
    {}

    /** Snapshot every registered stat at the given timestamp.
     * Timestamps must be non-decreasing. */
    void sample(Tick now);

    std::size_t sampleCount() const { return ticks_.size(); }
    const std::vector<Tick> &ticks() const { return ticks_; }

    /** Column order (registry registration order at last sample). */
    const std::vector<std::string> &statNames() const { return names_; }

    /** Sample series of one stat; nullptr when never sampled. */
    const std::vector<double> *series(const std::string &name) const;

    /** One JSON object per snapshot:
     * {"tick":N,"values":{"name":v,...}}. */
    std::string jsonLines() const;

  private:
    StatRegistry *registry_;
    std::vector<Tick> ticks_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::size_t> columnByName_;
    /** Column-major: one vector of samples per stat. */
    std::vector<std::vector<double>> columns_;
};

} // namespace ctg

#endif // CTG_SIM_STAT_SAMPLER_HH
