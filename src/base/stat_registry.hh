/**
 * @file
 * Unified statistics registry in the gem5 idiom.
 *
 * Every subsystem registers its counters under a hierarchical
 * dot-separated name (e.g. `server3.mem.buddy.split_events`,
 * `ctg.region.expansions`). Three stat kinds exist:
 *
 *  - Counter:      monotonically increasing event count owned by the
 *                  registry (new code bumps these directly);
 *  - Gauge:        instantaneous value, either settable or backed by a
 *                  callback — the bridge that lets the pre-existing
 *                  ad-hoc `struct Stats` members appear in the registry
 *                  without rewriting their hot-path increments;
 *  - Distribution: streaming mean/min/max/stddev over sampled values.
 *
 * A StatGroup carries a name prefix so each simulated server (or
 * subsystem) registers its subtree once and children only choose leaf
 * names. jsonLines() renders the whole registry for machine
 * consumption by the bench binaries; the StatSampler
 * (src/sim/stat_sampler.hh) snapshots scalar views into time series.
 */

#ifndef CTG_BASE_STAT_REGISTRY_HH
#define CTG_BASE_STAT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/logging.hh"
#include "base/stats.hh"

namespace ctg
{

/** Base of every registered statistic. */
class Stat
{
  public:
    enum class Kind
    {
        Counter,
        Gauge,
        Distribution,
    };

    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    virtual ~Stat() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    virtual Kind kind() const = 0;

    /** Scalar view used by the sampler and the exporters (a
     * Distribution reports its mean). */
    virtual double value() const = 0;

    /** Return to the just-registered state (callback gauges keep
     * reading their source). */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** Monotonic event counter owned by the registry. */
class Counter final : public Stat
{
  public:
    using Stat::Stat;

    Counter &operator++()
    {
        ++count_;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        count_ += n;
        return *this;
    }

    std::uint64_t count() const { return count_; }

    Kind kind() const override { return Kind::Counter; }
    double value() const override
    {
        return static_cast<double>(count_);
    }
    void reset() override { count_ = 0; }

  private:
    std::uint64_t count_ = 0;
};

/** Instantaneous value: settable, or bound to a callback source. */
class Gauge final : public Stat
{
  public:
    using Source = std::function<double()>;

    Gauge(std::string name, std::string desc)
        : Stat(std::move(name), std::move(desc))
    {}

    Gauge(std::string name, std::string desc, Source source)
        : Stat(std::move(name), std::move(desc)),
          source_(std::move(source))
    {}

    /** Only valid on settable (non-callback) gauges. */
    void
    set(double v)
    {
        ctg_assert(!source_);
        value_ = v;
    }

    bool callbackBacked() const { return static_cast<bool>(source_); }

    Kind kind() const override { return Kind::Gauge; }
    double value() const override
    {
        return source_ ? source_() : value_;
    }
    void reset() override
    {
        if (!source_)
            value_ = 0.0;
    }

  private:
    Source source_;
    double value_ = 0.0;
};

/** Streaming distribution (mean/min/max/stddev over samples). */
class Distribution final : public Stat
{
  public:
    using Stat::Stat;

    void sample(double x) { acc_.add(x); }

    std::uint64_t count() const { return acc_.count(); }
    double mean() const { return acc_.mean(); }
    double min() const { return acc_.min(); }
    double max() const { return acc_.max(); }
    double stddev() const { return acc_.stddev(); }

    Kind kind() const override { return Kind::Distribution; }
    double value() const override { return acc_.mean(); }
    void reset() override { acc_ = RunningStat{}; }

  private:
    RunningStat acc_;
};

/**
 * Owning, name-indexed collection of stats.
 *
 * Names must be non-empty, unique, and drawn from
 * [A-Za-z0-9._-]; registering a duplicate or malformed name panics
 * (a simulator bug, not a user error). Iteration follows
 * registration order, so dumps group naturally by subsystem.
 */
class StatRegistry
{
  public:
    Counter &addCounter(const std::string &name,
                        std::string desc = "");
    Gauge &addGauge(const std::string &name, Gauge::Source source,
                    std::string desc = "");
    Gauge &addSettableGauge(const std::string &name,
                            std::string desc = "");
    Distribution &addDistribution(const std::string &name,
                                  std::string desc = "");

    /** Lookup by full name; nullptr when absent. */
    const Stat *find(const std::string &name) const;
    Stat *find(const std::string &name);

    std::size_t size() const { return stats_.size(); }
    const Stat &at(std::size_t i) const { return *stats_.at(i); }

    void resetAll();

    /** One JSON object per line, e.g.
     * {"name":"a.b","kind":"counter","value":12}. Distributions add
     * count/mean/min/max/stddev fields. */
    std::string jsonLines() const;

  private:
    template <typename T, typename... Args>
    T &add(const std::string &name, Args &&...args);

    std::vector<std::unique_ptr<Stat>> stats_;
    std::unordered_map<std::string, Stat *> byName_;
};

/**
 * A name-prefix view of a registry: `StatGroup(reg, "server3")`
 * registers children as `server3.<leaf>`, and `group("mem")` derives
 * the `server3.mem` subtree. Cheap to copy; the registry must
 * outlive every group derived from it.
 */
class StatGroup
{
  public:
    explicit StatGroup(StatRegistry &registry, std::string prefix = "")
        : registry_(&registry), prefix_(std::move(prefix))
    {}

    /** Derive a child group: prefix "a" + name "b" -> "a.b". */
    StatGroup
    group(const std::string &name) const
    {
        return StatGroup(*registry_, join(name));
    }

    Counter &
    counter(const std::string &name, std::string desc = "") const
    {
        return registry_->addCounter(join(name), std::move(desc));
    }

    Gauge &
    gauge(const std::string &name, Gauge::Source source,
          std::string desc = "") const
    {
        return registry_->addGauge(join(name), std::move(source),
                                   std::move(desc));
    }

    Gauge &
    settableGauge(const std::string &name, std::string desc = "") const
    {
        return registry_->addSettableGauge(join(name),
                                           std::move(desc));
    }

    Distribution &
    distribution(const std::string &name, std::string desc = "") const
    {
        return registry_->addDistribution(join(name),
                                          std::move(desc));
    }

    const std::string &prefix() const { return prefix_; }
    StatRegistry &registry() const { return *registry_; }

  private:
    std::string
    join(const std::string &name) const
    {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }

    StatRegistry *registry_;
    std::string prefix_;
};

} // namespace ctg

#endif // CTG_BASE_STAT_REGISTRY_HH
