#include "contiguitas/policy_registry.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"
#include "kernel/vanilla_policy.hh"

namespace ctg
{

namespace
{

/** Strict boolean: only the spellings 1/on/ON/true/yes and
 * 0/off/OFF/false/no; anything else is a malformed knob value. */
bool
parseBoolStrict(const std::string &text, bool *out)
{
    for (const char *yes : {"1", "on", "ON", "true", "yes"}) {
        if (text == yes) {
            *out = true;
            return true;
        }
    }
    for (const char *no : {"0", "off", "OFF", "false", "no"}) {
        if (text == no) {
            *out = false;
            return true;
        }
    }
    return false;
}

/** Strict decimal u64; rejects sign prefixes and trailing junk. */
bool
parseU64Strict(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** Apply one key=value pair of a policy spec; warns and returns
 * false on unknown keys or rejected values. */
bool
applySpecKnob(const std::string &key, const std::string &value,
              PolicyConfig *out)
{
    if (key == "bias" || key == "hw" || key == "static") {
        bool v = false;
        if (!parseBoolStrict(value, &v)) {
            warn_once("CTG_POLICY: malformed boolean %s=%s ignored",
                      key.c_str(), value.c_str());
            return false;
        }
        if (key == "bias")
            out->contiguitas.placementBias = v;
        else if (key == "hw")
            out->contiguitas.hwMigration = v;
        else
            out->contiguitas.staticBoundary = v;
        return true;
    }
    if (key == "defrag") {
        std::uint64_t v = 0;
        if (!parseU64Strict(value, &v)) {
            warn_once("CTG_POLICY: malformed defrag=%s ignored",
                      value.c_str());
            return false;
        }
        out->contiguitas.defragBlocksPerTick = v;
        return true;
    }
    if (key == "initial") {
        std::uint64_t v = 0;
        if (!parseU64Strict(value, &v)) {
            warn_once("CTG_POLICY: malformed initial=%s ignored",
                      value.c_str());
            return false;
        }
        out->contiguitas.region.initialUnmovablePages = v;
        return true;
    }
    if (key == "period" || key == "step" || key == "max" ||
        key == "watermark" || key == "slack") {
        // ResizeTuning::set warns itself, naming key and value.
        return out->contiguitas.tuning.set(key, value);
    }
    warn_once("CTG_POLICY: unknown knob %s=%s ignored", key.c_str(),
              value.c_str());
    return false;
}

} // namespace

const std::string &
PolicyConfig::resolvedName() const
{
    static const std::string fallback = "vanilla";
    return name.empty() ? fallback : name;
}

bool
parsePolicySpec(const std::string &spec, PolicyConfig *out)
{
    std::string name = spec;
    std::string knobs;
    const std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
        name = spec.substr(0, colon);
        knobs = spec.substr(colon + 1);
    }

    if (!name.empty() && !PolicyRegistry::instance().has(name)) {
        warn_once("CTG_POLICY: unknown policy '%s'", name.c_str());
        return false;
    }
    out->name = name;

    // Apply the built-in preset for derived entries first, so
    // explicit key=val pairs can still override it.
    if (name == "contiguitas-nobias")
        out->contiguitas.placementBias = false;
    else if (name == "zone-movable")
        out->contiguitas.staticBoundary = true;

    std::size_t pos = 0;
    while (pos < knobs.size()) {
        std::size_t comma = knobs.find(',', pos);
        if (comma == std::string::npos)
            comma = knobs.size();
        const std::string pair = knobs.substr(pos, comma - pos);
        pos = comma + 1;
        if (pair.empty())
            continue;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
            warn_once("CTG_POLICY: malformed pair '%s' ignored "
                      "(want key=value)", pair.c_str());
            continue;
        }
        applySpecKnob(pair.substr(0, eq), pair.substr(eq + 1), out);
    }
    return true;
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

PolicyRegistry::PolicyRegistry()
{
    const auto ctg_make = [](Kernel &kernel,
                             const PolicyConfig &config)
        -> std::unique_ptr<MemPolicy> {
        return std::make_unique<ContiguitasPolicy>(kernel,
                                                   config.contiguitas);
    };
    const auto ctg_restore = [](Kernel &kernel,
                                const PolicyConfig &config,
                                serde::Reader &in)
        -> std::unique_ptr<MemPolicy> {
        return std::make_unique<ContiguitasPolicy>(
            kernel, config.contiguitas, in);
    };

    entries_.push_back(
        {"vanilla", "single buddy allocator, Linux fallback stealing",
         [](Kernel &kernel, const PolicyConfig &)
             -> std::unique_ptr<MemPolicy> {
             return std::make_unique<VanillaPolicy>(kernel.mem());
         },
         [](Kernel &kernel, const PolicyConfig &, serde::Reader &in)
             -> std::unique_ptr<MemPolicy> {
             return std::make_unique<VanillaPolicy>(kernel.mem(), in);
         }});

    entries_.push_back(
        {"contiguitas",
         "two regions, Algorithm 1 resizing, placement bias",
         ctg_make, ctg_restore});

    // Derived entries share the contiguitas factories — the preset
    // lives in the config, applied by parsePolicySpec and (for
    // programmatic construction) re-applied here so a bare name
    // behaves identically either way.
    entries_.push_back(
        {"contiguitas-nobias",
         "contiguitas with the Section 3.2 placement bias disabled",
         [ctg_make](Kernel &kernel, const PolicyConfig &config) {
             PolicyConfig preset = config;
             preset.contiguitas.placementBias = false;
             return ctg_make(kernel, preset);
         },
         [ctg_restore](Kernel &kernel, const PolicyConfig &config,
                       serde::Reader &in) {
             PolicyConfig preset = config;
             preset.contiguitas.placementBias = false;
             return ctg_restore(kernel, preset, in);
         }});

    entries_.push_back(
        {"zone-movable",
         "static boundary split (ZONE_MOVABLE): confinement without "
         "dynamic resizing",
         [ctg_make](Kernel &kernel, const PolicyConfig &config) {
             PolicyConfig preset = config;
             preset.contiguitas.staticBoundary = true;
             return ctg_make(kernel, preset);
         },
         [ctg_restore](Kernel &kernel, const PolicyConfig &config,
                       serde::Reader &in) {
             PolicyConfig preset = config;
             preset.contiguitas.staticBoundary = true;
             return ctg_restore(kernel, preset, in);
         }});
}

void
PolicyRegistry::add(Entry entry)
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (Entry &existing : entries_) {
        if (existing.name == entry.name) {
            existing = std::move(entry);
            return;
        }
    }
    entries_.push_back(std::move(entry));
}

void
PolicyRegistry::remove(const std::string &name)
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->name == name) {
            entries_.erase(it);
            return;
        }
    }
}

bool
PolicyRegistry::find(const std::string &name, Entry *out) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (const Entry &entry : entries_) {
        if (entry.name == name) {
            *out = entry;
            return true;
        }
    }
    return false;
}

bool
PolicyRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (const Entry &entry : entries_) {
        if (entry.name == name)
            return true;
    }
    return false;
}

std::vector<PolicyRegistry::Entry>
PolicyRegistry::entries() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return entries_;
}

} // namespace ctg
