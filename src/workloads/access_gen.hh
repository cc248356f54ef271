/**
 * @file
 * Memory access-stream generators for the TLB/page-walk studies
 * (Figure 3). Each profile models a service's instruction and data
 * reference behaviour with Zipfian page popularity over configurable
 * footprints: page-walk cycles emerge from the simulated TLB
 * hierarchy, not from an analytic miss-rate formula.
 */

#ifndef CTG_WORKLOADS_ACCESS_GEN_HH
#define CTG_WORKLOADS_ACCESS_GEN_HH

#include <memory>

#include "base/rng.hh"
#include "base/types.hh"
#include "workloads/profile.hh"

namespace ctg
{

/** Reference-behaviour parameters of one service. */
struct AccessProfile
{
    /** Anonymous-heap data footprint. */
    std::uint64_t dataBytes = std::uint64_t{8} << 30;
    /** Code/instruction footprint. */
    std::uint64_t codeBytes = std::uint64_t{256} << 20;
    /** Skew of data-page popularity (higher = hotter head). */
    double dataZipfTheta = 0.65;
    /** Skew of code-page popularity. */
    double codeZipfTheta = 0.55;
    /** Store fraction of data references. */
    double writeFrac = 0.3;
    /** Non-memory work per operation, in cycles (CPI model). */
    Cycles computePerOp = 60;
};

/** Per-service reference profiles calibrated to Figure 3. Panics
 * for the kinds that have none (Aging, FsCacheHeavy,
 * UnmovableBursty). */
AccessProfile makeAccessProfile(WorkloadKind kind);

/** "Ads" appears only in Figure 3; give it a profile too. */
AccessProfile makeAdsAccessProfile();

/**
 * Generates virtual addresses over a data and a code region.
 */
class AccessStream
{
  public:
    AccessStream(const AccessProfile &profile, Addr data_base,
                 Addr code_base, std::uint64_t seed);

    /** Next data reference (address + load/store). */
    Addr nextData(bool *is_write);

    /** Next instruction-fetch address. */
    Addr nextCode();

  private:
    AccessProfile profile_;
    Addr dataBase_;
    Addr codeBase_;
    Rng rng_;
    std::unique_ptr<Zipf> dataZipf_;
    std::unique_ptr<Zipf> codeZipf_;
};

} // namespace ctg

#endif // CTG_WORKLOADS_ACCESS_GEN_HH
