/**
 * @file
 * Paper-figure golden regression tests: small-population versions of
 * the fleet studies asserting the *direction* of the paper's
 * headline results — so a perf refactor that silently corrupts the
 * science fails here, not in a human eyeball pass over bench output.
 *
 * Full-scale shape reproduction lives in bench/ and EXPERIMENTS.md;
 * these populations are deliberately small (seconds, not minutes)
 * and the thresholds deliberately loose: they encode inequalities
 * the paper claims (vanilla unmovable share >> Contiguitas share,
 * CDFs monotone and bounded), not exact percentages.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/stats.hh"
#include "base/units.hh"
#include "empirical_cdf.hh"
#include "fleet/fleet.hh"

namespace ctg
{
namespace
{

Fleet::Config
figureFleet(const std::string &policy, unsigned servers)
{
    Fleet::Config config;
    config.servers = servers;
    config.memBytes = 512_MiB;
    config.policy.name = policy;
    config.minUptimeSec = 8.0;
    config.maxUptimeSec = 20.0;
    config.prefragmentFrac = 0.25;
    config.seed = 0x15ca2023;
    return config;
}

double
meanUnmovableShare(const std::vector<ServerScan> &scans)
{
    double sum = 0.0;
    for (const ServerScan &scan : scans)
        sum += scan.unmovableBlocks[0];
    return scans.empty() ? 0.0 : sum / double(scans.size());
}

double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / double(xs.size());
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

// ---------------------------------------------------------------
// Figure 11 / Figure 5 headline: confinement direction
// ---------------------------------------------------------------

TEST(FigureRegression, Fig11ConfinementDirectionHolds)
{
    // Paper: stock Linux averages 31% of 2 MB blocks contaminated by
    // unmovable pages (19-42% per workload); Contiguitas confines
    // them to at most 9% (average 7%). Assert the direction with
    // slack: vanilla must be at least double the Contiguitas share,
    // and both must sit on the right side of a loose absolute bar.
    const auto vanillaScans =
        Fleet(figureFleet("vanilla", 10)).run();
    const auto ctgScans = Fleet(figureFleet("contiguitas", 10)).run();

    std::vector<double> vanillaShare;
    std::vector<double> ctgShare;
    for (const ServerScan &scan : vanillaScans)
        vanillaShare.push_back(scan.unmovableBlocks[0]);
    for (const ServerScan &scan : ctgScans)
        ctgShare.push_back(scan.unmovableBlocks[0]);

    const double vanillaMean = mean(vanillaShare);
    const double ctgMean = mean(ctgShare);
    EXPECT_GT(vanillaMean, 0.10)
        << "vanilla fleet lost its fragmentation problem";
    EXPECT_LT(ctgMean, 0.15)
        << "Contiguitas lost its confinement";
    EXPECT_GT(vanillaMean, 2.0 * ctgMean)
        << "confinement advantage collapsed (paper: 31% vs 7%)";
    // Confinement holds per server, not just on average.
    const double ctgWorst =
        *std::max_element(ctgShare.begin(), ctgShare.end());
    const double vanillaWorst =
        *std::max_element(vanillaShare.begin(), vanillaShare.end());
    EXPECT_LT(ctgWorst, vanillaWorst);
}

TEST(FigureRegression, Fig05ScatteringAmplificationHolds)
{
    // Paper Section 2.5: a median ~7.6% of 4 KB pages are unmovable
    // yet they contaminate ~34% of 2 MB blocks — scattering
    // amplifies the page share by >4x. Assert amplification > 1.5x.
    const auto scans = Fleet(figureFleet("vanilla", 12)).run();
    std::vector<double> pageRatios;
    std::vector<double> blockRatios;
    for (const ServerScan &scan : scans) {
        pageRatios.push_back(scan.unmovablePageRatio);
        blockRatios.push_back(scan.unmovableBlocks[0]);
    }
    const double medianPages = median(pageRatios);
    const double medianBlocks = median(blockRatios);
    ASSERT_GT(medianPages, 0.0);
    EXPECT_GT(medianBlocks, 1.5 * medianPages)
        << "unmovable pages stopped scattering (paper: ~4.5x)";
}

// ---------------------------------------------------------------
// Figure 4: CDF sanity — monotone, bounded, ordered by granularity
// ---------------------------------------------------------------

TEST(FigureRegression, Fig04CdfsMonotoneAndBounded)
{
    const auto scans = Fleet(figureFleet("vanilla", 12)).run();
    ASSERT_FALSE(scans.empty());

    // The bench's CDF type, and the sorted-vector oracle it must
    // match bit for bit.
    OnlineHistogram cdfs[4];
    EmpiricalCdf oracles[4];
    for (const ServerScan &scan : scans) {
        for (int i = 0; i < 4; ++i) {
            // Every per-server fraction is a fraction.
            EXPECT_GE(scan.freeContiguity[i], 0.0);
            EXPECT_LE(scan.freeContiguity[i], 1.0);
            cdfs[i].add(scan.freeContiguity[i] * 100.0);
            oracles[i].add(scan.freeContiguity[i] * 100.0);
        }
        // Coarser granularity can only hold less of free memory: a
        // free 1 GB block is made of free 32 MB blocks, and so on.
        EXPECT_GE(scan.freeContiguity[0], scan.freeContiguity[1]);
        EXPECT_GE(scan.freeContiguity[1], scan.freeContiguity[2]);
        EXPECT_GE(scan.freeContiguity[2], scan.freeContiguity[3]);
    }

    const double thresholds[] = {0,  2,  5,  10, 15,
                                 20, 30, 50, 80, 100};
    for (int i = 0; i < 4; ++i) {
        double prev = -1.0;
        for (const double x : thresholds) {
            const double f = cdfs[i].fractionAtOrBelow(x);
            EXPECT_EQ(f, oracles[i].fractionAtOrBelow(x))
                << "streamed CDF differs from the oracle at " << x;
            EXPECT_GE(f, 0.0);
            EXPECT_LE(f, 1.0);
            EXPECT_GE(f, prev) << "CDF not monotone at " << x;
            prev = f;
        }
        EXPECT_DOUBLE_EQ(cdfs[i].fractionAtOrBelow(100.0), 1.0);
    }

    // Granularity ordering lifts to the CDFs: at any threshold, at
    // least as many servers sit at-or-below it for 1 GB as for 2 MB.
    for (const double x : thresholds) {
        EXPECT_LE(cdfs[0].fractionAtOrBelow(x),
                  cdfs[3].fractionAtOrBelow(x));
    }
}

// ---------------------------------------------------------------
// Exact AddrPref placement: placement changes, figures must not
// regress
// ---------------------------------------------------------------

TEST(FigureRegression, ExactPrefKeepsConfinementDirection)
{
    // Exact index-backed AddrPref placement deliberately changes
    // where blocks land (it strengthens the away-from-border bias),
    // so it gets its own regression: the Figure 11 confinement
    // direction must hold at least as well as with the capped scan.
    Fleet::Config exact = figureFleet("contiguitas", 10);
    exact.exactPref = true;
    const auto exactScans = Fleet(exact).run();
    const auto vanillaScans = Fleet(figureFleet("vanilla", 10)).run();

    std::vector<double> exactShare;
    std::vector<double> vanillaShare;
    for (const ServerScan &scan : exactScans)
        exactShare.push_back(scan.unmovableBlocks[0]);
    for (const ServerScan &scan : vanillaScans)
        vanillaShare.push_back(scan.unmovableBlocks[0]);

    const double exactMean = mean(exactShare);
    const double vanillaMean = mean(vanillaShare);
    EXPECT_LT(exactMean, 0.15)
        << "exact AddrPref placement broke confinement";
    EXPECT_GT(vanillaMean, 2.0 * exactMean)
        << "confinement advantage collapsed under exact AddrPref";
}

// ---------------------------------------------------------------
// Policy matrix: every confined policy keeps its direction
// ---------------------------------------------------------------

TEST(FigureRegression, EveryConfinedPolicyBeatsVanilla)
{
    // The sweep matrix's per-policy promise: vanilla scatters (the
    // paper's ~31% contaminated 2 MB blocks), while every
    // region-confining registry entry — dynamic contiguitas, the
    // no-bias ablation and the static ZONE_MOVABLE baseline — keeps
    // the contaminated share to less than half of vanilla's.
    const double vanillaMean =
        meanUnmovableShare(Fleet(figureFleet("vanilla", 10)).run());
    EXPECT_GT(vanillaMean, 0.10)
        << "vanilla fleet lost its fragmentation problem";

    for (const char *policy :
         {"contiguitas", "contiguitas-nobias", "zone-movable"}) {
        const double confinedMean = meanUnmovableShare(
            Fleet(figureFleet(policy, 10)).run());
        EXPECT_LT(confinedMean, 0.15) << policy;
        EXPECT_GT(vanillaMean, 2.0 * confinedMean)
            << policy << " lost its confinement advantage";
    }
}

TEST(FigureRegression, AgingWorkloadsShiftVanillaAsCalibrated)
{
    // The Mansi & Swift profiles must *move* the vanilla figures in
    // their calibrated directions: the pin-storm/kernel-object
    // service carries a much larger unmovable page footprint than
    // the web baseline, and the page-cache-dominated file server
    // contaminates fewer 2 MB blocks (cache pages are movable).
    auto runKind = [](const char *kind) {
        Fleet::Config config = figureFleet("vanilla", 8);
        config.workloadOverride = kind;
        const auto scans = Fleet(config).run();
        double pages = 0.0;
        for (const ServerScan &scan : scans)
            pages += scan.unmovablePageRatio;
        return std::make_pair(meanUnmovableShare(scans),
                              pages / double(scans.size()));
    };
    const auto [webBlocks, webPages] = runKind("web");
    const auto [burstyBlocks, burstyPages] =
        runKind("unmovable-bursty");
    const auto [fsBlocks, fsPages] = runKind("fs-cache");

    ASSERT_GT(webPages, 0.0);
    EXPECT_GT(burstyPages, 1.5 * webPages)
        << "pin storms lost their unmovable footprint";
    EXPECT_GE(burstyBlocks, webBlocks)
        << "pin storms stopped scattering unmovable pages";
    EXPECT_LT(fsBlocks, webBlocks)
        << "page-cache-heavy profile lost its movable skew";
    (void)fsPages;
}

} // namespace
} // namespace ctg
