/**
 * @file
 * Observability-layer tests: StatRegistry registration and naming,
 * group prefixes, the JSON-lines exporters, the StatSampler, trace
 * flags and span events, and the end-to-end server time series (a
 * sampled server run must show a fragmentation trajectory).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "base/span_trace.hh"
#include "base/stat_registry.hh"
#include "fleet/fleet.hh"
#include "fleet/server.hh"
#include "sim/eventq.hh"
#include "sim/stat_sampler.hh"

namespace ctg
{
namespace
{

TEST(StatRegistry, RegistersAndFindsByName)
{
    StatRegistry registry;
    Counter &c = registry.addCounter("srv.mem.allocs", "allocations");
    ++c;
    c += 4;

    const Stat *found = registry.find("srv.mem.allocs");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->kind(), Stat::Kind::Counter);
    EXPECT_DOUBLE_EQ(found->value(), 5.0);
    EXPECT_EQ(found->desc(), "allocations");
    EXPECT_EQ(registry.find("srv.mem.nothing"), nullptr);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(StatRegistry, DuplicateNamePanics)
{
    StatRegistry registry;
    registry.addCounter("dup");
    EXPECT_THROW(registry.addCounter("dup"), PanicError);
    EXPECT_THROW(registry.addGauge("dup", [] { return 0.0; }),
                 PanicError);
}

TEST(StatRegistry, MalformedNamePanics)
{
    StatRegistry registry;
    EXPECT_THROW(registry.addCounter(""), PanicError);
    EXPECT_THROW(registry.addCounter("has space"), PanicError);
    EXPECT_THROW(registry.addCounter("has,comma"), PanicError);
    registry.addCounter("ok-name_1.x"); // all legal characters
}

TEST(StatRegistry, GroupPrefixesNest)
{
    StatRegistry registry;
    const StatGroup root(registry, "server3");
    const StatGroup mem = root.group("mem").group("buddy");
    mem.counter("split_events");
    EXPECT_NE(registry.find("server3.mem.buddy.split_events"),
              nullptr);

    // An empty prefix registers bare leaves.
    const StatGroup bare(registry);
    bare.counter("top_level");
    EXPECT_NE(registry.find("top_level"), nullptr);
}

TEST(StatRegistry, GaugeReadsCallbackAndSettableHoldsValue)
{
    StatRegistry registry;
    double backing = 1.0;
    Gauge &cb = registry.addGauge("live",
                                  [&backing] { return backing; });
    backing = 7.5;
    EXPECT_DOUBLE_EQ(cb.value(), 7.5);

    Gauge &set = registry.addSettableGauge("held");
    set.set(3.25);
    EXPECT_DOUBLE_EQ(set.value(), 3.25);
}

TEST(StatRegistry, DistributionSummarizes)
{
    StatRegistry registry;
    Distribution &d = registry.addDistribution("lat");
    d.sample(1.0);
    d.sample(2.0);
    d.sample(3.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
}

TEST(StatRegistry, JsonLinesRoundTripsValues)
{
    StatRegistry registry;
    Counter &c = registry.addCounter("a.count");
    c += 12;
    registry.addGauge("a.share", [] { return 0.1; });
    Distribution &d = registry.addDistribution("a.lat", "latency");
    d.sample(2.0);
    d.sample(4.0);

    const std::string json = registry.jsonLines();
    // One line per stat, registration order.
    std::vector<std::string> lines;
    std::istringstream in(json);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0],
              "{\"name\":\"a.count\",\"kind\":\"counter\","
              "\"value\":12}");
    EXPECT_NE(lines[1].find("\"value\":0.1"), std::string::npos);
    EXPECT_NE(lines[2].find("\"count\":2"), std::string::npos);
    EXPECT_NE(lines[2].find("\"mean\":3"), std::string::npos);
    EXPECT_NE(lines[2].find("\"min\":2"), std::string::npos);
    EXPECT_NE(lines[2].find("\"max\":4"), std::string::npos);
    EXPECT_NE(lines[2].find("\"desc\":\"latency\""),
              std::string::npos);
}

TEST(StatRegistry, ResetAllClearsEverything)
{
    StatRegistry registry;
    Counter &c = registry.addCounter("c");
    c += 9;
    Distribution &d = registry.addDistribution("d");
    d.sample(1.0);
    registry.resetAll();
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    EXPECT_EQ(d.count(), 0u);
}

TEST(StatSampler, ManualSamplingBuildsSeries)
{
    StatRegistry registry;
    Counter &c = registry.addCounter("events");
    StatSampler sampler(registry);

    for (Tick t = 0; t < 5; ++t) {
        c += 2;
        sampler.sample(t * 10);
    }
    EXPECT_EQ(sampler.sampleCount(), 5u);
    const std::vector<double> *series = sampler.series("events");
    ASSERT_NE(series, nullptr);
    EXPECT_EQ(series->size(), 5u);
    EXPECT_DOUBLE_EQ(series->front(), 2.0);
    EXPECT_DOUBLE_EQ(series->back(), 10.0);
    EXPECT_EQ(sampler.ticks().back(), Tick{40});
}

TEST(StatSampler, LateRegistrationBackfillsZeros)
{
    StatRegistry registry;
    registry.addCounter("early");
    StatSampler sampler(registry);
    sampler.sample(0);
    sampler.sample(1);
    Counter &late = registry.addCounter("late");
    late += 3;
    sampler.sample(2);

    const std::vector<double> *series = sampler.series("late");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->size(), 3u);
    EXPECT_DOUBLE_EQ((*series)[0], 0.0);
    EXPECT_DOUBLE_EQ((*series)[1], 0.0);
    EXPECT_DOUBLE_EQ((*series)[2], 3.0);
}

TEST(StatSampler, JsonExportMatchesSamples)
{
    StatRegistry registry;
    Counter &c = registry.addCounter("n");
    StatSampler sampler(registry);
    ++c;
    sampler.sample(7);

    const std::string json = sampler.jsonLines();
    EXPECT_EQ(json, "{\"tick\":7,\"values\":{\"n\":1}}\n");
}

TEST(Trace, FlagsToggleIndividuallyAndFromString)
{
    spans::disableAll();
    EXPECT_FALSE(spans::enabled(TraceFlag::Buddy));
    spans::enable(TraceFlag::Buddy);
    EXPECT_TRUE(spans::enabled(TraceFlag::Buddy));
    EXPECT_FALSE(spans::enabled(TraceFlag::Region));
    spans::disable(TraceFlag::Buddy);
    EXPECT_FALSE(spans::enabled(TraceFlag::Buddy));

    spans::setFromString("Buddy, Region");
    EXPECT_TRUE(spans::enabled(TraceFlag::Buddy));
    EXPECT_TRUE(spans::enabled(TraceFlag::Region));
    EXPECT_FALSE(spans::enabled(TraceFlag::Fleet));
    spans::setFromString("All");
    EXPECT_TRUE(spans::enabled(TraceFlag::Fleet));
    spans::disableAll();
}

TEST(Trace, SpanEventsCarryTickStampAndArgs)
{
    spans::resetForTest();
    spans::enable(TraceFlag::Kernel);

    EventQueue eventq;
    spans::setTickSource([&eventq] { return eventq.now(); });
    eventq.schedule(42, [] {
        CTG_SPAN_EVENT(Kernel, "probe", {{"value", 7}});
    });
    eventq.run();

    // Disabled flags must not emit (and must not evaluate args).
    bool evaluated = false;
    auto touch = [&evaluated] {
        evaluated = true;
        return 0;
    };
    CTG_SPAN_EVENT(Buddy, "never", {{"value", touch()}});
    EXPECT_FALSE(evaluated);

    spans::clearTickSource();
    const std::vector<spans::Event> events = spans::collectedEvents();
    spans::resetForTest();

    ASSERT_EQ(events.size(), 1u);
    const spans::Event &ev = events[0];
    EXPECT_EQ(ev.phase, spans::Event::Phase::Instant);
    EXPECT_EQ(ev.flag, TraceFlag::Kernel);
    EXPECT_STREQ(ev.name, "probe");
    EXPECT_EQ(ev.tick, 42u);
    ASSERT_EQ(ev.nargs, 1u);
    EXPECT_STREQ(ev.args[0].key, "value");
    EXPECT_EQ(ev.args[0].value, 7);
}

TEST(Trace, FlagNames)
{
    EXPECT_STREQ(spans::flagName(TraceFlag::Buddy), "Buddy");
    EXPECT_STREQ(spans::flagName(TraceFlag::ChwEngine), "ChwEngine");
}

// The acceptance scenario: a sampled server run must produce a
// multi-stat time series long enough to show the fragmentation
// trajectory over simulated time.
TEST(FleetTelemetry, ServerRunEmitsFragmentationTimeSeries)
{
    Server::Config config;
    config.memBytes = std::uint64_t{256} << 20;
    config.uptimeSec = 12.0;
    config.stepSec = 1.0;
    config.seed = 0x7e1e;
    Server server(config);

    StatRegistry registry;
    StatSampler sampler(registry);
    server.attachTelemetry(registry, &sampler, "server0");
    server.run();

    // >= 10 snapshots (one per step plus the boot sample) of a
    // multi-stat registry.
    EXPECT_GE(sampler.sampleCount(), 10u);
    EXPECT_GE(sampler.statNames().size(), 2u);

    const std::vector<double> *frag =
        sampler.series("server0.frag.free_contiguity_2m");
    ASSERT_NE(frag, nullptr);
    const std::vector<double> *unmov =
        sampler.series("server0.frag.unmovable_blocks_2m");
    ASSERT_NE(unmov, nullptr);
    const std::vector<double> *clock =
        sampler.series("server0.kernel.now_seconds");
    ASSERT_NE(clock, nullptr);

    // The trajectory moves: churn must degrade contiguity from the
    // pristine boot layout, and time must advance monotonically.
    EXPECT_GT(frag->front(), frag->back());
    EXPECT_GT(unmov->back(), 0.0);
    EXPECT_LT(clock->front(), clock->back());
    for (std::size_t i = 1; i < sampler.ticks().size(); ++i)
        EXPECT_LE(sampler.ticks()[i - 1], sampler.ticks()[i]);

    // The kernel's ad-hoc counters ride along in the same series.
    EXPECT_NE(sampler.series("server0.kernel.pins"), nullptr);
    EXPECT_NE(sampler.series("server0.workload.resident_pages"),
              nullptr);

    // And the scalar exporters still see every stat.
    const std::string json = registry.jsonLines();
    EXPECT_NE(json.find("server0.mem.buddy.alloc_calls"),
              std::string::npos);
    EXPECT_NE(json.find("server0.frag.free_contiguity_2m"),
              std::string::npos);
}

TEST(FleetTelemetry, FleetAggregatesIntoDistributions)
{
    Fleet::Config config;
    config.servers = 3;
    config.memBytes = std::uint64_t{256} << 20;
    config.minUptimeSec = 2.0;
    config.maxUptimeSec = 4.0;
    config.seed = 0xbeef;

    Fleet fleet(config);
    StatRegistry registry;
    fleet.attachTelemetry(registry);
    const std::vector<ServerScan> scans = fleet.run();
    ASSERT_EQ(scans.size(), 3u);

    const Stat *servers = registry.find("fleet.servers_run");
    ASSERT_NE(servers, nullptr);
    EXPECT_DOUBLE_EQ(servers->value(), 3.0);
    const Stat *contig =
        registry.find("fleet.free_contiguity_2m");
    ASSERT_NE(contig, nullptr);
}

TEST(FleetTelemetry, ContiguitasPolicyTreeIsRegistered)
{
    Server::Config config;
    config.memBytes = std::uint64_t{256} << 20;
    config.policy.name = "contiguitas";
    config.uptimeSec = 4.0;
    config.seed = 0xf00d;
    Server server(config);

    StatRegistry registry;
    server.attachTelemetry(registry, nullptr, "s");
    server.run();

    const std::string json = registry.jsonLines();
    // Region manager, resize controller and both region buddies all
    // surface through the one registry.
    EXPECT_NE(json.find("s.ctg.region.expansions"),
              std::string::npos);
    EXPECT_NE(json.find("s.ctg.controller.evaluations"),
              std::string::npos);
    EXPECT_NE(json.find("s.mem.unmovable.buddy.alloc_calls"),
              std::string::npos);
    EXPECT_NE(json.find("s.mem.movable.buddy.free_pages"),
              std::string::npos);
}

} // namespace
} // namespace ctg
