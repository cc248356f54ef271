/**
 * @file
 * Foundation tests: RNG determinism and distributions, Zipf sampler,
 * statistics (streaming CDF vs. its sorted-vector oracle, Pearson),
 * unit formatting, the table renderer, event-queue ordering
 * guarantees, and the host allocation counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <new>

#include "base/host_mem.hh"
#include "base/rng.hh"
#include "base/span_trace.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "empirical_cdf.hh"
#include "sim/eventq.hh"

namespace ctg
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(7);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.below(8)];
    EXPECT_EQ(counts.size(), 8u);
    for (const auto &[v, c] : counts) {
        EXPECT_GT(c, 800) << v;
        EXPECT_LT(c, 1200) << v;
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        stat.add(u);
    }
    EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.exponential(3.0));
    EXPECT_NEAR(stat.mean(), 3.0, 0.1);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.gaussian(10.0, 2.0));
    EXPECT_NEAR(stat.mean(), 10.0, 0.1);
    EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(42);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(ZipfTest, HotterRanksMoreFrequent)
{
    Zipf zipf(1000, 0.8);
    Rng rng(9);
    std::uint64_t head = 0, tail = 0;
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t rank = zipf.sample(rng);
        ASSERT_LT(rank, 1000u);
        head += rank < 10;
        tail += rank >= 500;
    }
    EXPECT_GT(head, tail);
    EXPECT_GT(head, 5000u); // top-1% gets a large share
}

TEST(ZipfTest, ThetaControlsSkew)
{
    Rng rng(13);
    Zipf mild(1000, 0.3), hot(1000, 0.9);
    std::uint64_t mild_head = 0, hot_head = 0;
    for (int i = 0; i < 30000; ++i) {
        mild_head += mild.sample(rng) < 10;
        hot_head += hot.sample(rng) < 10;
    }
    EXPECT_GT(hot_head, mild_head * 2);
}

TEST(RunningStatTest, Moments)
{
    RunningStat stat;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(v);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.stddev(), 2.138, 0.01);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(WarnRateLimiterTest, GrantsBudgetThenSuppresses)
{
    WarnRateLimiter limiter(3);
    EXPECT_TRUE(limiter.allow());
    EXPECT_TRUE(limiter.allow());
    EXPECT_TRUE(limiter.allow());
    EXPECT_EQ(limiter.suppressed(), 0u);

    EXPECT_FALSE(limiter.allow());
    EXPECT_TRUE(limiter.firstSuppressed());
    EXPECT_FALSE(limiter.allow());
    EXPECT_FALSE(limiter.firstSuppressed());
    EXPECT_EQ(limiter.suppressed(), 2u);
    EXPECT_EQ(limiter.calls(), 5u);
}

TEST(WarnRateLimiterTest, MacroCompilesAndCounts)
{
    // warn_limited keeps a per-call-site static limiter; loop to
    // prove repeated hits stop doing IO without crashing.
    for (int i = 0; i < 5; ++i)
        warn_limited(2, "rate-limited test warning %d", i);
    for (int i = 0; i < 3; ++i)
        warn_once("one-shot test warning"); // printed once
}

TEST(EmpiricalCdfTest, FractionAndQuantile)
{
    EmpiricalCdf cdf;
    for (int i = 1; i <= 100; ++i)
        cdf.add(i);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(50), 0.5);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(1000), 1.0);
    EXPECT_NEAR(cdf.quantile(0.5), 50.0, 1.5);
}

TEST(PearsonTest, PerfectCorrelation)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-9);
    std::vector<double> neg = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-9);
}

TEST(PearsonTest, IndependentNearZero)
{
    Rng rng(21);
    std::vector<double> xs, ys;
    for (int i = 0; i < 5000; ++i) {
        xs.push_back(rng.uniform());
        ys.push_back(rng.uniform());
    }
    EXPECT_NEAR(pearson(xs, ys), 0.0, 0.05);
}

TEST(UnitsTest, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.0 KiB");
    EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3.0 MiB");
    EXPECT_EQ(formatBytes(std::uint64_t{5} << 30), "5.0 GiB");
}

TEST(UnitsTest, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.314), "31.4%");
    EXPECT_EQ(formatPercent(0.5, 0), "50%");
}

TEST(TableTest, AlignsColumns)
{
    Table table("demo");
    table.header({"a", "long-header"});
    table.row({"xxxxx", "1"});
    const std::string out = table.render();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("xxxxx"), std::string::npos);
    // Column two starts at the same offset in both lines.
    const auto h = out.find("long-header");
    const auto v = out.find("1", out.find("xxxxx"));
    const auto h_line_start = out.rfind('\n', h) + 1;
    const auto v_line_start = out.rfind('\n', v) + 1;
    EXPECT_EQ(h - h_line_start, v - v_line_start);
}

TEST(EventQueueTest, FiresInTickOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(30, [&order] { order.push_back(3); });
    queue.schedule(10, [&order] { order.push_back(1); });
    queue.schedule(20, [&order] { order.push_back(2); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueueTest, SameTickFifo)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        queue.schedule(7, [&order, i] { order.push_back(i); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PriorityBeatsInsertion)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(5, [&order] { order.push_back(2); },
                   EventPriority::Maintenance);
    queue.schedule(5, [&order] { order.push_back(1); },
                   EventPriority::HardwareResponse);
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(1, [&] {
        ++fired;
        queue.schedule(1, [&] { ++fired; });
    });
    queue.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(queue.now(), 2u);
}

TEST(EventQueueTest, RunWithLimitStops)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(10, [&] { ++fired; });
    queue.schedule(100, [&] { ++fired; });
    queue.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.pending(), 1u);
}

TEST(LoggingTest, PanicThrows)
{
    EXPECT_THROW(panic("boom %d", 1), PanicError);
    EXPECT_THROW(fatal("bad config"), FatalError);
    try {
        panic("value=%d", 42);
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=42"),
                  std::string::npos);
    }
}

/** RAII guard: every trace-flag test leaves the mask empty. */
struct TraceMaskGuard
{
    ~TraceMaskGuard() { spans::disableAll(); }
};

TEST(TraceFlagsTest, SetFromStringEnablesListedFlags)
{
    const TraceMaskGuard guard;
    spans::disableAll();
    spans::setFromString("Buddy,Region");
    EXPECT_TRUE(spans::enabled(TraceFlag::Buddy));
    EXPECT_TRUE(spans::enabled(TraceFlag::Region));
    EXPECT_FALSE(spans::enabled(TraceFlag::Migrate));
}

TEST(TraceFlagsTest, SetFromStringAllEnablesEveryFlag)
{
    const TraceMaskGuard guard;
    spans::disableAll();
    spans::setFromString("All");
    EXPECT_EQ(spans::mask_.load(), spans::allFlagsMask());
}

TEST(TraceFlagsTest, SetFromStringEmptyAndSeparatorsAreNoops)
{
    const TraceMaskGuard guard;
    spans::disableAll();
    spans::setFromString("");
    EXPECT_EQ(spans::mask_.load(), 0u);
    spans::setFromString(",,  , ");
    EXPECT_EQ(spans::mask_.load(), 0u);
}

TEST(TraceFlagsTest, SetFromStringIgnoresUnknownFlags)
{
    const TraceMaskGuard guard;
    spans::disableAll();
    spans::setFromString("Bogus,Buddy,AlsoNotAFlag");
    EXPECT_EQ(spans::mask_.load(),
              static_cast<std::uint32_t>(TraceFlag::Buddy));
}

TEST(TraceFlagsTest, SetFromStringIsCaseSensitive)
{
    const TraceMaskGuard guard;
    spans::disableAll();
    // Flag names are exact: lowercase or shouty variants are unknown
    // flags, warned about and ignored, not silently matched.
    spans::setFromString("buddy,REGION,migrate");
    EXPECT_EQ(spans::mask_.load(), 0u);
}

TEST(TraceFlagsTest, SetFromStringTrailingCommaAndSpaces)
{
    const TraceMaskGuard guard;
    spans::disableAll();
    spans::setFromString("Buddy, Region,");
    EXPECT_TRUE(spans::enabled(TraceFlag::Buddy));
    EXPECT_TRUE(spans::enabled(TraceFlag::Region));
}

TEST(TraceFlagsTest, FlagFromNameRoundTripsEveryName)
{
    const TraceFlag all[] = {
        TraceFlag::Buddy,     TraceFlag::Compaction,
        TraceFlag::Migrate,   TraceFlag::Shootdown,
        TraceFlag::ChwEngine, TraceFlag::Region,
        TraceFlag::Fleet,     TraceFlag::Kernel,
        TraceFlag::Faults,
    };
    std::uint32_t mask = 0;
    for (const TraceFlag flag : all) {
        TraceFlag parsed;
        ASSERT_TRUE(spans::flagFromName(spans::flagName(flag),
                                        &parsed));
        EXPECT_EQ(parsed, flag);
        mask |= static_cast<std::uint32_t>(flag);
    }
    // The list above is every flag: nothing in the table is missed.
    EXPECT_EQ(mask, spans::allFlagsMask());
    TraceFlag unused;
    EXPECT_FALSE(spans::flagFromName("?", &unused));
    EXPECT_FALSE(spans::flagFromName("", &unused));
    EXPECT_FALSE(spans::flagFromName("Tlb", &unused));
}

/** RAII guard: span tests leave no collected state or flags behind. */
struct SpanResetGuard
{
    ~SpanResetGuard() { spans::resetForTest(); }
};

TEST(SpanTraceTest, DisabledSpansAreInert)
{
    const SpanResetGuard guard;
    spans::resetForTest();
    {
        CTG_SPAN(Region, "never.recorded", {{"k", 1}});
        CTG_SPAN_EVENT(Region, "never.either");
    }
    EXPECT_EQ(spans::collectedCount(), 0u);
    EXPECT_EQ(spans::newFlowId(), 0u);
}

TEST(SpanTraceTest, NestedSpansRecordParentsAndEndArgs)
{
    const SpanResetGuard guard;
    spans::resetForTest();
    spans::enableAll();
    {
        CTG_SPAN_NAMED(outer, Region, "outer", {{"pages", 8}});
        {
            CTG_SPAN_NAMED(inner, Migrate, "inner");
            inner.arg("dst", 17);
            EXPECT_TRUE(inner.active());
        }
    }
    const auto events = spans::collectedEvents();
    ASSERT_EQ(events.size(), 4u);
    using Phase = spans::Event::Phase;
    EXPECT_EQ(events[0].phase, Phase::Begin);
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_EQ(events[0].parent, 0u);
    ASSERT_EQ(events[0].nargs, 1u);
    EXPECT_STREQ(events[0].args[0].key, "pages");
    EXPECT_EQ(events[0].args[0].value, 8);

    EXPECT_EQ(events[1].phase, Phase::Begin);
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_EQ(events[1].parent, events[0].id);

    EXPECT_EQ(events[2].phase, Phase::End);
    EXPECT_EQ(events[2].id, events[1].id);
    ASSERT_EQ(events[2].nargs, 1u);
    EXPECT_STREQ(events[2].args[0].key, "dst");
    EXPECT_EQ(events[2].args[0].value, 17);

    EXPECT_EQ(events[3].phase, Phase::End);
    EXPECT_EQ(events[3].id, events[0].id);

    // Logical timestamps are strictly increasing within the stream.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GT(events[i].ts, events[i - 1].ts);
}

TEST(SpanTraceTest, InstantAndFlowBindToEnclosingSpan)
{
    const SpanResetGuard guard;
    spans::resetForTest();
    spans::enableAll();
    std::uint64_t flow = 0;
    {
        CTG_SPAN(Shootdown, "origin");
        flow = spans::newFlowId();
        EXPECT_NE(flow, 0u);
        spans::flowBegin(TraceFlag::Shootdown, "arrow", flow);
        CTG_SPAN_EVENT(Faults, "fault.fired", {{"round", 2}});
    }
    {
        CTG_SPAN(Shootdown, "completion");
        spans::flowEnd(TraceFlag::Shootdown, "arrow", flow);
    }
    // B origin, s arrow, i fault, E origin, B completion, f arrow,
    // E completion.
    const auto events = spans::collectedEvents();
    ASSERT_EQ(events.size(), 7u);
    using Phase = spans::Event::Phase;
    const auto &origin = events[0];
    EXPECT_EQ(events[1].phase, Phase::FlowBegin);
    EXPECT_EQ(events[1].id, flow);
    EXPECT_EQ(events[1].parent, origin.id);
    EXPECT_EQ(events[2].phase, Phase::Instant);
    EXPECT_EQ(events[2].parent, origin.id);
    const auto &completion = events[4];
    EXPECT_EQ(completion.phase, Phase::Begin);
    EXPECT_EQ(events[5].phase, Phase::FlowEnd);
    EXPECT_EQ(events[5].id, flow);
    EXPECT_EQ(events[5].parent, completion.id);
    EXPECT_EQ(events[6].phase, Phase::End);
    EXPECT_EQ(events[6].id, completion.id);
}

TEST(SpanTraceTest, CaptureBuffersAndPublishesWholeStream)
{
    const SpanResetGuard guard;
    spans::resetForTest();
    spans::enableAll();
    const std::uint32_t stream = spans::reserveStreams(1);
    std::vector<spans::Event> captured;
    {
        spans::Capture capture(stream);
        {
            CTG_SPAN(Region, "in.capture");
        }
        EXPECT_EQ(spans::collectedCount(), 0u)
            << "captured events must not reach the collector early";
        captured = capture.take();
    }
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].stream, stream);
    // Ids encode (stream, sequence): schedule-independent.
    EXPECT_EQ(captured[0].id >> 32, stream);
    spans::publish(captured);
    EXPECT_EQ(spans::collectedCount(), 2u);
}

TEST(SpanTraceTest, FullCaptureDropsWholePairs)
{
    const SpanResetGuard guard;
    spans::resetForTest();
    spans::enableAll();
    const std::uint32_t stream = spans::reserveStreams(1);
    spans::Capture capture(stream, 2);
    {
        CTG_SPAN(Region, "a");
        {
            CTG_SPAN(Region, "b");
            {
                // Begin does not fit: the whole span must vanish,
                // not leave an orphan End.
                CTG_SPAN_NAMED(c, Region, "c");
                EXPECT_FALSE(c.active());
            }
        }
    }
    const auto events = capture.take();
    EXPECT_EQ(capture.dropped(), 1u);
    ASSERT_EQ(events.size(), 4u);
    using Phase = spans::Event::Phase;
    EXPECT_EQ(events[0].phase, Phase::Begin);
    EXPECT_EQ(events[1].phase, Phase::Begin);
    EXPECT_EQ(events[2].phase, Phase::End);
    EXPECT_EQ(events[2].id, events[1].id);
    EXPECT_EQ(events[3].phase, Phase::End);
    EXPECT_EQ(events[3].id, events[0].id);
}

TEST(SpanTraceTest, PublishAtCollectorCapKeepsStreamsBalanced)
{
    const SpanResetGuard guard;
    spans::resetForTest();
    spans::enableAll();
    const std::uint32_t stream = spans::reserveStreams(1);
    std::vector<spans::Event> captured;
    {
        spans::Capture capture(stream);
        {
            CTG_SPAN(Region, "outer");
            for (int i = 0; i < 4; ++i) {
                CTG_SPAN(Region, "inner", {{"i", i}});
            }
        }
        captured = capture.take();
    }
    ASSERT_EQ(captured.size(), 10u); // 5 Begins + 5 Ends

    // Cap of 3: "outer" B and the first "inner" B/E fit; later
    // Begins are dropped at the cap and must take their Ends with
    // them, while outer's End (Begin published) still bypasses it.
    spans::setCollectorCapForTest(3);
    spans::publish(captured);
    const auto events = spans::collectedEvents();
    ASSERT_EQ(events.size(), 4u);
    using Phase = spans::Event::Phase;
    EXPECT_EQ(events[0].phase, Phase::Begin); // outer
    EXPECT_EQ(events[1].phase, Phase::Begin); // inner 0
    EXPECT_EQ(events[2].phase, Phase::End);
    EXPECT_EQ(events[2].id, events[1].id);
    EXPECT_EQ(events[3].phase, Phase::End);
    EXPECT_EQ(events[3].id, events[0].id);
    EXPECT_EQ(spans::droppedCount(), 6u);
    // The export says the trace is truncated, and by how much.
    EXPECT_NE(spans::exportJson().find(
                  "\"otherData\":{\"dropped_events\":6}"),
              std::string::npos);
}

TEST(SpanTraceTest, ExportJsonIsWellFormedTraceEvents)
{
    const SpanResetGuard guard;
    spans::resetForTest();
    spans::enableAll();
    {
        CTG_SPAN(Region, "json.span", {{"pages", 3}});
        CTG_SPAN_EVENT(Region, "json.instant");
    }
    const std::string json = spans::exportJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("json.span"), std::string::npos);
    EXPECT_NE(json.find("\"pages\":3"), std::string::npos);
    // Balanced braces/brackets is a cheap proxy for well-formedness;
    // the CI smoke test runs a real JSON parser over a fleet trace.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(OnlineHistogramTest, MatchesEmpiricalCdfExactly)
{
    Rng rng(99);
    EmpiricalCdf cdf;
    OnlineHistogram hist;
    for (int i = 0; i < 500; ++i) {
        // Coarse quantization forces duplicates, the case where
        // weighted counting could diverge from the sample vector.
        const double v =
            static_cast<double>(rng.below(40)) / 8.0;
        cdf.add(v);
        hist.add(v);
    }
    for (const double frac :
         {0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(hist.quantile(frac), cdf.quantile(frac)) << frac;
    for (const double x : {-1.0, 0.0, 1.99, 2.5, 4.875, 10.0})
        EXPECT_EQ(hist.fractionAtOrBelow(x),
                  cdf.fractionAtOrBelow(x))
            << x;

    // The figures' own inputs: per-server scan fractions (block-count
    // ratios k/n) scaled x100, read at the fig04 and fig05 table
    // thresholds — plus samples exactly on each threshold and one ulp
    // either side, where "<=" decides the row. This pins the
    // fig04/fig05 tables to the sorted-vector CDF bit for bit.
    EmpiricalCdf figCdf;
    OnlineHistogram figHist;
    const auto addBoth = [&](double v) {
        figCdf.add(v);
        figHist.add(v);
    };
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t n = 1 + rng.below(64);
        const std::uint64_t k = rng.below(n + 1);
        addBoth(static_cast<double>(k) / static_cast<double>(n) *
                100.0);
    }
    const double thresholds[] = {0,  2,  5,  10, 15, 20, 25,
                                 30, 40, 50, 60, 80, 100};
    for (const double x : thresholds) {
        addBoth(x);
        addBoth(std::nextafter(x, -1.0));
        addBoth(std::nextafter(x, 200.0));
    }
    for (const double x : thresholds) {
        for (const double probe : {std::nextafter(x, -1.0), x,
                                   std::nextafter(x, 200.0)}) {
            EXPECT_EQ(figHist.fractionAtOrBelow(probe),
                      figCdf.fractionAtOrBelow(probe))
                << probe;
        }
    }
    for (const double frac : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0})
        EXPECT_EQ(figHist.quantile(frac), figCdf.quantile(frac))
            << frac;
}

TEST(OnlineHistogramTest, WeightsAndMoments)
{
    OnlineHistogram hist;
    hist.add(2.0, 3);
    hist.add(5.0);
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_EQ(hist.distinct(), 2u);
    EXPECT_EQ(hist.min(), 2.0);
    EXPECT_EQ(hist.max(), 5.0);
    EXPECT_EQ(hist.sum(), 11.0);
    EXPECT_EQ(hist.mean(), 11.0 / 4.0);
    EXPECT_EQ(hist.quantile(0.0), 2.0);
    EXPECT_EQ(hist.quantile(1.0), 5.0);
    EXPECT_EQ(hist.fractionAtOrBelow(2.0), 0.75);
}

/** Keep `ptr` observable so the compiler cannot elide the
 * new/delete pair around it. */
void
escape(const void *ptr)
{
    asm volatile("" : : "g"(ptr) : "memory");
}

TEST(HostMem, HeapAllocCountSeesEveryNewVariant)
{
    struct alignas(64) Wide
    {
        char bytes[64];
    };
    std::uint64_t before = heapAllocCount();
    const auto advanced = [&before] {
        const std::uint64_t now = heapAllocCount();
        const bool moved = now > before;
        before = now;
        return moved;
    };

    int *plain = new int(7);
    escape(plain);
    EXPECT_TRUE(advanced()) << "plain new";
    delete plain;

    char *array = new char[100];
    escape(array);
    EXPECT_TRUE(advanced()) << "array new";
    delete[] array;

    int *nothrow = new (std::nothrow) int(7);
    ASSERT_NE(nothrow, nullptr);
    escape(nothrow);
    EXPECT_TRUE(advanced()) << "nothrow new";
    delete nothrow;

    Wide *wide = new Wide;
    escape(wide);
    EXPECT_TRUE(advanced()) << "over-aligned new";
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(wide) % alignof(Wide),
              0u);
    delete wide;

    Wide *wideArray = new Wide[3];
    escape(wideArray);
    EXPECT_TRUE(advanced()) << "over-aligned array new";
    EXPECT_EQ(
        reinterpret_cast<std::uintptr_t>(wideArray) % alignof(Wide), 0u);
    delete[] wideArray;

    Wide *wideNothrow = new (std::nothrow) Wide;
    ASSERT_NE(wideNothrow, nullptr);
    escape(wideNothrow);
    EXPECT_TRUE(advanced()) << "over-aligned nothrow new";
    delete wideNothrow;
}

} // namespace
} // namespace ctg
