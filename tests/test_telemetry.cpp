/**
 * @file
 * Telemetry subsystem tests: metrics registry semantics (counters,
 * gauges, fixed-bucket histograms, merging), the thread-local span
 * tracer and its RAII scopes, integration with the compile stages,
 * and the contracts the subsystem promises: deterministic
 * serialization across batch thread counts, zero effect on
 * CompileReport::metricsSummary(), and no allocation without a sink.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "compiler/batch.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"

// Sanitizer runtimes supply their own operator new; this binary only
// counts allocations where the replacement below is the one in use.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AB_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AB_SANITIZER_ALLOCATOR 1
#endif
#endif

#ifndef AB_SANITIZER_ALLOCATOR
namespace {

/** Every global operator new call in this test binary. */
std::atomic<long> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler never pairs an inlined free() with a
// builtin operator new at a call site.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#endif

namespace autobraid {
namespace telemetry {
namespace {

TEST(Histogram, BucketsAndStats)
{
    Histogram h({1, 2, 4});
    ASSERT_EQ(h.counts.size(), 4u); // 3 bounds + overflow
    h.observe(1);   // <= 1
    h.observe(1.5); // <= 2
    h.observe(4);   // <= 4
    h.observe(100); // overflow
    EXPECT_EQ(h.counts[0], 1u);
    EXPECT_EQ(h.counts[1], 1u);
    EXPECT_EQ(h.counts[2], 1u);
    EXPECT_EQ(h.counts[3], 1u);
    EXPECT_EQ(h.count, 4u);
    EXPECT_DOUBLE_EQ(h.sum, 106.5);
    EXPECT_DOUBLE_EQ(h.min, 1);
    EXPECT_DOUBLE_EQ(h.max, 100);
    EXPECT_DOUBLE_EQ(h.mean(), 106.5 / 4);
}

TEST(Histogram, MergeAccumulates)
{
    Histogram a({1, 2});
    Histogram b({1, 2});
    a.observe(1);
    b.observe(2);
    b.observe(50);
    a.merge(b);
    EXPECT_EQ(a.count, 3u);
    EXPECT_EQ(a.counts[0], 1u);
    EXPECT_EQ(a.counts[1], 1u);
    EXPECT_EQ(a.counts[2], 1u);
    EXPECT_DOUBLE_EQ(a.min, 1);
    EXPECT_DOUBLE_EQ(a.max, 50);
}

TEST(MetricsRegistry, CountersGaugesHistograms)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    reg.add("c");
    reg.add("c", 4);
    reg.set("g", 1.5);
    reg.set("g", 2.5); // last write wins
    reg.observe("h", 3, powerOfTwoBounds());
    EXPECT_FALSE(reg.empty());
    EXPECT_EQ(reg.counter("c"), 5);
    EXPECT_DOUBLE_EQ(reg.gauge("g"), 2.5);
    EXPECT_EQ(reg.histogram("h").count, 1u);
    EXPECT_EQ(reg.counter("absent"), 0);
    EXPECT_EQ(reg.histogram("absent").count, 0u);
}

TEST(MetricsRegistry, MergeAndDeterministicRendering)
{
    MetricsRegistry a, b;
    a.add("n", 1);
    b.add("n", 2);
    b.set("g", 9);
    a.observe("h", 5);
    b.observe("h", 7);
    a.merge(b);
    EXPECT_EQ(a.counter("n"), 3);
    EXPECT_DOUBLE_EQ(a.gauge("g"), 9);
    EXPECT_EQ(a.histogram("h").count, 2u);

    // Same contents => byte-identical JSON.
    MetricsRegistry c;
    c.add("n", 3);
    c.set("g", 9);
    c.observe("h", 5);
    c.observe("h", 7);
    EXPECT_EQ(a.toJson(), c.toJson());
}

TEST(Sink, ScopeInstallsAndRestores)
{
    EXPECT_EQ(current(), nullptr);
    Telemetry outer;
    {
        TelemetryScope a(&outer);
        EXPECT_EQ(current(), &outer);
        {
            // Installing nullptr actively disables telemetry: a nested
            // compile with telemetry off must not leak into `outer`.
            TelemetryScope b(nullptr);
            EXPECT_EQ(current(), nullptr);
            count("leak");
        }
        EXPECT_EQ(current(), &outer);
        count("kept");
    }
    EXPECT_EQ(current(), nullptr);
    EXPECT_EQ(outer.metrics().counter("leak"), 0);
    EXPECT_EQ(outer.metrics().counter("kept"), 1);
}

TEST(Sink, SinkIsPerThread)
{
    Telemetry mine;
    TelemetryScope scope(&mine);
    Telemetry *seen = &mine;
    std::thread([&seen] { seen = current(); }).join();
    EXPECT_EQ(seen, nullptr); // other threads see no sink
    EXPECT_EQ(current(), &mine);
}

TEST(Spans, RecordedOnlyWithSink)
{
    { AUTOBRAID_SPAN("orphan"); } // no sink: must be a no-op
    Telemetry t;
    {
        TelemetryScope scope(&t);
        AUTOBRAID_SPAN("outer");
        { AUTOBRAID_SPAN("inner"); }
    }
    const auto spans = t.tracer().spans();
    ASSERT_EQ(spans.size(), 2u);
    // Completion order: inner closes before outer.
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_GE(spans[1].dur_us, spans[0].dur_us);
}

TEST(Spans, NoAllocationWithoutSink)
{
#ifdef AB_SANITIZER_ALLOCATOR
    GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
    ASSERT_EQ(current(), nullptr);
    const long before = g_allocations.load();
    // Longer than any inline string buffer: copying the name would
    // allocate on every span.
    for (int i = 0; i < 1000; ++i) {
        AUTOBRAID_SPAN("route.stack_finder");
    }
    EXPECT_EQ(g_allocations.load() - before, 0);
#endif
}

TEST(Spans, DisabledSpansStillCollectMetrics)
{
    TelemetryOptions opts;
    opts.enabled = true;
    opts.spans = false;
    Telemetry t(opts);
    {
        TelemetryScope scope(&t);
        AUTOBRAID_SPAN("skipped");
        AUTOBRAID_COUNT("seen");
    }
    EXPECT_EQ(t.tracer().spanCount(), 0u);
    EXPECT_EQ(t.metrics().counter("seen"), 1);
}

TEST(Spans, BufferCapCountsDrops)
{
    Tracer tracer(2);
    for (int i = 0; i < 5; ++i)
        tracer.record("s", 0, 0.0, 1.0);
    EXPECT_EQ(tracer.spanCount(), 2u);
    EXPECT_EQ(tracer.droppedCount(), 3u);
}

TEST(CompileIntegration, MetricsAndSpansPopulated)
{
    const Circuit circuit = gen::make("qft:12");
    CompileOptions opt;
    opt.telemetry.enabled = true;
    opt.lint.level = lint::LintLevel::All;
    opt.schedule_out = ::testing::TempDir() + "ab_spans_schedule.json";
    const CompileReport report = compileCircuit(circuit, opt);
    ASSERT_NE(report.telemetry, nullptr);

    const MetricsRegistry &m = report.telemetry->metrics();
    EXPECT_FALSE(m.empty());
    // The paper-level metrics named in the instrumentation plan.
    EXPECT_GT(m.histogram("sched.braid_path_length").count, 0u);
    EXPECT_GT(m.histogram("route.astar_nodes").count, 0u);
    EXPECT_GT(m.histogram("sched.instant_utilization").count, 0u);
    EXPECT_GT(m.histogram("place.anneal_acceptance").count, 0u);
    EXPECT_GT(m.counter("place.anneal_proposals"), 0);

    // Exactly one pass.<name> span wraps each stage, all nine here.
    std::vector<std::string> pass_spans;
    for (const SpanRecord &s : report.telemetry->tracer().spans())
        if (s.name.rfind("pass.", 0) == 0)
            pass_spans.push_back(s.name);
    std::vector<std::string> stages;
    for (const PassTiming &t : report.pass_timings)
        stages.push_back("pass." + t.pass);
    EXPECT_EQ(stages.size(), 9u);
    EXPECT_EQ(pass_spans, stages);
}

TEST(CompileIntegration, DisabledMeansNoSink)
{
    const Circuit circuit = gen::make("ghz:8");
    const CompileReport report =
        compileCircuit(circuit, CompileOptions{});
    EXPECT_EQ(report.telemetry, nullptr);
}

TEST(CompileIntegration, TelemetryDoesNotChangeMetricsSummary)
{
    const Circuit circuit = gen::make("qaoa:12");
    CompileOptions off;
    CompileOptions on = off;
    on.telemetry.enabled = true;
    const auto roff = compileCircuit(circuit, off);
    const auto ron = compileCircuit(circuit, on);
    EXPECT_EQ(roff.metricsSummary(), ron.metricsSummary());
}

TEST(CompileIntegration, UtilizationTimelineMatchesSchedule)
{
    const Circuit circuit = gen::make("qft:12");
    CompileOptions opt;
    opt.record_trace = true;
    const auto report = compileCircuit(circuit, opt);
    const Grid grid(report.grid_side, report.grid_side);
    const auto timeline = utilizationTimeline(report.result, grid);
    ASSERT_FALSE(timeline.empty());
    double peak = 0;
    for (const UtilPoint &pt : timeline) {
        EXPECT_GE(pt.busy_fraction, 0.0);
        EXPECT_LE(pt.busy_fraction, 1.0);
        peak = std::max(peak, pt.busy_fraction);
    }
    // No dead vertices, so both count over every vertex.
    EXPECT_EQ(peak, report.result.peak_utilization);
    // All channels drain by the end of the schedule.
    EXPECT_EQ(timeline.back().busy_vertices, 0u);
}

/** Satellite check: thread count must not affect telemetry output. */
TEST(BatchDeterminism, MetricsIdenticalAcrossThreadCounts)
{
    const std::vector<std::string> specs{"qft:10", "im:12:2", "ghz:12",
                                         "qaoa:12"};
    auto run = [&specs](int threads) {
        BatchOptions bopt;
        bopt.threads = threads;
        BatchCompiler batch(bopt);
        CompileOptions copt;
        copt.telemetry.enabled = true;
        for (const std::string &spec : specs)
            batch.addSpec(spec, copt);
        return batch.compileAll();
    };
    const auto seq = run(1);
    const auto par = run(8);
    ASSERT_EQ(seq.size(), par.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        ASSERT_TRUE(seq[i].ok && par[i].ok) << specs[i];
        // Deterministic reports are byte-identical...
        EXPECT_EQ(seq[i].report.metricsSummary(),
                  par[i].report.metricsSummary())
            << specs[i];
        // ...and so is each job's telemetry registry.
        ASSERT_NE(seq[i].report.telemetry, nullptr);
        ASSERT_NE(par[i].report.telemetry, nullptr);
        EXPECT_EQ(seq[i].report.telemetry->metrics().toJson(),
                  par[i].report.telemetry->metrics().toJson())
            << specs[i];
    }
    // Input-order aggregation is thread-count independent too.
    EXPECT_EQ(aggregateMetrics(seq).toJson(),
              aggregateMetrics(par).toJson());
}

TEST(ChromeTrace, CarriesScheduleAndUtilization)
{
    const Circuit circuit = gen::make("qft:9");
    CompileOptions opt;
    opt.telemetry.enabled = true;
    opt.record_trace = true;
    const auto report = compileCircuit(circuit, opt);
    const std::string json = chromeTraceJson(report, opt.cost);
    EXPECT_NE(json.find("\"cat\":\"braid\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"utilization\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"span\""), std::string::npos);
    EXPECT_NE(json.find("pass.schedule"), std::string::npos);
}

} // namespace
} // namespace telemetry
} // namespace autobraid
