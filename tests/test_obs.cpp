// Tracing & metrics layer tests: zero-cost disabled path, nested spans
// (including cross-thread parent adoption through the ThreadPool),
// counters/gauges/metadata, Chrome trace_event JSON round-trips through
// the YAML/JSON parser, Caliper forwarding, and the clean-vs-chaos
// TraceDiff that isolates injected fault latency (the acceptance
// scenario: retry spans equal installer report attempt counts).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/analysis/analysis.hpp"
#include "src/buildcache/binary_cache.hpp"
#include "src/concretizer/concretizer.hpp"
#include "src/install/installer.hpp"
#include "src/obs/trace.hpp"
#include "src/obs/trace_diff.hpp"
#include "src/perf/caliper.hpp"
#include "src/pkg/repo.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/parallel.hpp"
#include "src/yaml/parser.hpp"

namespace cz = benchpark::concretizer;
namespace install = benchpark::install;
namespace obs = benchpark::obs;
namespace pkg = benchpark::pkg;
namespace perf = benchpark::perf;
namespace support = benchpark::support;
using benchpark::buildcache::BinaryCache;
using benchpark::spec::Version;

namespace {

/// Enable the global collector for one test and restore the disabled,
/// empty state afterwards (mirrors ScopedFaultPlan).
class ScopedTrace {
public:
  ScopedTrace() {
    auto& c = obs::TraceCollector::global();
    c.reset();
    c.set_enabled(true);
  }
  ~ScopedTrace() {
    auto& c = obs::TraceCollector::global();
    c.set_enabled(false);
    c.reset();
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

cz::Concretizer simple_concretizer() {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.set_default_target("broadwell");
  config.package("mpi").preferred_providers = {"mvapich2"};
  return cz::Concretizer(pkg::default_repo_stack(), config);
}

/// One root through the unified API, legacy semantics (fresh context,
/// serial, no memo cache).
benchpark::spec::Spec concretize1(const cz::Concretizer& c,
                                  const std::string& text) {
  cz::ConcretizeRequest request;
  request.roots = {benchpark::spec::Spec::parse(text)};
  request.unify = false;
  request.use_cache = false;
  request.threads = 1;
  return std::move(c.concretize_all(request).specs.front());
}

}  // namespace

// ----------------------------------------------------- disabled path

TEST(TraceCollector, DisabledByDefaultAndRecordsNothing) {
  obs::TraceCollector collector;
  EXPECT_FALSE(collector.enabled());
  EXPECT_EQ(collector.begin_span("x"), 0u);
  collector.end_span(0);  // no-op, must not throw
  collector.counter_add("n");
  collector.gauge_set("g", 1.0);
  collector.attach_metadata("k", "v");
  collector.emit_span("m", "", 1.0);
  collector.instant("i");
  {
    obs::ScopedSpan span(collector, "scoped");
    EXPECT_FALSE(span.active());
    span.annotate("ignored", "yes");
  }
  EXPECT_EQ(collector.event_count(), 0u);
  auto trace = collector.snapshot();
  EXPECT_TRUE(trace.events.empty());
  EXPECT_TRUE(trace.counters.empty());
  EXPECT_TRUE(trace.gauges.empty());
  EXPECT_TRUE(trace.metadata.empty());
}

TEST(TraceCollector, DisabledRunOfInstrumentedCodeEmitsZeroEvents) {
  // The built-in instrumentation all goes through the global collector;
  // with tracing off a full install must leave it empty. Disable
  // explicitly — CI may export BENCHPARK_TRACE=1 for other suites.
  auto& global = obs::TraceCollector::global();
  global.set_enabled(false);
  global.reset();
  ASSERT_FALSE(global.enabled());

  auto concretizer = simple_concretizer();
  auto concrete = concretize1(concretizer, "amg2023");
  install::InstallTree tree;
  BinaryCache cache;
  install::Installer installer(pkg::default_repo_stack(), &tree, &cache);
  auto report = installer.install(concrete);
  EXPECT_GT(report.total_attempts, 0u);

  EXPECT_EQ(global.event_count(), 0u);
  auto trace = global.snapshot();
  EXPECT_TRUE(trace.events.empty());
  EXPECT_TRUE(trace.counters.empty());
}

// ------------------------------------------------------ span nesting

TEST(TraceCollector, SpansNestAndCarryParents) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  auto outer = collector.begin_span("outer", "test");
  ASSERT_NE(outer, 0u);
  EXPECT_EQ(collector.current_span(), outer);
  auto inner = collector.begin_span("inner", "test");
  ASSERT_NE(inner, 0u);
  EXPECT_EQ(collector.current_span(), inner);
  collector.annotate("depth", "2");
  collector.end_span(inner);
  collector.end_span(outer);

  auto trace = collector.snapshot();
  ASSERT_EQ(trace.events.size(), 2u);
  const auto* in = trace.find_span("inner");
  const auto* out = trace.find_span("outer");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(in->parent, out->id);
  EXPECT_EQ(out->parent, 0u);
  ASSERT_NE(in->arg("depth"), nullptr);
  EXPECT_EQ(*in->arg("depth"), "2");
  // Inner closed first, so it is recorded first; containment holds.
  EXPECT_LE(out->ts_us, in->ts_us);
  EXPECT_GE(out->end_us(), in->end_us());
}

TEST(TraceCollector, MismatchedEndThrows) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  auto outer = collector.begin_span("outer");
  auto inner = collector.begin_span("inner");
  EXPECT_THROW(collector.end_span(outer), benchpark::Error);
  collector.end_span(inner);
  collector.end_span(outer);
}

TEST(TraceCollector, CategoryFilterDropsOtherCategories) {
  obs::TraceCollector collector;
  collector.configure("install,buildcache");
  EXPECT_TRUE(collector.enabled());
  EXPECT_TRUE(collector.category_enabled("install"));
  EXPECT_FALSE(collector.category_enabled("ci"));
  EXPECT_EQ(collector.begin_span("job", "ci"), 0u);
  auto id = collector.begin_span("pkg:zlib", "install");
  ASSERT_NE(id, 0u);
  collector.end_span(id);
  auto trace = collector.snapshot();
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].name, "pkg:zlib");
}

TEST(TraceCollector, ConfigureGrammar) {
  obs::TraceCollector collector;
  for (const char* off : {"", "0", "off", "false", "OFF"}) {
    collector.configure("1");
    collector.configure(off);
    EXPECT_FALSE(collector.enabled()) << "spec: '" << off << "'";
  }
  for (const char* on : {"1", "on", "true", "all", "ALL"}) {
    collector.configure("0");
    collector.configure(on);
    EXPECT_TRUE(collector.enabled()) << "spec: '" << on << "'";
    EXPECT_TRUE(collector.category_enabled("anything"));
  }
}

TEST(TraceCollector, EmitSpanIsModeledAndConvertsSeconds) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  collector.emit_span("attempt", "install", 1.5, {{"package", "zlib"}});
  auto trace = collector.snapshot();
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_TRUE(trace.events[0].modeled);
  EXPECT_DOUBLE_EQ(trace.events[0].dur_us, 1.5e6);
  ASSERT_NE(trace.events[0].arg("package"), nullptr);
  EXPECT_EQ(*trace.events[0].arg("package"), "zlib");
}

TEST(TraceCollector, CountersGaugesAndMetadata) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  collector.counter_add("hits");
  collector.counter_add("hits", 4);
  collector.counter_add("misses", -1);
  collector.gauge_set("depth", 3.0);
  collector.gauge_set("depth", 7.5);  // gauges overwrite
  collector.attach_metadata("system", "cts1");
  auto trace = collector.snapshot();
  EXPECT_EQ(trace.counters.at("hits"), 5);
  EXPECT_EQ(trace.counters.at("misses"), -1);
  EXPECT_DOUBLE_EQ(trace.gauges.at("depth"), 7.5);
  EXPECT_EQ(trace.metadata.at("system"), "cts1");
}

TEST(TraceCollector, ResetPreservesEnablementAndRestartsEpoch) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  auto id = collector.begin_span("s");
  collector.end_span(id);
  collector.counter_add("n");
  collector.reset();
  EXPECT_TRUE(collector.enabled());
  EXPECT_EQ(collector.event_count(), 0u);
  EXPECT_TRUE(collector.snapshot().counters.empty());
  auto id2 = collector.begin_span("t");
  collector.end_span(id2);
  auto trace = collector.snapshot();
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_GE(trace.events[0].ts_us, 0.0);  // epoch restarted
}

// ----------------------------------------------- cross-thread parents

TEST(TraceCollector, ScopedParentAdoptsAmbientSpan) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  auto root = collector.begin_span("root");
  std::thread worker([&] {
    obs::ScopedParent ambient(collector, root);
    auto child = collector.begin_span("child");
    collector.end_span(child);
  });
  worker.join();
  collector.end_span(root);
  auto trace = collector.snapshot();
  const auto* child = trace.find_span("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->parent, root);
}

TEST(TraceCollector, ThreadPoolBatchNestsUnderSubmitterSpan) {
  ScopedTrace guard;
  auto& collector = obs::TraceCollector::global();
  auto root = collector.begin_span("batch_root");
  std::atomic<int> ran{0};
  support::parallel_for(64, 4, [&](std::size_t lo, std::size_t hi) {
    obs::ScopedSpan span("chunk", "test");
    ran.fetch_add(static_cast<int>(hi - lo));
  });
  collector.end_span(root);
  EXPECT_EQ(ran.load(), 64);

  auto trace = collector.snapshot();
  const auto* batch = trace.find_span("pool.batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->parent, root);
  auto chunks = trace.named("chunk");
  ASSERT_FALSE(chunks.empty());
  for (const auto* chunk : chunks) {
    EXPECT_EQ(chunk->parent, batch->id)
        << "chunk on tid " << chunk->tid << " lost its ambient parent";
  }
}

// --------------------------------------------------- JSON round trip

TEST(TraceJson, ChromeJsonRoundTripsThroughYamlParser) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  auto outer = collector.begin_span("outer", "cat-a");
  collector.annotate("quote", "say \"hi\"\tok");
  auto inner = collector.begin_span("in/ner", "cat-b");
  collector.end_span(inner);
  collector.end_span(outer);
  collector.emit_span("modeled", "cat-a", 0.25, {{"k", "v"}});
  collector.instant("tick", "cat-a");
  collector.counter_add("hits", 42);
  collector.gauge_set("depth", 2.5);
  collector.attach_metadata("benchmark", "amg2023");

  auto trace = collector.snapshot();
  std::string json = trace.to_chrome_json();
  // Single line (the YAML parser is line-based).
  EXPECT_EQ(json.find('\n'), std::string::npos);

  auto parsed = obs::Trace::from_chrome_json(std::string_view{json});
  ASSERT_EQ(parsed.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const auto& a = trace.events[i];
    const auto& b = parsed.events[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(static_cast<int>(a.phase), static_cast<int>(b.phase));
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.tid, b.tid);
    EXPECT_EQ(a.modeled, b.modeled);
    EXPECT_NEAR(a.ts_us, b.ts_us, 1e-3);
    EXPECT_NEAR(a.dur_us, b.dur_us, 1e-3);
    EXPECT_EQ(a.args, b.args);
  }
  EXPECT_EQ(parsed.counters, trace.counters);
  EXPECT_EQ(parsed.gauges, trace.gauges);
  EXPECT_EQ(parsed.metadata, trace.metadata);
}

TEST(TraceJson, ParsesHandWrittenChromeTrace) {
  auto trace = obs::Trace::from_chrome_json(std::string_view{
      R"({"traceEvents":[{"name":"root","ph":"X","ts":0,"dur":10,"id":1,)"
      R"("pid":1,"tid":1,"args":{}},{"name":"leaf","cat":"c","ph":"X",)"
      R"("ts":2,"dur":3,"id":2,"parent":1,"modeled":1,"pid":1,"tid":1,)"
      R"("args":{"k":"v"}}],"otherData":{"run":"chaos"}})"});
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[1].parent, 1u);
  EXPECT_TRUE(trace.events[1].modeled);
  EXPECT_EQ(trace.metadata.at("run"), "chaos");
}

// --------------------------------------------------------- TraceDiff

TEST(TraceDiff, AggregatesPathsWithSelfAndModeledTime) {
  obs::Trace trace;
  obs::TraceEvent root;
  root.name = "install";
  root.id = 1;
  root.ts_us = 0;
  root.dur_us = 100;
  obs::TraceEvent child;
  child.name = "pkg:zlib";
  child.id = 2;
  child.parent = 1;
  child.ts_us = 10;
  child.dur_us = 40;
  obs::TraceEvent modeled;
  modeled.name = "attempt";
  modeled.id = 3;
  modeled.parent = 2;
  modeled.modeled = true;
  modeled.dur_us = 7;
  trace.events = {root, child, modeled};

  auto stats = obs::aggregate_spans(trace);
  ASSERT_EQ(stats.count("install"), 1u);
  ASSERT_EQ(stats.count("install/pkg:zlib"), 1u);
  ASSERT_EQ(stats.count("install/pkg:zlib/attempt"), 1u);
  EXPECT_DOUBLE_EQ(stats["install"].total_us, 100.0);
  EXPECT_DOUBLE_EQ(stats["install"].self_us, 60.0);  // minus real child
  EXPECT_DOUBLE_EQ(stats["install/pkg:zlib"].total_us, 40.0);
  // The modeled attempt does not eat into its parent's self time.
  EXPECT_DOUBLE_EQ(stats["install/pkg:zlib"].self_us, 40.0);
  EXPECT_DOUBLE_EQ(stats["install/pkg:zlib/attempt"].modeled_us, 7.0);
  EXPECT_DOUBLE_EQ(stats["install/pkg:zlib/attempt"].total_us, 0.0);
}

TEST(TraceDiff, RegressionsIsolateAddedModeledLatency) {
  auto make = [](double modeled_us, std::uint64_t attempts) {
    obs::Trace t;
    obs::TraceEvent root;
    root.name = "install";
    root.id = 1;
    root.dur_us = 50;
    t.events.push_back(root);
    for (std::uint64_t a = 0; a < attempts; ++a) {
      obs::TraceEvent e;
      e.name = "attempt";
      e.id = 10 + a;
      e.parent = 1;
      e.modeled = true;
      e.dur_us = modeled_us;
      t.events.push_back(e);
    }
    return t;
  };
  obs::Trace clean = make(5.0, 1);
  obs::Trace chaos = make(5.0, 3);  // two retries, each +5us modeled
  clean.counters["buildcache.hits"] = 4;
  chaos.counters["buildcache.hits"] = 2;

  obs::TraceDiff diff(clean, chaos);
  const auto* delta = diff.find("install/attempt");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->count_delta(), 2);
  EXPECT_DOUBLE_EQ(delta->modeled_delta_us(), 10.0);
  EXPECT_DOUBLE_EQ(delta->delta_us(), 0.0);  // wall clock unchanged

  auto regressions = diff.regressions(1.0);
  ASSERT_FALSE(regressions.empty());
  EXPECT_EQ(regressions.front().path, "install/attempt");
  EXPECT_EQ(diff.counter_deltas().at("buildcache.hits"), -2);
  EXPECT_GT(diff.to_table().num_rows(), 0u);
}

// ------------------------------------------------ Caliper forwarding

TEST(TraceCaliper, RegionsForwardAsSpans) {
  ScopedTrace guard;
  perf::Caliper::reset();
  perf::Caliper::begin("main");
  perf::Caliper::begin("solve");
  perf::Caliper::end("solve");
  perf::Caliper::end("main");
  perf::Caliper::record("main/io", 0.5, 2);
  perf::Adiak::collect("cluster", "tioga");

  auto trace = obs::TraceCollector::global().snapshot();
  const auto* main_span = trace.find_span("main");
  const auto* solve = trace.find_span("solve");
  ASSERT_NE(main_span, nullptr);
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->parent, main_span->id);
  EXPECT_EQ(solve->category, "caliper");
  const auto* recorded = trace.find_span("main/io");
  ASSERT_NE(recorded, nullptr);
  EXPECT_TRUE(recorded->modeled);
  EXPECT_DOUBLE_EQ(recorded->dur_us, 0.5e6);
  EXPECT_EQ(trace.metadata.at("cluster"), "tioga");
  perf::Caliper::reset();
  perf::Adiak::reset();
}

// ------------------------------------- chaos acceptance (Trace+fault)

TEST(TraceInstall, AttemptSpansEqualReportAttempts) {
  ScopedTrace guard;
  auto& collector = obs::TraceCollector::global();

  auto concretizer = simple_concretizer();
  auto concrete = concretize1(concretizer, "amg2023");
  install::InstallTree tree;
  BinaryCache cache;
  install::Installer installer(pkg::default_repo_stack(), &tree, &cache);
  auto report = installer.install(concrete);

  auto trace = collector.snapshot();
  EXPECT_EQ(trace.count_named("attempt"), report.total_attempts);
  // Every non-external, non-already record has a pkg span.
  for (const auto& record : report.installed) {
    auto pkgs = trace.named("pkg:" + record.spec.name());
    EXPECT_FALSE(pkgs.empty()) << record.spec.name();
  }
  const auto* root = trace.find_span("install");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);
}

TEST(TraceInstall, ChaosVsCleanDiffIsolatesInjectedLatency) {
  auto run_install = [](bool chaos) {
    ScopedTrace trace_guard;
    support::ScopedFaultPlan fault_guard;
    auto& plan = support::FaultPlan::global();
    plan.clear();
    if (chaos) {
      support::FaultRule rule;
      rule.site = "install.build_step";
      rule.nth = 1;  // first attempt of every build fails transiently
      rule.kind = support::FaultKind::transient;
      plan.add_rule(rule);
    }
    auto concretizer = simple_concretizer();
    auto concrete = concretize1(concretizer, "amg2023");
    install::InstallTree tree;
    install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
    auto report = installer.install(concrete);
    return std::make_pair(obs::TraceCollector::global().snapshot(), report);
  };

  auto [clean_trace, clean_report] = run_install(false);
  auto [chaos_trace, chaos_report] = run_install(true);

  // Retry spans equal the report's attempt counts in both runs.
  EXPECT_EQ(clean_trace.count_named("attempt"), clean_report.total_attempts);
  EXPECT_EQ(chaos_trace.count_named("attempt"), chaos_report.total_attempts);
  ASSERT_GT(chaos_report.total_attempts, clean_report.total_attempts);

  // The diff pins the extra time onto the attempt spans as *modeled*
  // latency: injected waits never show up as wall-clock time.
  obs::TraceDiff diff(clean_trace, chaos_trace);
  double attempt_modeled_delta = 0.0;
  long long attempt_count_delta = 0;
  for (const auto& row : diff.rows()) {
    if (row.path.size() >= 7 &&
        row.path.compare(row.path.size() - 7, 7, "attempt") == 0) {
      attempt_modeled_delta += row.modeled_delta_us();
      attempt_count_delta += row.count_delta();
    }
  }
  EXPECT_EQ(attempt_count_delta,
            static_cast<long long>(chaos_report.total_attempts) -
                static_cast<long long>(clean_report.total_attempts));
  EXPECT_GT(attempt_modeled_delta, 0.0);
  EXPECT_GT(chaos_report.retry_wait_seconds, 0.0);
}

// ------------------------------------------------- analysis bridge

TEST(TraceBridge, TraceBecomesProfileAndMetrics) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  auto root = collector.begin_span("workflow");
  auto child = collector.begin_span("install");
  collector.end_span(child);
  collector.end_span(root);
  collector.emit_span("attempt", "install", 2.0);
  collector.counter_add("buildcache.hits", 3);
  collector.gauge_set("pool.queue_depth", 5.0);
  collector.attach_metadata("compiler", "gcc");
  auto trace = collector.snapshot();

  benchpark::analysis::AnalysisRequest request;
  request.trace = &trace;
  request.trace_benchmark = "amg2023";
  request.trace_system = "cts1";
  request.trace_experiment = "exp1";
  auto result = benchpark::analysis::run_analysis(request);

  // The span tree is one Thicket column, one region per span path.
  const auto& thicket = result.thicket;
  ASSERT_EQ(thicket.column_names(),
            std::vector<std::string>{"cts1/exp1"});
  EXPECT_EQ(thicket.paths(),
            (std::vector<std::string>{"attempt", "workflow",
                                      "workflow/install"}));
  auto install = thicket.stats_for("workflow/install");
  ASSERT_TRUE(install.has_value());
  EXPECT_EQ(install->present_in, 1u);
  auto attempt = thicket.value("attempt", "cts1/exp1");
  ASSERT_TRUE(attempt.has_value());
  EXPECT_NEAR(*attempt, 2.0, 1e-9);
  // Trace metadata carries over as profile metadata.
  auto with_compiler = thicket.filter(
      [](const std::map<std::string, std::string>& m) {
        auto it = m.find("compiler");
        return it != m.end() && it->second == "gcc";
      });
  EXPECT_EQ(with_compiler.num_profiles(), 1u);

  // Counters and gauges are rows.
  EXPECT_EQ(result.stats.rows_ingested, 2u);
  EXPECT_EQ(result.db.size(), 2u);
  benchpark::analysis::Query q;
  q.fom_name = "buildcache.hits";
  auto rows = result.db.query(q);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0]->value, 3.0);
  EXPECT_EQ(rows[0]->system, "cts1");
}
