// Analysis-layer tests: FOM extraction (Figure 8 semantics), Extra-P
// model fitting (Figure 14), metrics database, Thicket composition, the
// Caliper/Adiak substrate they consume, and the results-dashboard view
// (sparklines, per-series regression scans) of run_analysis over a
// metrics db.
#include <gtest/gtest.h>

#include <cmath>

#include "src/analysis/analysis.hpp"
#include "src/analysis/extrap.hpp"
#include "src/analysis/fom.hpp"
#include "src/analysis/metrics_db.hpp"
#include "src/analysis/report.hpp"
#include "src/analysis/thicket.hpp"
#include "src/perf/caliper.hpp"
#include "src/support/error.hpp"

namespace an = benchpark::analysis;
namespace perf = benchpark::perf;

// -------------------------------------------------------------------- FOM

TEST(Fom, Figure8SuccessRegex) {
  an::FomSpec spec{"success", R"((Kernel done))", "done", ""};
  auto v = an::extract_fom(spec, "stuff\nKernel done\nmore\n");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->raw, "Kernel done");
  EXPECT_FALSE(v->numeric);
}

TEST(Fom, NumericExtraction) {
  an::FomSpec spec{"elapsed", R"(Kernel elapsed: ([0-9.eE+-]+) s)", "t", "s"};
  auto v = an::extract_fom(spec, "Kernel elapsed: 0.00123 s\n");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->numeric);
  EXPECT_DOUBLE_EQ(v->value, 0.00123);
  EXPECT_EQ(v->units, "s");
}

TEST(Fom, MissingReturnsNullopt) {
  an::FomSpec spec{"x", "Nothing like this", "", ""};
  EXPECT_FALSE(an::extract_fom(spec, "output\n").has_value());
}

TEST(Fom, InvalidRegexThrows) {
  an::FomSpec spec{"bad", "([unclosed", "", ""};
  EXPECT_THROW(an::extract_fom(spec, "x"), benchpark::Error);
}

TEST(Fom, ExtractManySkipsMissing) {
  std::vector<an::FomSpec> specs{
      {"a", R"(a=(\d+))", "", ""},
      {"b", R"(b=(\d+))", "", ""},
  };
  auto values = an::extract_foms(specs, "a=5\n");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].name, "a");
  EXPECT_DOUBLE_EQ(values[0].value, 5);
}

TEST(Fom, SuccessCriteriaAllMustMatch) {
  std::vector<an::SuccessCriterion> criteria{{"pass", "Kernel done"},
                                             {"clean", "exit 0"}};
  EXPECT_TRUE(an::evaluate_success(criteria, "Kernel done\nexit 0\n"));
  EXPECT_FALSE(an::evaluate_success(criteria, "Kernel done\n"));
  EXPECT_TRUE(an::evaluate_success({}, "anything"));
}

// ----------------------------------------------------------------- Extra-P

TEST(ExtraP, RecoversLinearModel) {
  // Figure 14's shape: f(p) = -0.64 + 0.0466 p.
  std::vector<an::Measurement> data;
  for (double p : {16, 32, 64, 128, 256, 512, 1024, 2048, 3456}) {
    data.push_back({p, -0.64 + 0.0466 * p});
  }
  auto model = an::fit_scaling_model(data);
  EXPECT_NEAR(model.exponent, 1.0, 1e-9);
  EXPECT_EQ(model.log_exponent, 0);
  EXPECT_NEAR(model.coefficient, 0.0466, 1e-6);
  EXPECT_NEAR(model.constant, -0.64, 1e-6);
  EXPECT_GT(model.r_squared, 0.999);
}

TEST(ExtraP, RecoversLogModel) {
  std::vector<an::Measurement> data;
  for (double p : {2, 4, 8, 16, 32, 64, 128, 256}) {
    data.push_back({p, 3.0 + 0.5 * std::log2(p)});
  }
  auto model = an::fit_scaling_model(data);
  EXPECT_NEAR(model.exponent, 0.0, 1e-9);
  EXPECT_EQ(model.log_exponent, 1);
  EXPECT_NEAR(model.coefficient, 0.5, 1e-6);
}

TEST(ExtraP, RecoversSqrtModel) {
  std::vector<an::Measurement> data;
  for (double p : {4, 16, 64, 256, 1024}) {
    data.push_back({p, 1.0 + 2.0 * std::sqrt(p)});
  }
  auto model = an::fit_scaling_model(data);
  EXPECT_NEAR(model.exponent, 0.5, 1e-9);
  EXPECT_EQ(model.log_exponent, 0);
}

TEST(ExtraP, RecoversPLogPModel) {
  std::vector<an::Measurement> data;
  for (double p : {2, 4, 8, 16, 32, 64, 128}) {
    data.push_back({p, 0.1 * p * std::log2(p)});
  }
  auto model = an::fit_scaling_model(data);
  EXPECT_NEAR(model.exponent, 1.0, 1e-9);
  EXPECT_EQ(model.log_exponent, 1);
}

TEST(ExtraP, ConstantModel) {
  std::vector<an::Measurement> data{{1, 5}, {10, 5}, {100, 5}, {1000, 5}};
  auto model = an::fit_scaling_model(data);
  EXPECT_NEAR(model.evaluate(50), 5.0, 1e-9);
  EXPECT_EQ(model.complexity(), "O(1)");
}

TEST(ExtraP, ToleratesNoise) {
  std::vector<an::Measurement> data;
  double sign = 1;
  for (double p : {16, 32, 64, 128, 256, 512, 1024, 2048}) {
    sign = -sign;
    data.push_back({p, 2.0 + 0.05 * p * (1.0 + sign * 0.03)});
  }
  auto model = an::fit_scaling_model(data);
  // With correlated noise the winning hypothesis may be a neighboring
  // exponent; what matters is predictive quality over the fit range.
  EXPECT_GE(model.exponent, 0.75);
  EXPECT_LE(model.exponent, 1.25);
  EXPECT_GT(model.r_squared, 0.98);
  for (double p : {100.0, 500.0, 1500.0}) {
    double truth = 2.0 + 0.05 * p;
    EXPECT_NEAR(model.evaluate(p), truth, 0.12 * truth) << p;
  }
}

TEST(ExtraP, MeanAggregationBeforeFit) {
  std::vector<an::Measurement> data{
      {8, 1.0}, {8, 3.0},    // mean 2.0
      {16, 3.0}, {16, 5.0},  // mean 4.0
      {32, 8.0},
  };
  auto agg = an::aggregate_mean(data);
  ASSERT_EQ(agg.size(), 3u);
  EXPECT_DOUBLE_EQ(agg[0].value, 2.0);
  EXPECT_DOUBLE_EQ(agg[1].value, 4.0);
}

TEST(ExtraP, TooFewPointsThrows) {
  std::vector<an::Measurement> data{{1, 1}, {2, 2}};
  EXPECT_THROW(an::fit_scaling_model(data), benchpark::Error);
}

TEST(ExtraP, PrintedFormMatchesExtrapStyle) {
  std::vector<an::Measurement> data;
  for (double p : {16, 64, 256, 1024}) data.push_back({p, 2 * p});
  auto model = an::fit_scaling_model(data);
  auto text = model.str();
  EXPECT_NE(text.find("* p^(1)"), std::string::npos) << text;
  EXPECT_EQ(model.complexity(), "O(p^1)");
}

// ------------------------------------------------------------- Caliper

namespace {
void nap_region(const char* name) {
  perf::ScopedRegion region(name);
  // Spin a tiny deterministic amount of work.
  volatile double x = 0;
  for (int i = 0; i < 1000; ++i) x = x + i;
}
}  // namespace

TEST(Caliper, RegionsNestIntoPaths) {
  perf::Caliper::reset();
  {
    perf::ScopedRegion main("main");
    nap_region("solve");
    nap_region("solve");
  }
  auto profile = perf::Caliper::snapshot();
  const auto* solve = profile.find("main/solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->count, 2u);
  const auto* main_region = profile.find("main");
  ASSERT_NE(main_region, nullptr);
  EXPECT_GE(main_region->inclusive_seconds, solve->inclusive_seconds);
}

TEST(Caliper, UnbalancedEndThrows) {
  perf::Caliper::reset();
  perf::Caliper::begin("a");
  EXPECT_THROW(perf::Caliper::end("b"), benchpark::Error);
  perf::Caliper::reset();
}

TEST(Caliper, RecordExternalTimes) {
  perf::Caliper::reset();
  perf::Caliper::record("mpi/MPI_Bcast", 1.5, 1000);
  auto profile = perf::Caliper::snapshot();
  const auto* bcast = profile.find("mpi/MPI_Bcast");
  ASSERT_NE(bcast, nullptr);
  EXPECT_EQ(bcast->count, 1000u);
  EXPECT_DOUBLE_EQ(bcast->inclusive_seconds, 1.5);
}

TEST(Caliper, ProfileYamlRoundTrip) {
  perf::Caliper::reset();
  perf::Adiak::reset();
  perf::Adiak::collect("system", "cts1");
  perf::Adiak::collect("ranks", 64LL);
  perf::Caliper::record("main", 2.0, 1);
  auto profile = perf::Caliper::snapshot();
  auto restored = perf::Profile::from_yaml(profile.to_yaml());
  ASSERT_NE(restored.find("main"), nullptr);
  EXPECT_DOUBLE_EQ(restored.find("main")->inclusive_seconds, 2.0);
  EXPECT_EQ(restored.metadata.at("system"), "cts1");
  EXPECT_EQ(restored.metadata.at("ranks"), "64");
  perf::Caliper::reset();
  perf::Adiak::reset();
}

// -------------------------------------------------------------- MetricsDb

namespace {
an::ResultRow row(const std::string& bench, const std::string& system,
                  const std::string& fom, double value, bool ok = true) {
  an::ResultRow r;
  r.benchmark = bench;
  r.system = system;
  r.experiment = bench + "_exp";
  r.fom_name = fom;
  r.value = value;
  r.success = ok;
  return r;
}
}  // namespace

TEST(MetricsDb, InsertAndQuery) {
  an::MetricsDb db;
  db.insert(row("saxpy", "cts1", "elapsed", 1.0));
  db.insert(row("saxpy", "ats2", "elapsed", 0.5));
  db.insert(row("amg2023", "cts1", "FOM_Solve", 3e6));
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.query({.benchmark = "saxpy"}).size(), 2u);
  EXPECT_EQ(db.query({.benchmark = "saxpy", .system = "ats2"}).size(), 1u);
  EXPECT_EQ(db.query({}).size(), 3u);
}

TEST(MetricsDb, AggregateStatistics) {
  an::MetricsDb db;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    db.insert(row("saxpy", "cts1", "elapsed", v));
  }
  auto agg = db.aggregate({.benchmark = "saxpy"});
  EXPECT_EQ(agg.count, 4u);
  EXPECT_DOUBLE_EQ(agg.mean, 2.5);
  EXPECT_DOUBLE_EQ(agg.min, 1.0);
  EXPECT_DOUBLE_EQ(agg.max, 4.0);
  EXPECT_NEAR(agg.stddev, std::sqrt(1.25), 1e-12);
}

TEST(MetricsDb, SuccessFilter) {
  an::MetricsDb db;
  db.insert(row("amg2023", "cloud-cts", "elapsed", 0, /*ok=*/false));
  db.insert(row("amg2023", "cts1", "elapsed", 5.0));
  EXPECT_EQ(db.query({.success = false}).size(), 1u);
  EXPECT_EQ(db.query({.success = true}).size(), 1u);
}

TEST(MetricsDb, SeriesTracksInsertionOrder) {
  an::MetricsDb db;
  db.insert(row("saxpy", "cts1", "elapsed", 1.0));
  db.insert(row("saxpy", "cts1", "elapsed", 1.1));
  db.insert(row("saxpy", "cts1", "elapsed", 0.9));
  auto series = db.series({.benchmark = "saxpy"});
  ASSERT_EQ(series.size(), 3u);
  EXPECT_LT(series[0].first, series[1].first);
  EXPECT_DOUBLE_EQ(series[2].second, 0.9);
}

TEST(MetricsDb, DistinctFacets) {
  an::MetricsDb db;
  db.insert(row("saxpy", "cts1", "t", 1));
  db.insert(row("saxpy", "ats2", "t", 1));
  db.insert(row("amg2023", "cts1", "t", 1));
  EXPECT_EQ(db.distinct_systems(),
            (std::vector<std::string>{"ats2", "cts1"}));
  EXPECT_EQ(db.distinct_benchmarks(),
            (std::vector<std::string>{"amg2023", "saxpy"}));
}

TEST(MetricsDb, TableRendering) {
  an::MetricsDb db;
  db.insert(row("saxpy", "cts1", "elapsed", 1.25));
  auto text = db.to_table({}).render();
  EXPECT_NE(text.find("saxpy"), std::string::npos);
  EXPECT_NE(text.find("1.25"), std::string::npos);
}

// ---------------------------------------------------------------- Thicket

namespace {
perf::Profile profile_with(const std::string& system, double solve_time) {
  perf::Profile p;
  p.regions.push_back({"main", 1, solve_time * 1.5});
  p.regions.push_back({"main/solve", 10, solve_time});
  p.metadata["system"] = system;
  return p;
}
}  // namespace

TEST(Thicket, ComposeAcrossSystems) {
  an::Thicket t;
  t.add_profile("cts1", profile_with("cts1", 4.0));
  t.add_profile("ats2", profile_with("ats2", 1.0));
  t.add_profile("ats4", profile_with("ats4", 0.5));
  EXPECT_EQ(t.num_profiles(), 3u);
  auto stats = t.stats_for("main/solve");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->present_in, 3u);
  EXPECT_DOUBLE_EQ(stats->min, 0.5);
  EXPECT_DOUBLE_EQ(stats->max, 4.0);
  EXPECT_NEAR(stats->mean, (4.0 + 1.0 + 0.5) / 3, 1e-12);
}

TEST(Thicket, HandlesMissingRegions) {
  an::Thicket t;
  t.add_profile("a", profile_with("cts1", 1.0));
  perf::Profile gpu;
  gpu.regions.push_back({"main/solve_gpu", 1, 0.2});
  gpu.metadata["system"] = "ats2";
  t.add_profile("b", std::move(gpu));
  EXPECT_FALSE(t.value("main/solve_gpu", "a").has_value());
  EXPECT_TRUE(t.value("main/solve_gpu", "b").has_value());
  auto stats = t.stats_for("main/solve_gpu");
  EXPECT_EQ(stats->present_in, 1u);
}

TEST(Thicket, FilterByMetadata) {
  an::Thicket t;
  t.add_profile("cts1", profile_with("cts1", 4.0));
  t.add_profile("ats2", profile_with("ats2", 1.0));
  auto gpu_only = t.filter([](const auto& meta) {
    return meta.at("system") == "ats2";
  });
  EXPECT_EQ(gpu_only.num_profiles(), 1u);
  EXPECT_EQ(gpu_only.column_names(), (std::vector<std::string>{"ats2"}));
}

TEST(Thicket, DuplicateColumnThrows) {
  an::Thicket t;
  t.add_profile("x", profile_with("cts1", 1.0));
  EXPECT_THROW(t.add_profile("x", profile_with("cts1", 2.0)),
               benchpark::Error);
}

TEST(Thicket, TableHasDashForMissing) {
  an::Thicket t;
  t.add_profile("a", profile_with("cts1", 1.0));
  perf::Profile other;
  other.regions.push_back({"other", 1, 0.1});
  t.add_profile("b", std::move(other));
  auto text = t.to_table().render();
  EXPECT_NE(text.find("-"), std::string::npos);
}

TEST(ThicketExtrap, ModelFromProfilesAcrossScales) {
  // The Figure 14 pipeline: profiles at several scales -> Thicket ->
  // Extra-P model of one region.
  an::Thicket t;
  std::vector<an::Measurement> data;
  for (double p : {64, 128, 256, 512, 1024}) {
    perf::Profile prof;
    double bcast_total = -0.6 + 0.047 * p;
    prof.regions.push_back({"mpi/MPI_Bcast", 1000, bcast_total});
    prof.metadata["nprocs"] = std::to_string(static_cast<int>(p));
    t.add_profile("p" + std::to_string(static_cast<int>(p)),
                  std::move(prof));
    data.push_back({p, bcast_total});
  }
  auto model = an::fit_scaling_model(data);
  EXPECT_NEAR(model.exponent, 1.0, 1e-9);
  EXPECT_NEAR(model.coefficient, 0.047, 1e-6);
}

// ------------------------------------------------------------- dashboard

namespace {

an::ResultRow elapsed_row(const std::string& bench, const std::string& system,
                          double value, bool ok = true) {
  an::ResultRow r;
  r.benchmark = bench;
  r.system = system;
  r.experiment = bench + "_e";
  r.fom_name = "elapsed";
  r.value = value;
  r.units = "s";
  r.success = ok;
  return r;
}

/// Scan one FOM of a metrics db: one series per (benchmark, system),
/// each sample judged once 4 earlier samples form its baseline.
an::AnalysisResult scan_metrics(const an::MetricsDb& db,
                                const std::string& fom,
                                bool higher_is_worse = true) {
  an::AnalysisRequest request;
  request.metrics = &db;
  request.foms = {fom};
  request.detector.warmup = 4;
  request.higher_is_worse_overrides = {{fom, higher_is_worse}};
  request.render_text = true;
  return an::run_analysis(request);
}

const an::SeriesReport* find_series(const an::AnalysisResult& result,
                                    const std::string& bench,
                                    const std::string& system) {
  for (const auto& s : result.series) {
    if (s.key.benchmark == bench && s.key.system == system) return &s;
  }
  return nullptr;
}

}  // namespace

TEST(Sparkline, MapsRangeToBlocks) {
  auto line = an::sparkline({0, 1, 2, 3});
  EXPECT_FALSE(line.empty());
  // First char is the lowest block, last the highest.
  EXPECT_EQ(line.substr(0, 3), "▁");
  EXPECT_EQ(line.substr(line.size() - 3), "█");
}

TEST(Sparkline, FlatSeriesAllLow) {
  auto line = an::sparkline({5, 5, 5});
  EXPECT_EQ(line, "▁▁▁");
  EXPECT_EQ(an::sparkline({}), "");
}

TEST(Dashboard, GridShowsLatestValues) {
  an::MetricsDb db;
  db.insert(elapsed_row("saxpy", "cts1", 1.0));
  db.insert(elapsed_row("saxpy", "cts1", 1.2));
  db.insert(elapsed_row("saxpy", "ats2", 0.4));
  db.insert(elapsed_row("amg2023", "cts1", 9.0));
  auto result = scan_metrics(db, "elapsed");
  EXPECT_EQ(result.series.size(), 3u);
  const auto* saxpy_cts1 = find_series(result, "saxpy", "cts1");
  ASSERT_NE(saxpy_cts1, nullptr);
  EXPECT_DOUBLE_EQ(saxpy_cts1->samples.back().value, 1.2);  // latest
  const auto* saxpy_ats2 = find_series(result, "saxpy", "ats2");
  ASSERT_NE(saxpy_ats2, nullptr);
  EXPECT_DOUBLE_EQ(saxpy_ats2->samples.back().value, 0.4);
  EXPECT_NE(find_series(result, "amg2023", "cts1"), nullptr);
  // No data, no series (amg2023 on ats2).
  EXPECT_EQ(find_series(result, "amg2023", "ats2"), nullptr);
  EXPECT_NE(result.text.find("amg2023/cts1"), std::string::npos);
}

TEST(Dashboard, GridIgnoresFailedRuns) {
  an::MetricsDb db;
  db.insert(elapsed_row("saxpy", "cts1", 1.0));
  db.insert(elapsed_row("saxpy", "cts1", 99.0, /*ok=*/false));
  auto result = scan_metrics(db, "elapsed");
  ASSERT_EQ(result.series.size(), 1u);
  ASSERT_EQ(result.series[0].samples.size(), 1u);
  EXPECT_DOUBLE_EQ(result.series[0].samples[0].value, 1.0);
  EXPECT_EQ(result.text.find("99"), std::string::npos);
}

TEST(Dashboard, DetectsTimeRegression) {
  an::MetricsDb db;
  for (double v : {1.00, 1.02, 0.99, 1.01}) {
    db.insert(elapsed_row("saxpy", "cts1", v));
  }
  db.insert(elapsed_row("saxpy", "cts1", 1.5));  // the regression
  auto result = scan_metrics(db, "elapsed");
  EXPECT_EQ(result.regressed_series(), 1u);
  ASSERT_EQ(result.series.size(), 1u);
  const auto& series = result.series[0];
  EXPECT_EQ(series.key.benchmark, "saxpy");
  ASSERT_EQ(series.change_points.size(), 1u);
  const auto& change = series.change_points[0].classification;
  EXPECT_EQ(change.verdict, an::Verdict::regression);
  EXPECT_DOUBLE_EQ(change.value, 1.5);
  EXPECT_GT(change.score, 2.0);
  EXPECT_NE(result.text.find("saxpy/cts1"), std::string::npos);
}

TEST(Dashboard, NoFalsePositiveOnStableSeries) {
  an::MetricsDb db;
  for (double v : {1.00, 1.02, 0.99, 1.01, 1.00}) {
    db.insert(elapsed_row("saxpy", "cts1", v));
  }
  auto result = scan_metrics(db, "elapsed");
  EXPECT_EQ(result.regressed_series(), 0u);
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_TRUE(result.series[0].change_points.empty());
  ASSERT_TRUE(result.series[0].has_latest);
  EXPECT_EQ(result.series[0].latest.verdict, an::Verdict::ok);
}

TEST(Dashboard, RateRegressionUsesDirection) {
  an::MetricsDb db;
  an::ResultRow r = elapsed_row("amg2023", "cts1", 0);
  r.fom_name = "FOM_Solve";
  for (double v : {3e7, 3.1e7, 2.9e7, 3.05e7}) {
    r.value = v;
    db.insert(r);
  }
  r.value = 1e7;  // throughput collapse = regression for rates
  db.insert(r);
  // higher_is_worse=true would call it an improvement; false catches it.
  auto as_time = scan_metrics(db, "FOM_Solve", /*higher_is_worse=*/true);
  EXPECT_EQ(as_time.regressed_series(), 0u);
  EXPECT_EQ(as_time.stats.improvements, 1u);
  auto as_rate = scan_metrics(db, "FOM_Solve", /*higher_is_worse=*/false);
  EXPECT_EQ(as_rate.regressed_series(), 1u);
}

TEST(Dashboard, ShortSeriesSkipped) {
  an::MetricsDb db;
  db.insert(elapsed_row("saxpy", "cts1", 1.0));
  db.insert(elapsed_row("saxpy", "cts1", 100.0));
  auto result = scan_metrics(db, "elapsed");
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_TRUE(result.series[0].change_points.empty());
  EXPECT_FALSE(result.series[0].has_latest);  // below warmup: not judged
  EXPECT_EQ(result.regressed_series(), 0u);
}

TEST(Dashboard, RenderIncludesRegressionSection) {
  an::MetricsDb db;
  for (double v : {1.0, 1.0, 1.0, 1.0}) {
    db.insert(elapsed_row("saxpy", "cts1", v));
  }
  db.insert(elapsed_row("saxpy", "cts1", 2.0));
  auto text = scan_metrics(db, "elapsed").text;
  EXPECT_NE(text.find("1 regression(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("regression at seq 5"), std::string::npos) << text;
}

TEST(Dashboard, NullDbThrows) {
  an::AnalysisRequest request;
  request.metrics = nullptr;  // and no other source
  EXPECT_THROW((void)an::run_analysis(request), benchpark::AnalysisError);
}
