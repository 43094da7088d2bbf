// Historical analytics tests: FOM history persistence through the
// content-addressed store, deterministic change-point detection over
// synthetic step/drift/noise series (exact detection points, no false
// positives on pure noise), bisection attribution of a planted bad
// config hash within the log2 replay budget, and the
// run_analysis(AnalysisRequest) façade end to end. Carries the
// "threads" label so the TSAN job races concurrent appends for real.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/analysis.hpp"
#include "src/analysis/bisect.hpp"
#include "src/analysis/detect.hpp"
#include "src/analysis/history.hpp"
#include "src/store/store.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/fs_util.hpp"

namespace analysis = benchpark::analysis;
namespace store = benchpark::store;
namespace support = benchpark::support;

using analysis::DetectorConfig;
using analysis::FomHistory;
using analysis::HistorySample;
using analysis::SeriesKey;
using analysis::Verdict;

namespace {

const SeriesKey kKey{"saxpy", "cts1", "saxpy_1", "runtime_seconds"};

/// A plain in-memory series: one sample per value, sequences 1..n.
std::vector<HistorySample> make_series(const std::vector<double>& values,
                                       const std::string& config = "cfg") {
  std::vector<HistorySample> samples;
  for (std::size_t i = 0; i < values.size(); ++i) {
    HistorySample s;
    s.sequence = i + 1;
    s.value = values[i];
    s.units = "s";
    s.config_hash = config;
    samples.push_back(std::move(s));
  }
  return samples;
}

}  // namespace

// ---------------------------------------------------------------- SeriesKey

TEST(SeriesKey, EncodeDecodeRoundTrip) {
  const std::string encoded = kKey.encode();
  auto decoded = SeriesKey::decode(encoded);
  EXPECT_EQ(decoded, kKey);
  EXPECT_EQ(kKey.str(), "saxpy/cts1/saxpy_1:runtime_seconds");
}

// ---------------------------------------------------------------- detection

TEST(Detect, StepRegressionFlaggedAtExactIndex) {
  // Ten samples near 100, then a +30% step: the step sample itself is
  // the change point, nothing before or after alarms.
  std::vector<double> values{100.0, 100.4, 99.7, 100.1, 99.9,
                             100.2, 99.8,  100.3, 99.6, 100.0};
  for (int i = 0; i < 6; ++i) values.push_back(130.0 + 0.1 * i);
  auto samples = make_series(values);

  auto points = analysis::scan(samples, DetectorConfig{});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].index, 10u);
  EXPECT_EQ(points[0].sequence, 11u);
  EXPECT_EQ(points[0].classification.verdict, Verdict::regression);
  EXPECT_GT(points[0].classification.score, 4.0);
  EXPECT_GT(points[0].classification.confidence, 0.5);
}

TEST(Detect, StepDownIsImprovementForTimes) {
  std::vector<double> values{100.0, 100.4, 99.7, 100.1, 99.9, 100.2};
  for (int i = 0; i < 4; ++i) values.push_back(70.0);
  auto points = analysis::scan(make_series(values), DetectorConfig{});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].index, 6u);
  EXPECT_EQ(points[0].classification.verdict, Verdict::improvement);
}

TEST(Detect, DirectionFlipsForRates) {
  // Same shape, but higher_is_worse=false (a gflops-style rate): the
  // upward step is an improvement, the downward one a regression.
  std::vector<double> up{100.0, 100.4, 99.7, 100.1, 99.9, 130.0, 130.0};
  DetectorConfig rates;
  rates.higher_is_worse = false;
  auto points = analysis::scan(make_series(up), rates);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].classification.verdict, Verdict::improvement);

  std::vector<double> down{100.0, 100.4, 99.7, 100.1, 99.9, 70.0, 70.0};
  points = analysis::scan(make_series(down), rates);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].classification.verdict, Verdict::regression);
}

TEST(Detect, RegimeResetsAfterConfirmedStep) {
  // After the step is confirmed, the new level is the new normal: the
  // samples that follow it classify ok against the post-step baseline,
  // and a later return to the old level is flagged again (improvement).
  std::vector<double> values{100, 100.2, 99.8, 100.1, 99.9, 100.0};
  for (int i = 0; i < 8; ++i) values.push_back(130.0 + 0.1 * (i % 3));
  for (int i = 0; i < 3; ++i) values.push_back(100.0);
  auto points = analysis::scan(make_series(values), DetectorConfig{});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].classification.verdict, Verdict::regression);
  EXPECT_EQ(points[0].index, 6u);
  EXPECT_EQ(points[1].classification.verdict, Verdict::improvement);
  EXPECT_EQ(points[1].index, 14u);
}

TEST(Detect, PureNoiseNeverAlarms) {
  // 200 samples of bounded noise around 100: zero change points, and
  // the latest sample classifies ok.
  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> noise(99.0, 101.0);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(noise(rng));
  auto samples = make_series(values);

  EXPECT_TRUE(analysis::scan(samples, DetectorConfig{}).empty());
  auto latest = analysis::classify_latest(samples, DetectorConfig{});
  EXPECT_EQ(latest.verdict, Verdict::ok);
}

TEST(Detect, FlatSeriesRepeatsAreOk) {
  // A store-warm re-run repeats values bit-for-bit; the flat-series
  // sigma floor must not turn "identical" into "regression".
  std::vector<double> values(12, 42.0);
  auto samples = make_series(values);
  EXPECT_TRUE(analysis::scan(samples, DetectorConfig{}).empty());
  auto latest = analysis::classify_latest(samples, DetectorConfig{});
  EXPECT_EQ(latest.verdict, Verdict::ok);
  EXPECT_DOUBLE_EQ(latest.score, 0.0);
}

TEST(Detect, GentleDriftBelowThresholdStaysQuiet) {
  // 0.05%/step drift never moves 4 robust sigmas within the window.
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) values.push_back(100.0 + 0.05 * i);
  EXPECT_TRUE(analysis::scan(make_series(values), DetectorConfig{}).empty());
}

TEST(Detect, SteepDriftIsCaught) {
  // A 5%/step ramp against a tight window crosses the threshold.
  std::vector<double> values{100, 100, 100, 100, 100};
  for (int i = 1; i <= 12; ++i) values.push_back(100.0 + 5.0 * i);
  DetectorConfig config;
  config.window = 5;
  config.threshold = 2.0;
  auto points = analysis::scan(make_series(values), config);
  ASSERT_FALSE(points.empty());
  EXPECT_EQ(points[0].classification.verdict, Verdict::regression);
}

TEST(Detect, UnstableSeriesClassifiedNoisy) {
  // Noise sigma comparable to the center: the detector refuses to call
  // either direction instead of alarming.
  std::vector<double> values{10, 90, 15, 80, 20, 95, 12, 85, 18, 50};
  auto latest = analysis::classify_latest(make_series(values),
                                          DetectorConfig{});
  EXPECT_EQ(latest.verdict, Verdict::noisy);
  EXPECT_EQ(latest.confidence, 0.0);
}

TEST(Detect, FailedSamplesAreSkipped) {
  std::vector<double> values{100, 100.2, 99.8, 100.1, 99.9, 100.0, 130.0};
  auto samples = make_series(values);
  // A crashed sample carries no judgeable value; mark one mid-baseline.
  samples[2].success = false;
  auto points = analysis::scan(samples, DetectorConfig{});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].index, 6u);
}

TEST(Detect, InsufficientHistoryThrowsTypedError) {
  auto samples = make_series({100.0, 100.1, 99.9});
  try {
    (void)analysis::classify_latest(samples, DetectorConfig{});
    FAIL() << "expected InsufficientHistoryError";
  } catch (const benchpark::InsufficientHistoryError& e) {
    EXPECT_EQ(e.have, 2u);  // two baseline samples before the latest
    EXPECT_EQ(e.need, 5u);
    EXPECT_NE(std::string(e.what()).find("detector needs 5"),
              std::string::npos);
  }
  // The taxonomy chains like the concretizer's errors do.
  EXPECT_THROW((void)analysis::classify_latest(samples, DetectorConfig{}),
               benchpark::AnalysisError);
}

// ---------------------------------------------------------------- bisection

namespace {

/// N distinct configs, `samples_per` samples each; configs at or after
/// `first_bad` produce `bad_value`, earlier ones `good_value`.
std::vector<HistorySample> planted_history(std::size_t configs,
                                           std::size_t samples_per,
                                           std::size_t first_bad,
                                           double good_value,
                                           double bad_value) {
  std::vector<HistorySample> samples;
  std::uint64_t seq = 0;
  for (std::size_t c = 0; c < configs; ++c) {
    for (std::size_t r = 0; r < samples_per; ++r) {
      HistorySample s;
      s.sequence = ++seq;
      s.value = c >= first_bad ? bad_value : good_value;
      s.units = "s";
      s.config_hash = "cfg" + std::to_string(c);
      samples.push_back(std::move(s));
    }
  }
  return samples;
}

}  // namespace

TEST(Bisect, ConfigSpansPreserveFirstAppearanceOrder) {
  auto samples = planted_history(4, 3, 2, 100, 130);
  auto spans = analysis::config_spans(samples);
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].config_hash, "cfg" + std::to_string(i));
    EXPECT_EQ(spans[i].samples, 3u);
  }
  EXPECT_DOUBLE_EQ(spans[1].recorded_value, 100.0);
  EXPECT_DOUBLE_EQ(spans[2].recorded_value, 130.0);
  EXPECT_EQ(spans[0].first_sequence, 1u);
  EXPECT_EQ(spans[0].last_sequence, 3u);
}

TEST(Bisect, AttributesPlantedBadHashWithinLogBudget) {
  // 32 candidate configs, the regression planted at cfg20: a counting
  // measure proves the search replays at most ceil(log2(32)) + 1
  // midpoints between the endpoints.
  const std::size_t kConfigs = 32, kFirstBad = 20;
  auto samples = planted_history(kConfigs, 2, kFirstBad, 100, 130);
  auto spans = analysis::config_spans(samples);

  std::size_t measured = 0;
  analysis::BisectOptions options;
  options.measure = [&](const std::string& hash) {
    ++measured;
    for (const auto& span : spans) {
      if (span.config_hash == hash) return std::optional(span.recorded_value);
    }
    return std::optional<double>();
  };
  auto result =
      analysis::bisect_first_bad(spans, 0, kConfigs - 1, options);
  EXPECT_EQ(result.first_bad_hash, "cfg20");
  EXPECT_EQ(result.last_good_hash, "cfg19");
  const auto budget = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(kConfigs)))) + 1;
  EXPECT_LE(result.replays, budget);
  EXPECT_EQ(measured, result.replays + 2);  // midpoints + both endpoints
  EXPECT_DOUBLE_EQ(result.good_value, 100.0);
  EXPECT_DOUBLE_EQ(result.bad_value, 130.0);
}

TEST(Bisect, DefaultMeasureUsesRecordedValues) {
  // No measure callback: the recorded per-config medians (what a
  // store-warm replay would return) drive the search.
  auto samples = planted_history(16, 1, 5, 50, 80);
  auto spans = analysis::config_spans(samples);
  auto result = analysis::bisect_first_bad(spans, 0, 15, {});
  EXPECT_EQ(result.first_bad_hash, "cfg5");
  EXPECT_EQ(result.last_good_hash, "cfg4");
  EXPECT_LE(result.replays, 4u);
}

TEST(Bisect, ChangePointDrivesEndToEndAttribution) {
  auto samples = planted_history(8, 3, 6, 100, 140);
  DetectorConfig config;
  config.warmup = 5;
  auto points = analysis::scan(samples, config);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].config_hash, "cfg6");
  auto result = analysis::bisect_change_point(samples, points[0], {});
  EXPECT_EQ(result.first_bad_hash, "cfg6");
  EXPECT_EQ(result.last_good_hash, "cfg5");
}

TEST(Bisect, InconclusiveCasesThrowTypedError) {
  auto samples = planted_history(8, 2, 4, 100, 130);
  auto spans = analysis::config_spans(samples);
  // Agreeing endpoints: nothing to search between.
  EXPECT_THROW((void)analysis::bisect_first_bad(spans, 0, 2, {}),
               benchpark::BisectionInconclusiveError);
  // Same-config change point (an environmental step, not a spec).
  analysis::ChangePoint point;
  point.config_hash = "cfg3";
  point.baseline_config_hash = "cfg3";
  EXPECT_THROW((void)analysis::bisect_change_point(samples, point, {}),
               benchpark::BisectionInconclusiveError);
  // Unreplayable midpoint.
  analysis::BisectOptions broken;
  broken.measure = [&](const std::string& hash) {
    if (hash == "cfg0" || hash == "cfg7") {
      return std::optional(hash == "cfg7" ? 130.0 : 100.0);
    }
    return std::optional<double>();
  };
  EXPECT_THROW((void)analysis::bisect_first_bad(spans, 0, 7, broken),
               benchpark::BisectionInconclusiveError);
}

// -------------------------------------------------------------- FomHistory

TEST(FomHistory, AppendAssignsPerSeriesSequences) {
  FomHistory history;
  EXPECT_EQ(history.append(kKey, 1.0, "s", "c1"), 1u);
  EXPECT_EQ(history.append(kKey, 2.0, "s", "c1"), 2u);
  SeriesKey other = kKey;
  other.fom = "gflops";
  EXPECT_EQ(history.append(other, 10.0, "gflop/s", "c1"), 1u);
  EXPECT_EQ(history.size(), 3u);
  EXPECT_EQ(history.series_size(kKey), 2u);
  auto keys = history.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(history.series(kKey)[1].value, 2.0);
}

TEST(FomHistory, PersistsThroughStoreReload) {
  support::TempDir dir("history-store");
  {
    auto s = store::Store::open(dir.path());
    FomHistory history(s);
    for (int i = 1; i <= 6; ++i) {
      history.append(kKey, 100.0 + i, "s", "cfg" + std::to_string(i),
                     i != 3);  // one failed sample survives the round trip
    }
    SeriesKey other{"stream", "ats2", "stream_1", "bw"};
    history.append(other, 3.5, "GB/s", "cfgX");
    s->flush();
  }
  auto reopened = store::Store::open(dir.path());
  FomHistory history(reopened);
  EXPECT_EQ(history.skipped_records(), 0u);
  EXPECT_EQ(history.size(), 7u);
  auto samples = history.series(kKey);
  ASSERT_EQ(samples.size(), 6u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].sequence, i + 1);
    EXPECT_DOUBLE_EQ(samples[i].value, 101.0 + static_cast<double>(i));
    EXPECT_EQ(samples[i].config_hash, "cfg" + std::to_string(i + 1));
  }
  EXPECT_FALSE(samples[2].success);
  EXPECT_EQ(samples[2].units, "s");
  // A reloaded history continues the sequence, not restarts it.
  EXPECT_EQ(history.append(kKey, 200.0, "s", "cfg7"), 7u);
}

TEST(FomHistory, ConcurrentAppendsAreSerialized) {
  FomHistory history;
  constexpr int kThreads = 8, kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&history, t] {
      SeriesKey own{"bench", "sys", "exp" + std::to_string(t), "fom"};
      SeriesKey shared{"bench", "sys", "shared", "fom"};
      for (int i = 0; i < kPerThread; ++i) {
        history.append(own, i, "s", "c");
        history.append(shared, i, "s", "c");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(history.size(),
            static_cast<std::size_t>(2 * kThreads * kPerThread));
  SeriesKey shared{"bench", "sys", "shared", "fom"};
  auto samples = history.series(shared);
  ASSERT_EQ(samples.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].sequence, i + 1);  // dense, no drops or dupes
  }
}

// ------------------------------------------------------- FaultPlan keying

TEST(FaultFingerprint, StableAndPlanSensitive) {
  support::ScopedFaultPlan scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  EXPECT_EQ(plan.fingerprint(), "");
  plan = support::FaultPlan::parse(
      "seed=7;experiment.exec:key=x,latency=30");
  const auto fp = plan.fingerprint();
  EXPECT_EQ(fp.size(), 13u);
  EXPECT_EQ(plan.fingerprint(), fp);  // deterministic
  plan = support::FaultPlan::parse(
      "seed=7;experiment.exec:key=x,latency=31");
  EXPECT_NE(plan.fingerprint(), fp);  // content-sensitive
}

TEST(FaultFingerprint, LateDigitsOfLongValuesStillCount) {
  // 17 significant digits and a three-digit exponent on both values: the
  // formatted "probability/latency" pair is 47 bytes, and the latency
  // digits that differ sit past byte 40.
  support::FaultRule rule;
  rule.site = "experiment.exec";
  rule.probability = 1.2345678901234567e-300;
  rule.latency_seconds = 1.2345678901234567e-300;
  support::FaultPlan a;
  a.add_rule(rule);
  rule.latency_seconds = std::nextafter(rule.latency_seconds, 1.0);
  support::FaultPlan b;
  b.add_rule(rule);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(FaultFingerprint, SiteFilterIgnoresNonExecutionRules) {
  support::ScopedFaultPlan scope;
  auto& plan = support::FaultPlan::global();
  // A plan that only perturbs service dispatch must not change the
  // execution fingerprint — warm-start keys survive such chaos plans.
  plan = support::FaultPlan::parse("seed=3;serve.dispatch:nth=1");
  EXPECT_EQ(plan.fingerprint({"experiment.", "runtime."}), "");
  EXPECT_NE(plan.fingerprint(), "");

  plan = support::FaultPlan::parse(
      "seed=3;serve.dispatch:nth=1;experiment.exec:latency=30");
  const auto exec_only = plan.fingerprint({"experiment.", "runtime."});
  EXPECT_NE(exec_only, "");
  EXPECT_NE(exec_only, plan.fingerprint());  // dispatch rule excluded
  // Dropping the irrelevant rule leaves the filtered fingerprint alone.
  plan = support::FaultPlan::parse("seed=3;experiment.exec:latency=30");
  EXPECT_EQ(plan.fingerprint({"experiment.", "runtime."}), exec_only);
}

// ------------------------------------------------------------ run_analysis

TEST(RunAnalysis, RejectsSourcelessRequests) {
  analysis::AnalysisRequest empty;
  EXPECT_THROW((void)analysis::run_analysis(empty),
               benchpark::AnalysisError);
}

TEST(RunAnalysis, HistorySourceDetectsAndBisects) {
  FomHistory history;
  auto samples = planted_history(8, 3, 6, 100, 140);
  for (const auto& s : samples) {
    history.append(kKey, s.value, s.units, s.config_hash, s.success);
  }
  analysis::AnalysisRequest request;
  request.history = &history;
  request.render_json = true;
  auto result = analysis::run_analysis(request);

  ASSERT_EQ(result.series.size(), 1u);
  const auto& series = result.series[0];
  EXPECT_EQ(series.key, kKey);
  ASSERT_EQ(series.change_points.size(), 1u);
  EXPECT_TRUE(series.bisected);
  EXPECT_EQ(series.bisection.first_bad_hash, "cfg6");
  EXPECT_EQ(result.stats.regressions, 1u);
  EXPECT_EQ(result.regressed_series(), 1u);
  EXPECT_NE(result.json.find("\"benchpark-analysis-v1\""),
            std::string::npos);
  EXPECT_NE(result.json.find("\"first_bad\":\"cfg6\""), std::string::npos);
}

TEST(RunAnalysis, FiltersSelectSeries) {
  FomHistory history;
  history.append(kKey, 1.0, "s", "c");
  SeriesKey other{"stream", "ats2", "stream_1", "bw"};
  history.append(other, 2.0, "GB/s", "c");
  analysis::AnalysisRequest request;
  request.history = &history;
  request.benchmark = "stream";
  auto result = analysis::run_analysis(request);
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_EQ(result.series[0].key.benchmark, "stream");
  // Below warmup: reported as a typed shortfall, never thrown.
  EXPECT_FALSE(result.series[0].has_latest);
  EXPECT_FALSE(result.series[0].latest_error.empty());
}

TEST(RunAnalysis, RecordsSourceIngestsRowsAndThicket) {
  std::vector<analysis::ExperimentRecord> records(2);
  records[0].benchmark = "saxpy";
  records[0].system = "cts1";
  records[0].experiment = "saxpy_1";
  records[0].success = true;
  records[0].foms.push_back({"gflops", "1.5", 1.5, true, "gflop/s"});
  records[0].output =
      "caliper: region profile\nmain 0.5 s\nmain/kernel 0.3 s\n";
  records[1] = records[0];
  records[1].experiment = "saxpy_2";

  analysis::AnalysisRequest request;
  request.records = &records;
  request.detect = false;
  request.threads = 1;
  auto result = analysis::run_analysis(request);
  ASSERT_EQ(result.ingested_rows.size(), 2u);
  EXPECT_EQ(result.ingested_rows[0].experiment, "saxpy_1");
  EXPECT_EQ(result.db.size(), 2u);
  EXPECT_EQ(result.thicket.num_profiles(), 2u);
  EXPECT_EQ(result.stats.rows_ingested, 2u);

  // The Campaign pattern: the MetricsDb sink accumulates across façade
  // calls; the Thicket sink is reset per run (columns must stay unique).
  analysis::MetricsDb db;
  analysis::Thicket thicket;
  request.metrics_out = &db;
  request.thicket_out = &thicket;
  (void)analysis::run_analysis(request);
  thicket = analysis::Thicket{};
  (void)analysis::run_analysis(request);
  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(thicket.num_profiles(), 2u);
}

TEST(RunAnalysis, JsonReportIsByteStable) {
  FomHistory history;
  auto samples = planted_history(6, 2, 4, 100, 130);
  for (const auto& s : samples) {
    history.append(kKey, s.value, s.units, s.config_hash, s.success);
  }
  analysis::AnalysisRequest request;
  request.history = &history;
  request.render_json = true;
  request.render_html = true;
  request.render_text = true;
  auto first = analysis::run_analysis(request);
  auto second = analysis::run_analysis(request);
  EXPECT_EQ(first.json, second.json);
  EXPECT_EQ(first.html, second.html);
  EXPECT_EQ(first.text, second.text);
}
