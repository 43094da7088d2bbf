#include "src/analysis/analysis.hpp"

#include <algorithm>
#include <optional>
#include <string_view>

#include "src/analysis/report.hpp"
#include "src/obs/trace_diff.hpp"
#include "src/perf/caliper.hpp"
#include "src/ramble/expansion.hpp"
#include "src/store/persist.hpp"
#include "src/support/error.hpp"
#include "src/support/parallel.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::analysis {

namespace {

bool match(const std::string& filter, const std::string& value) {
  return filter.empty() || filter == value;
}

bool fom_selected(const AnalysisRequest& request, const std::string& fom) {
  if (request.foms.empty()) return true;
  return std::find(request.foms.begin(), request.foms.end(), fom) !=
         request.foms.end();
}

DetectorConfig detector_for(const AnalysisRequest& request,
                            const std::string& fom) {
  DetectorConfig config = request.detector;
  auto it = request.higher_is_worse_overrides.find(fom);
  if (it != request.higher_is_worse_overrides.end()) {
    config.higher_is_worse = it->second;
  }
  return config;
}

// ------------------------------------------------------------- ingestion

/// Rows for one record (pure; runs concurrently across records): a
/// failed record yields one success=false row per declared FOM, a
/// successful one a row per numeric extracted FOM. Sequence numbers are
/// assigned later, by the serial insertion.
std::vector<ResultRow> rows_for_record(const ExperimentRecord& record) {
  std::vector<ResultRow> rows;
  auto base_row = [&] {
    ResultRow row;
    row.benchmark = record.benchmark;
    row.system = record.system;
    row.experiment = record.experiment;
    row.variables = record.variables;
    return row;
  };
  if (!record.success) {
    // Record the failure under every declared FOM so cross-system
    // comparison tables show CRASHED cells (the Sec. 7.1 signal).
    rows.reserve(record.declared_foms.size());
    for (const auto& spec : record.declared_foms) {
      ResultRow row = base_row();
      row.fom_name = spec.name;
      row.units = spec.units;
      row.success = false;
      rows.push_back(std::move(row));
    }
    return rows;
  }
  rows.reserve(record.foms.size());
  for (const auto& fom : record.foms) {
    if (!fom.numeric) continue;
    ResultRow row = base_row();
    row.fom_name = fom.name;
    row.value = fom.value;
    row.units = fom.units;
    row.success = true;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Parse the "caliper: region profile" section a Caliper-annotated
/// binary appends to stdout ("main 0.1 s" lines) into a Profile;
/// nullopt when the output has no profile section.
std::optional<perf::Profile> profile_from_output(const std::string& output) {
  constexpr std::string_view kMarker = "caliper: region profile";
  auto marker = output.find(kMarker);
  if (marker == std::string::npos) return std::nullopt;

  perf::Profile profile;
  std::size_t pos = marker + kMarker.size();
  if (pos < output.size() && output[pos] == '\n') ++pos;
  while (pos < output.size()) {
    auto eol = output.find('\n', pos);
    if (eol == std::string::npos) eol = output.size();
    std::string_view line(output.data() + pos, eol - pos);
    pos = eol + 1;
    // Profile lines read "<path> <seconds> s"; the first line that does
    // not parse ends the section.
    auto first_space = line.find(' ');
    if (first_space == std::string_view::npos || first_space == 0) break;
    std::string_view rest = line.substr(first_space + 1);
    if (rest.size() < 2 || rest.substr(rest.size() - 2) != " s") break;
    std::string_view number = rest.substr(0, rest.size() - 2);
    if (!support::looks_like_double(number)) break;
    perf::RegionStat region;
    region.path = std::string(line.substr(0, first_space));
    region.count = 1;
    region.inclusive_seconds = support::parse_double(number);
    profile.regions.push_back(std::move(region));
  }
  if (profile.regions.empty()) return std::nullopt;
  std::sort(profile.regions.begin(), profile.regions.end(),
            [](const perf::RegionStat& a, const perf::RegionStat& b) {
              return a.path < b.path;
            });
  return profile;
}

/// Ingest the request's records into `db` and `thicket`. Rows are built and profiles
/// parsed in parallel (pure per-record work, landing by index); rows are
/// then inserted and columns appended serially in record order, so
/// sequence numbers and column order never depend on the thread width.
void ingest_records(const AnalysisRequest& request, MetricsDb& db,
                    Thicket& thicket, AnalysisResult& result) {
  const std::vector<ExperimentRecord>& records = *request.records;
  std::vector<std::vector<ResultRow>> rows(records.size());
  std::vector<std::optional<perf::Profile>> profiles(records.size());
  support::parallel_for(
      records.size(),
      request.threads == 0 ? support::ThreadPool::default_threads()
                           : request.threads,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          rows[i] = rows_for_record(records[i]);
          profiles[i] = profile_from_output(records[i].output);
        }
      });

  std::size_t total = 0;
  for (const auto& chunk : rows) total += chunk.size();
  result.ingested_rows.reserve(total);
  for (auto& chunk : rows) {
    for (auto& row : chunk) {
      db.insert(row);
      result.ingested_rows.push_back(std::move(row));
    }
  }
  result.stats.rows_ingested += result.ingested_rows.size();

  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!profiles[i]) continue;
    const ExperimentRecord& record = records[i];
    perf::Profile& profile = *profiles[i];
    profile.metadata["benchmark"] = record.benchmark;
    profile.metadata["system"] = record.system;
    profile.metadata["experiment"] = record.experiment;
    thicket.add_profile(record.system + "/" + record.experiment,
                        std::move(profile));
    ++result.stats.thicket_columns;
  }
}

/// Bridge a collected trace into the analysis stack (the Caliper ->
/// Adiak -> Thicket pipeline of Section 5, driven from one trace
/// snapshot): counters and gauges become rows under the request's trace
/// labels, and the span tree becomes one Thicket column.
void ingest_trace(const AnalysisRequest& request, MetricsDb& db,
                  Thicket& thicket, AnalysisResult& result) {
  const obs::Trace& trace = *request.trace;
  auto insert = [&](const std::string& name, double value,
                    const char* units) {
    ResultRow row;
    row.benchmark = request.trace_benchmark;
    row.system = request.trace_system;
    row.experiment = request.trace_experiment;
    row.fom_name = name;
    row.value = value;
    row.units = units;
    db.insert(std::move(row));
    ++result.stats.rows_ingested;
  };
  for (const auto& [name, value] : trace.counters) {
    insert(name, static_cast<double>(value), "count");
  }
  for (const auto& [name, value] : trace.gauges) {
    insert(name, value, "gauge");
  }

  // One region per span path (names joined "/" along the parent chain);
  // trace metadata carries over as profile (Adiak) metadata.
  auto aggregated = obs::aggregate_spans(trace);
  if (aggregated.empty()) return;
  perf::Profile profile;
  profile.regions.reserve(aggregated.size());
  for (const auto& [path, stats] : aggregated) {
    perf::RegionStat region;
    region.path = path;
    region.count = stats.count;
    region.inclusive_seconds = (stats.total_us + stats.modeled_us) / 1e6;
    profile.regions.push_back(std::move(region));
  }
  profile.metadata = trace.metadata;
  profile.metadata["benchmark"] = request.trace_benchmark;
  profile.metadata["system"] = request.trace_system;
  profile.metadata["experiment"] = request.trace_experiment;
  std::string column = request.trace_system + "/" + request.trace_experiment;
  if (column == "/") column = "trace";
  thicket.add_profile(std::move(column), std::move(profile));
  ++result.stats.thicket_columns;
}

// ------------------------------------------------------------- detection

/// Detect / classify / bisect one series whose key+samples+units are
/// already filled in, then file it (and its stats) into the result.
void analyze_series(SeriesReport series, const AnalysisRequest& request,
                    AnalysisResult& result) {
  const DetectorConfig config = detector_for(request, series.key.fom);
  series.change_points = scan(series.samples, config);
  try {
    series.latest = classify_latest(series.samples, config);
    series.has_latest = true;
  } catch (const InsufficientHistoryError& e) {
    series.latest_error = e.what();
  }

  ++result.stats.series_scanned;
  result.stats.samples_scanned += series.samples.size();
  result.stats.change_points += series.change_points.size();
  for (const ChangePoint& p : series.change_points) {
    if (p.classification.verdict == Verdict::regression) {
      ++result.stats.regressions;
    } else if (p.classification.verdict == Verdict::improvement) {
      ++result.stats.improvements;
    }
  }
  if (series.has_latest && series.latest.verdict == Verdict::noisy) {
    ++result.stats.noisy_series;
  }

  if (request.bisect) {
    // Attribute the most recent regression (improvements need no blame).
    const ChangePoint* target = nullptr;
    for (const ChangePoint& p : series.change_points) {
      if (p.classification.verdict == Verdict::regression) target = &p;
    }
    if (target) {
      bool any_config = false;
      for (const auto& s : series.samples) {
        if (!s.config_hash.empty()) any_config = true;
      }
      if (!any_config) {
        series.bisect_error = "series carries no config hashes";
      } else {
        BisectOptions options = request.bisection;
        options.higher_is_worse = config.higher_is_worse;
        if (!options.measure && request.store &&
            series.key.fom == "runtime_seconds") {
          // Replay through the run engine's persistence layer: a config
          // hash is an experiment store key, and its stored record is
          // exactly what a store-warm re-run of that config reports.
          store::StoreHandle store = request.store;
          options.measure =
              [store](const std::string& hash) -> std::optional<double> {
            auto record = store::load_experiment(store, hash);
            if (!record || !record->success) return std::nullopt;
            return record->runtime_seconds;
          };
        }
        try {
          series.bisection =
              bisect_change_point(series.samples, *target, options);
          series.bisected = true;
          ++result.stats.bisections;
          result.stats.bisect_replays += series.bisection.replays;
        } catch (const BisectionInconclusiveError& e) {
          series.bisect_error = e.what();
        }
      }
    }
  }
  result.series.push_back(std::move(series));
}

void analyze_history(const FomHistory& history,
                     const AnalysisRequest& request, AnalysisResult& result) {
  for (const SeriesKey& key : history.keys()) {
    if (!match(request.benchmark, key.benchmark)) continue;
    if (!match(request.system, key.system)) continue;
    if (!fom_selected(request, key.fom)) continue;
    SeriesReport series;
    series.key = key;
    series.samples = history.series(key);
    if (!series.samples.empty()) series.units = series.samples.back().units;
    analyze_series(std::move(series), request, result);
  }
}

/// Metrics source: one series per (benchmark, system, fom) aggregated
/// across experiments, sequence = db insertion order.
void analyze_metrics(const MetricsDb& db, const AnalysisRequest& request,
                     AnalysisResult& result) {
  for (const std::string& benchmark : db.distinct_benchmarks()) {
    if (!match(request.benchmark, benchmark)) continue;
    for (const std::string& system : db.distinct_systems()) {
      if (!match(request.system, system)) continue;
      for (const std::string& fom : db.distinct_fom_names()) {
        if (!fom_selected(request, fom)) continue;
        Query q;
        q.benchmark = benchmark;
        q.system = system;
        q.fom_name = fom;
        q.success = true;
        auto rows = db.query(q);
        if (rows.empty()) continue;
        SeriesReport series;
        series.key = {benchmark, system, "*", fom};
        series.units = rows.back()->units;
        series.samples.reserve(rows.size());
        for (const ResultRow* row : rows) {
          HistorySample sample;
          sample.sequence = row->sequence;
          sample.value = row->value;
          sample.units = row->units;
          series.samples.push_back(std::move(sample));
        }
        analyze_series(std::move(series), request, result);
      }
    }
  }
}

void fit_workloads(const MetricsDb& db, const AnalysisRequest& request,
                   AnalysisResult& result) {
  for (const std::string& benchmark : db.distinct_benchmarks()) {
    if (!match(request.benchmark, benchmark)) continue;
    for (const std::string& system : db.distinct_systems()) {
      if (!match(request.system, system)) continue;
      for (const std::string& fom : db.distinct_fom_names()) {
        if (!fom_selected(request, fom)) continue;
        Query q;
        q.benchmark = benchmark;
        q.system = system;
        q.fom_name = fom;
        q.success = true;
        std::vector<Measurement> data;
        for (const ResultRow* row : db.query(q)) {
          auto it = row->variables.find(request.scaling_variable);
          if (it == row->variables.end()) continue;
          double p;
          try {
            p = static_cast<double>(
                ramble::expand_int(it->second, row->variables));
          } catch (const Error&) {
            continue;  // unexpandable scale axis: skip the row, not the fit
          }
          data.push_back({p, row->value});
        }
        if (data.empty()) continue;
        ScalingFit fit;
        fit.benchmark = benchmark;
        fit.system = system;
        fit.fom = fom;
        try {
          fit.model = fit_scaling_model(aggregate_mean(data));
          fit.ok = true;
          ++result.stats.fits;
        } catch (const Error& e) {
          fit.error = e.what();
        }
        result.fits.push_back(std::move(fit));
      }
    }
  }
}

}  // namespace

std::size_t AnalysisResult::regressed_series() const {
  std::size_t count = 0;
  for (const SeriesReport& s : series) {
    if (!s.change_points.empty() &&
        s.change_points.back().classification.verdict ==
            Verdict::regression) {
      ++count;
    }
  }
  return count;
}

AnalysisResult run_analysis(const AnalysisRequest& request) {
  if (!request.records && !request.trace && !request.history &&
      !request.metrics && !request.store) {
    throw AnalysisError(
        "run_analysis: request names no sources (records, trace, history, "
        "metrics, or store)");
  }

  AnalysisResult result;
  MetricsDb& db = request.metrics_out ? *request.metrics_out : result.db;
  Thicket& thicket =
      request.thicket_out ? *request.thicket_out : result.thicket;

  if (request.records) ingest_records(request, db, thicket, result);
  if (request.trace) ingest_trace(request, db, thicket, result);

  if (request.detect) {
    if (request.history) {
      analyze_history(*request.history, request, result);
    } else if (request.store) {
      FomHistory history(request.store);
      analyze_history(history, request, result);
    }
    if (request.metrics) {
      analyze_metrics(*request.metrics, request, result);
    }
  }

  if (request.fit_scaling) {
    fit_workloads(request.metrics ? *request.metrics : db, request, result);
  }

  if (request.render_text) result.text = render_text_report(result);
  if (request.render_html) result.html = render_html_report(result);
  if (request.render_json) result.json = render_json_report(result);
  return result;
}

}  // namespace benchpark::analysis
