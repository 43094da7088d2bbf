// The one analysis entry point: run_analysis(AnalysisRequest).
//
// Like concretize_all(ConcretizeRequest) for the concretizer and
// Workspace::run_all(RunRequest) for the run engine, this is the only
// way into the analysis stack: record ingestion, trace bridging, and
// regression scanning are one request/result pair. A request names its
// *sources* (experiment records, a collected trace, the FOM history, a
// pre-built metrics db), the *detectors* to run over them (change-point
// scan, bisection attribution, Extra-P scaling fits), and the *report
// formats* to render (text, HTML, JSON). The ingestion and bridging
// internals are private to the implementation.
//
// Results are deterministic: ingestion is ordered by submission index,
// detection and bisection are pure functions of the history, and the
// rendered JSON is byte-stable across identical re-runs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/analysis/bisect.hpp"
#include "src/analysis/detect.hpp"
#include "src/analysis/extrap.hpp"
#include "src/analysis/fom.hpp"
#include "src/analysis/history.hpp"
#include "src/analysis/metrics_db.hpp"
#include "src/analysis/thicket.hpp"
#include "src/obs/trace.hpp"
#include "src/store/store.hpp"

namespace benchpark::analysis {

/// One completed experiment, flattened to what ingestion needs (no
/// dependency on the ramble layer's result types).
struct ExperimentRecord {
  std::string benchmark;
  std::string system;
  std::string experiment;  // expanded experiment name
  /// Transparent comparator: same type as ramble::VariableMap, so the
  /// workspace's variable assignments move here without conversion.
  std::map<std::string, std::string, std::less<>> variables;
  /// The application's declared FOM specs (failure rows need the names
  /// and units even when nothing was extracted).
  std::vector<FomSpec> declared_foms;
  /// FOMs actually extracted from the output.
  std::vector<FomValue> foms;
  bool success = false;
  /// Raw experiment stdout (Caliper region profiles are parsed out of
  /// it); may be empty.
  std::string output;
};

struct AnalysisRequest {
  // ---- sources (any combination; all optional) -----------------------
  /// Completed experiments to ingest: MetricsDb rows in record order (a
  /// failed record yields one success=false row per declared FOM, so
  /// cross-system tables show CRASHED cells) plus one Thicket column
  /// "<system>/<experiment>" per Caliper-annotated output.
  const std::vector<ExperimentRecord>* records = nullptr;
  /// A collected trace: counters/gauges become rows under the
  /// trace_* labels below (counter names are the FOM names); its span
  /// tree becomes a Thicket column, one region per span path with
  /// inclusive seconds = wall-clock plus modeled time.
  const obs::Trace* trace = nullptr;
  std::string trace_benchmark;
  std::string trace_system;
  std::string trace_experiment;
  /// FOM time-series history to scan for change points.
  const FomHistory* history = nullptr;
  /// Pre-built metrics rows to scan: one detector series per
  /// (benchmark, system, fom) aggregated across experiments, in db
  /// insertion order; failed rows are skipped.
  const MetricsDb* metrics = nullptr;
  /// Persistent store: when set and `history` is null, the history is
  /// loaded from it; bisection replays "runtime_seconds" candidates
  /// through the store's experiment records (the store-warm run engine).
  store::StoreHandle store;

  // ---- sinks (optional; callers accumulating across calls) -----------
  /// Ingest into these instead of the result's own db/thicket.
  MetricsDb* metrics_out = nullptr;
  Thicket* thicket_out = nullptr;

  // ---- selection ------------------------------------------------------
  std::string benchmark;           // empty = all
  std::string system;              // empty = all
  std::vector<std::string> foms;   // empty = all

  // ---- detection / attribution / modeling -----------------------------
  bool detect = true;
  DetectorConfig detector;
  /// Per-FOM direction overrides ("gflops" -> false); unlisted FOMs use
  /// detector.higher_is_worse.
  std::map<std::string, bool> higher_is_worse_overrides;
  bool bisect = true;
  BisectOptions bisection;
  /// Fit an Extra-P scaling model per (benchmark, system, fom) over the
  /// scanned rows' `scaling_variable`.
  bool fit_scaling = false;
  std::string scaling_variable = "n_ranks";

  // ---- report formats -------------------------------------------------
  bool render_text = false;
  bool render_html = false;
  bool render_json = false;

  /// Ingestion fan-out width (0 = pool default, 1 = serial).
  int threads = 0;
};

/// Everything the detectors concluded about one series.
struct SeriesReport {
  SeriesKey key;
  std::string units;
  std::vector<HistorySample> samples;
  std::vector<ChangePoint> change_points;
  /// Classification of the latest successful sample; `has_latest` is
  /// false (and latest_error explains why) below the warmup minimum.
  bool has_latest = false;
  Classification latest;
  std::string latest_error;
  /// Attribution of the most recent regression change point.
  bool bisected = false;
  BisectResult bisection;
  std::string bisect_error;
};

/// One Extra-P fit per (benchmark, system, fom) workload.
struct ScalingFit {
  std::string benchmark;
  std::string system;
  std::string fom;
  bool ok = false;
  ScalingModel model;
  std::string error;
};

struct AnalysisStats {
  std::size_t series_scanned = 0;
  std::size_t samples_scanned = 0;
  std::size_t change_points = 0;
  std::size_t regressions = 0;     // change points classified regression
  std::size_t improvements = 0;
  std::size_t noisy_series = 0;    // latest verdict == noisy
  std::size_t bisections = 0;      // successful attributions
  std::size_t bisect_replays = 0;
  std::size_t rows_ingested = 0;
  std::size_t thicket_columns = 0;
  std::size_t fits = 0;
};

struct AnalysisResult {
  std::vector<SeriesReport> series;
  std::vector<ScalingFit> fits;
  AnalysisStats stats;
  /// Ingested rows in submission order (also inserted into the db sink).
  std::vector<ResultRow> ingested_rows;
  /// Ingestion targets when the request named no sinks.
  MetricsDb db;
  Thicket thicket;
  /// Rendered reports (empty unless requested).
  std::string text;
  std::string html;
  std::string json;

  /// Series whose most recent change point is an unresolved regression.
  [[nodiscard]] std::size_t regressed_series() const;
};

/// Run every requested analysis. Invalid requests (no sources at all)
/// throw AnalysisError; per-series detector/bisection shortfalls are
/// reported in the series entries, never thrown.
AnalysisResult run_analysis(const AnalysisRequest& request);

}  // namespace benchpark::analysis
