// Campaigns: one experiment run across many systems, results collected
// into the metrics database (Figure 6's right-hand side) and analyzed —
// cross-system comparison tables and Extra-P scaling models (Section 5:
// "enable performance analysis and modeling of our benchmarks across
// many systems").
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/extrap.hpp"
#include "src/analysis/metrics_db.hpp"
#include "src/analysis/thicket.hpp"
#include "src/core/driver.hpp"

namespace benchpark::core {

struct SystemRunSummary {
  std::string system;
  std::size_t experiments = 0;
  std::size_t succeeded = 0;
  /// First failure output snippet (the Section 7.1 diagnosis aid).
  std::string first_failure;
};

class Campaign {
public:
  Campaign(const Driver* driver, ExperimentId experiment,
           std::filesystem::path base_dir);

  void add_system(const std::string& name);

  /// Tune the parallel run engine used for every system's workflow (and
  /// for result ingestion). Default: pool-default width, cached
  /// templates, standard retry budget.
  void set_run_request(ramble::RunRequest request) {
    request_ = std::move(request);
  }

  /// Run the full workflow on every registered system; failures on one
  /// system (crashes, incompatible variants) are recorded, not fatal.
  /// Results are ingested through analysis::run_analysis (parallel row
  /// build, serial in-order insertion into the campaign's db/thicket).
  void run();

  [[nodiscard]] const analysis::MetricsDb& metrics() const { return db_; }
  /// One Thicket column per Caliper-annotated experiment output, named
  /// "<system>/<experiment>" (rebuilt by each run()).
  [[nodiscard]] const analysis::Thicket& thicket() const { return thicket_; }
  [[nodiscard]] const std::vector<SystemRunSummary>& summaries() const {
    return summaries_;
  }

  /// Cross-system comparison of one FOM: experiment rows, system columns.
  [[nodiscard]] support::Table comparison_table(
      const std::string& fom_name) const;

  /// Fit a scaling model of a FOM vs n_ranks on one system (requires >= 3
  /// distinct rank counts among successful experiments).
  [[nodiscard]] analysis::ScalingModel scaling_model(
      const std::string& system, const std::string& fom_name) const;

private:
  const Driver* driver_;  // not owned
  ExperimentId experiment_;
  std::filesystem::path base_dir_;
  std::vector<std::string> systems_;
  ramble::RunRequest request_;
  analysis::MetricsDb db_;
  analysis::Thicket thicket_;
  std::vector<SystemRunSummary> summaries_;
  // (system, experiment, fom) -> n_ranks for the scaling axis.
  std::vector<analysis::ResultRow> rows_;
};

}  // namespace benchpark::core
