// The metrics database of Figure 6: every CI benchmark run streams its
// extracted figures of merit here, keyed by (benchmark, system,
// experiment, variables). Storing the experiment's exact specification
// with the result is the paper's Section 5 plan for "introspection into
// benchmark performance across systems and time".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/fom.hpp"
#include "src/support/table.hpp"

namespace benchpark::analysis {

/// One stored result row.
struct ResultRow {
  std::uint64_t sequence = 0;  // insertion order (the "time" axis)
  std::string benchmark;
  std::string system;
  std::string experiment;  // expanded experiment name
  /// Transparent comparator: same type as ramble::VariableMap, so rows
  /// copy straight from ExperimentRecord and feed expand_int directly.
  std::map<std::string, std::string, std::less<>> variables;
  std::string fom_name;
  double value = 0;
  std::string units;
  bool success = true;
};

/// Query filter; empty fields match anything.
struct Query {
  std::string benchmark;
  std::string system;
  std::string fom_name;
  std::optional<bool> success;
};

struct Aggregate {
  std::size_t count = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double stddev = 0;
};

class MetricsDb {
public:
  /// Insert one row; returns its sequence number.
  std::uint64_t insert(ResultRow row);

  [[nodiscard]] std::vector<const ResultRow*> query(const Query& q) const;
  [[nodiscard]] Aggregate aggregate(const Query& q) const;
  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// Distinct values of a dimension (the facets run_analysis groups
  /// series by).
  [[nodiscard]] std::vector<std::string> distinct_systems() const;
  [[nodiscard]] std::vector<std::string> distinct_benchmarks() const;
  [[nodiscard]] std::vector<std::string> distinct_fom_names() const;

  /// A time series of (sequence, value) for regression tracking.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> series(
      const Query& q) const;

  /// Table of a query's rows, one line per row.
  [[nodiscard]] support::Table to_table(const Query& q) const;

private:
  std::vector<ResultRow> rows_;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace benchpark::analysis
