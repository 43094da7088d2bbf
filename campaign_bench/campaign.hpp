// One campaign: every pair of a suite through the workflow, against one
// store. Untraced campaigns call Driver::run_workflow; traced campaigns
// call the same public functions run_workflow calls, in the same order,
// with a span around each.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <vector>

#include "measure.hpp"
#include "src/core/driver.hpp"
#include "src/ramble/expansion.hpp"
#include "src/ramble/workspace.hpp"
#include "src/store/store.hpp"
#include "suite.hpp"

namespace campaign_bench {

/// What one pair's workflow returned.
struct PairResult {
  benchpark::ramble::AnalyzeReport report;
  benchpark::ramble::RunReport run;
  benchpark::ramble::ConcretizeSummary concretize;
  std::size_t from_source = 0;
  std::size_t already_installed = 0;
  /// Traced runs only: samples appended to the FOM history, and
  /// TemplateCache traffic from workspace setup through run_all (the
  /// cache's counters restart from the store's on a warm start, so only a
  /// delta taken after it counts this pair's lookups).
  std::size_t history_samples = 0;
  std::size_t template_hits = 0;
  std::size_t template_misses = 0;
};

/// Run one pair as run_workflow does, timing each public call in
/// `spans`. `store` may be null (no persistence, as run_workflow without
/// a store).
PairResult traced_pair(const benchpark::core::Driver& driver, const Pair& pair,
                       const std::filesystem::path& dir,
                       const benchpark::store::StoreHandle& store,
                       const benchpark::ramble::RunRequest& request,
                       Spans& spans);

struct CampaignResult {
  double wall_ms = 0;
  /// Wall time the driving thread spent off-CPU.
  double offcpu_ms = 0;
  /// CPU time of the whole process (every pool thread) over the campaign.
  double cpu_ms = 0;
  Usage usage;
  /// Index-aligned with the suite (not with the run order).
  std::vector<PairResult> pairs;
  /// Live records and stats of the campaign's store (zero without one).
  std::size_t store_records = 0;
  benchpark::store::StoreStats store_stats;
  Spans spans;  // traced campaigns only
};

class CampaignRunner {
 public:
  /// `placeholder` receives each untraced workflow's workspace, which is
  /// where the install report is read from. `rotate_cpus` pins the k-th
  /// pair of a campaign to the k-th allowed CPU (cyclically), so single-threaded native
  /// kernels sample every core instead of whichever one the scheduler
  /// kept the process on (on a shared host the cores differ by up to 2x
  /// at one moment).
  CampaignRunner(const benchpark::core::Driver& driver, std::vector<Pair> suite,
                 benchpark::ramble::RunRequest request,
                 const std::filesystem::path& placeholder_dir,
                 bool rotate_cpus);

  /// Run the suite in `order` under `dir` (one workspace per pair).
  /// `store_dir` set: one store opened there for the whole campaign.
  /// The process-wide concretization and template caches are cleared
  /// first, as in a fresh CI job.
  CampaignResult run(const std::vector<std::size_t>& order,
                     const std::filesystem::path& dir,
                     const std::optional<std::filesystem::path>& store_dir,
                     bool traced);

  [[nodiscard]] const std::vector<Pair>& suite() const { return suite_; }

 private:
  const benchpark::core::Driver& driver_;
  std::vector<Pair> suite_;
  benchpark::ramble::RunRequest request_;
  benchpark::ramble::Workspace placeholder_;
  std::vector<int> cpus_;  // empty: no pinning
};

}  // namespace campaign_bench
