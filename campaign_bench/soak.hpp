// The service soak: a closed loop of campaigns through BenchService.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "src/serve/service.hpp"
#include "suite.hpp"

namespace campaign_bench {

/// One round: `draws` index the suite, in submission order; draw i goes
/// to tenant i % tenants.
struct SoakPlan {
  std::vector<Pair> suite;
  std::vector<std::size_t> draws;
  int tenants = 4;
  int workers = 2;

  [[nodiscard]] static std::string tenant(int index) {
    return "tenant" + std::to_string(index);
  }
};

struct TicketSample {
  double submit_us = 0;
  double turnaround_ms = 0;  // submit() until wait() returns
  benchpark::serve::TicketStatus status;

  /// Turnaround less admission wait: dispatch until wait() returns.
  [[nodiscard]] double campaign_ms() const {
    return turnaround_ms - status.admission_wait_seconds * 1e3;
  }
};

/// What the traced runner measured for one ticket.
struct RunnerSample {
  double wall_ms = 0;
  double offcpu_ms = 0;
  Spans spans;
  PairResult pair;
  /// The tenant store's records replayed at open, and appended by this
  /// ticket.
  std::size_t loaded_records = 0;
  std::size_t appended_records = 0;
};

struct SoakRound {
  double setup_ms = 0;  // BenchService construction
  double wall_ms = 0;   // first submit until the last wait() returns
  double cpu_ms = 0;    // process CPU time over the same interval
  std::vector<TicketSample> tickets;
  benchpark::serve::ServiceStats stats;
  Usage usage;
  /// Traced rounds only, by ticket id.
  std::map<benchpark::serve::TicketId, RunnerSample> runner;
};

/// Run one round against a fresh service rooted at `base_dir`, which
/// must not exist yet, with the process-wide caches cleared first. `traced` injects a runner that does what the
/// default runner does (run_workflow as traced_pair, then run_analysis)
/// with spans around each call.
SoakRound run_soak_round(const SoakPlan& plan,
                         const std::filesystem::path& base_dir, bool traced);

/// Median of each kernel FOM recorded in the tenants' FOM histories of a
/// finished round, by KernelPoint::metric.
std::map<std::string, double> soak_kernel_foms(
    const SoakPlan& plan, const std::filesystem::path& base_dir,
    const std::vector<KernelPoint>& points);

}  // namespace campaign_bench
