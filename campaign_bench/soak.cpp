#include "soak.hpp"

#include <deque>
#include <mutex>
#include <optional>

#include "src/analysis/analysis.hpp"
#include "src/analysis/history.hpp"
#include "src/concretizer/concretize_cache.hpp"
#include "src/ramble/expansion.hpp"
#include "src/support/error.hpp"
#include "stats.hpp"

namespace campaign_bench {

namespace bp = benchpark;
namespace fs = std::filesystem;

SoakRound run_soak_round(const SoakPlan& plan, const fs::path& base_dir,
                         bool traced) {
  SoakRound round;
  std::mutex runner_mu;
  bp::serve::BenchService* service = nullptr;

  bp::serve::ServiceConfig config;
  config.base_dir = base_dir;
  config.workers = plan.workers;
  if (traced) {
    config.runner = [&](const bp::serve::CampaignRequest& req,
                        const bp::serve::CampaignContext& ctx) {
      // The default runner's steps, each call inside a span.
      RunnerSample sample;
      const auto store_before =
          ctx.store ? ctx.store->stats() : bp::store::StoreStats{};
      const double cpu_before = thread_cpu_ms();
      const auto start = Clock::now();
      const bp::ramble::RunRequest run;  // ServiceConfig::run's default
      sample.pair = traced_pair(service->driver(),
                                Pair{req.experiment, req.system},
                                ctx.workspace_dir, ctx.store, run,
                                sample.spans);
      const auto& report = sample.pair.report;
      bp::serve::CampaignOutcome out;
      out.experiments = report.results.size();
      out.succeeded = report.num_success();
      out.store_hits = sample.pair.run.store_hits;
      out.store_misses = sample.pair.run.store_misses;
      out.success = !report.results.empty() && out.succeeded == out.experiments;
      if (!out.success) out.detail = "campaign had failing experiments";
      if (ctx.store) {
        sample.spans.time("analysis.scan", [&] {
          try {
            bp::analysis::AnalysisRequest scan;
            scan.store = ctx.store;
            scan.benchmark = bp::core::ExperimentId::parse(req.experiment)
                                 .benchmark;
            scan.system = req.system;
            scan.detector = bp::analysis::DetectorConfig{};
            out.regressions = bp::analysis::run_analysis(scan)
                                  .regressed_series();
          } catch (const bp::Error&) {
            // Advisory, as in the default runner.
          }
        });
      }
      sample.wall_ms = ms_since(start);
      sample.offcpu_ms = sample.wall_ms - (thread_cpu_ms() - cpu_before);
      if (ctx.store) {
        const auto store_after = ctx.store->stats();
        sample.loaded_records = store_after.loaded_records;
        sample.appended_records =
            store_after.appended_records - store_before.appended_records;
      }
      std::lock_guard lock(runner_mu);
      round.runner.emplace(ctx.ticket, std::move(sample));
      return out;
    };
  }

  // Each round stands for a fresh service process: start it with empty
  // process-wide caches, as a campaign does.
  bp::concretizer::ConcretizationCache::global().clear();
  bp::ramble::TemplateCache::global().clear();
  const auto setup_start = Clock::now();
  std::optional<bp::serve::BenchService> svc;
  svc.emplace(config);
  service = &*svc;
  round.setup_ms = ms_since(setup_start);

  struct Outstanding {
    bp::serve::TicketId id;
    int tenant;
    Clock::time_point submitted;
    double submit_us;
  };
  std::deque<Outstanding> outstanding;
  std::size_t next = 0;
  auto submit = [&](int tenant) {
    while (next < plan.draws.size()) {
      const Pair& pair = plan.suite[plan.draws[next++]];
      const auto t0 = Clock::now();
      try {
        const auto id = svc->submit(
            {SoakPlan::tenant(tenant), pair.experiment, pair.system, 0});
        outstanding.push_back({id, tenant, t0, ms_since(t0) * 1e3});
        return;
      } catch (const bp::serve::ServiceBusy&) {
        // Counted in ServiceStats::rejected; the draw is skipped.
      }
    }
  };

  const Usage usage_before = Usage::now();
  const double cpu_before = process_cpu_ms();
  const auto start = Clock::now();
  for (int t = 0; t < plan.tenants; ++t) submit(t);
  while (!outstanding.empty()) {
    const Outstanding o = outstanding.front();
    outstanding.pop_front();
    TicketSample sample;
    sample.status = svc->wait(o.id);
    sample.turnaround_ms = ms_since(o.submitted);
    sample.submit_us = o.submit_us;
    round.tickets.push_back(std::move(sample));
    submit(o.tenant);
  }
  round.wall_ms = ms_since(start);
  round.cpu_ms = process_cpu_ms() - cpu_before;
  round.usage = Usage::now() - usage_before;
  round.stats = svc->stats();
  svc.reset();  // drain and join before the runner's captures go away
  return round;
}

std::map<std::string, double> soak_kernel_foms(
    const SoakPlan& plan, const fs::path& base_dir,
    const std::vector<KernelPoint>& points) {
  std::map<std::string, std::vector<double>> values;
  for (int t = 0; t < plan.tenants; ++t) {
    const fs::path dir =
        bp::serve::BenchService::tenant_root(base_dir, SoakPlan::tenant(t)) /
        "store";
    if (!fs::exists(dir)) continue;
    const bp::analysis::FomHistory history(bp::store::Store::open(dir));
    for (const auto& p : points) {
      for (const auto& s : history.series({p.kernel, "cts2", p.name(), p.fom})) {
        values[p.metric].push_back(s.value);
      }
    }
  }
  std::map<std::string, double> out;
  for (const auto& [metric, v] : values) out[metric] = median(v);
  return out;
}

}  // namespace campaign_bench
