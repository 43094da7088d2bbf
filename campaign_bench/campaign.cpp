#include "campaign.hpp"

#include <optional>
#include <string>

#include "src/analysis/history.hpp"
#include "src/concretizer/concretize_cache.hpp"
#include "src/core/usage.hpp"
#include "src/store/persist.hpp"
#include "src/system/system.hpp"

namespace campaign_bench {

namespace bp = benchpark;
namespace fs = std::filesystem;

PairResult traced_pair(const bp::core::Driver& driver, const Pair& pair,
                       const fs::path& dir, const bp::store::StoreHandle& store,
                       const bp::ramble::RunRequest& request, Spans& spans) {
  const auto id = pair.id();
  bp::ramble::RunRequest run = request;
  run.store = store;
  spans.time("store.warm_start",
             [&] { return bp::store::warm_start_global_caches(store); });
  const auto templates_before = bp::ramble::TemplateCache::global().stats();
  auto ws = spans.time("core.setup",
                       [&] { return driver.setup(id, pair.system, dir); });
  ws.set_store(store);
  spans.time("ramble.setup", [&] { ws.setup(); });
  PairResult out;
  out.run = spans.time("ramble.run_all", [&] { return ws.run_all(run); });
  const auto templates_after = bp::ramble::TemplateCache::global().stats();
  out.template_hits = templates_after.hits - templates_before.hits;
  out.template_misses = templates_after.misses - templates_before.misses;
  out.report = spans.time("ramble.analyze", [&] { return ws.analyze(run); });
  bp::core::UsageMetrics::instance().record_runs(id.benchmark,
                                                 out.report.results.size());
  out.concretize = ws.concretize_summary();
  out.from_source = ws.install_report().from_source;
  out.already_installed = ws.install_report().already_installed;
  if (!store) return out;
  std::optional<bp::analysis::FomHistory> history;
  spans.time("analysis.history_load", [&] { history.emplace(store); });
  spans.time("analysis.history_append", [&] {
    // The same samples run_workflow appends: runtime_seconds plus every
    // numeric FOM per experiment, in submission order.
    const auto& outcomes = out.run.per_experiment;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& o = outcomes[i];
      history->append({id.benchmark, pair.system, o.name, "runtime_seconds"},
                      o.runtime_seconds, "s", o.store_key, o.success);
      ++out.history_samples;
      if (i >= out.report.results.size()) continue;
      for (const auto& fom : out.report.results[i].foms) {
        if (!fom.numeric) continue;
        history->append({id.benchmark, pair.system, o.name, fom.name},
                        fom.value, fom.units, o.store_key, true);
        ++out.history_samples;
      }
    }
    return history->keys().size();  // run_workflow reports the series count
  });
  spans.time("store.persist",
             [&] { bp::store::persist_global_caches(store); });
  spans.time("store.flush", [&] { store->flush(); });
  return out;
}

CampaignRunner::CampaignRunner(const bp::core::Driver& driver,
                               std::vector<Pair> suite,
                               bp::ramble::RunRequest request,
                               const fs::path& placeholder_dir,
                               bool rotate_cpus)
    : driver_(driver),
      suite_(std::move(suite)),
      request_(std::move(request)),
      placeholder_(bp::ramble::Workspace::create(
          placeholder_dir, bp::system::SystemRegistry::instance().get(
                               suite_.front().system))),
      cpus_(rotate_cpus ? allowed_cpus() : std::vector<int>{}) {}

CampaignResult CampaignRunner::run(const std::vector<std::size_t>& order,
                                   const fs::path& dir,
                                   const std::optional<fs::path>& store_dir,
                                   bool traced) {
  bp::concretizer::ConcretizationCache::global().clear();
  bp::ramble::TemplateCache::global().clear();
  CampaignResult out;
  out.pairs.resize(suite_.size());
  const Usage usage_before = Usage::now();
  const double cpu_before = thread_cpu_ms();
  const double process_cpu_before = process_cpu_ms();
  const auto start = Clock::now();
  {
    bp::store::StoreHandle store;
    if (store_dir) {
      store = traced ? out.spans.time("store.open",
                                      [&] {
                                        return bp::store::Store::open(
                                            *store_dir);
                                      })
                     : bp::store::Store::open(*store_dir);
    }
    bp::ramble::RunRequest request = request_;
    request.store = store;
    for (std::size_t k = 0; k < order.size(); ++k) {
      std::optional<PinToCpu> pin;
      if (!cpus_.empty()) pin.emplace(cpus_[k % cpus_.size()]);
      const std::size_t index = order[k];
      const Pair& pair = suite_[index];
      const fs::path ws_dir = dir / pair.slug();
      PairResult& r = out.pairs[index];
      if (traced) {
        r = traced_pair(driver_, pair, ws_dir, store, request, out.spans);
        continue;
      }
      r.report = driver_.run_workflow(pair.id(), pair.system, ws_dir, {},
                                      &placeholder_, request, &r.run);
      r.concretize = placeholder_.concretize_summary();
      r.from_source = placeholder_.install_report().from_source;
      r.already_installed = placeholder_.install_report().already_installed;
    }
    if (store) {
      out.store_records = store->size();
      out.store_stats = store->stats();
    }
  }
  out.wall_ms = ms_since(start);
  out.offcpu_ms = out.wall_ms - (thread_cpu_ms() - cpu_before);
  out.cpu_ms = process_cpu_ms() - process_cpu_before;
  out.usage = Usage::now() - usage_before;
  return out;
}

}  // namespace campaign_bench
