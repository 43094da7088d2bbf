// Service benchmarks: admission throughput (submissions/sec into a
// paused in-memory service), the full submit->dispatch->complete soak
// (16 tenants, synthetic campaigns), and durable-submit overhead (the
// per-ticket journal fsync). The soak publishes admission-wait p50/p99
// — the CI service-stress job normalizes these into BENCH_service.json
// and gates on throughput.
#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"

#include "src/serve/service.hpp"
#include "src/support/fs_util.hpp"
#include "src/support/percentile.hpp"

namespace {

namespace serve = benchpark::serve;
namespace support = benchpark::support;

serve::CampaignRunner null_runner() {
  return [](const serve::CampaignRequest&, const serve::CampaignContext&) {
    serve::CampaignOutcome out;
    out.experiments = 1;
    out.succeeded = 1;
    return out;
  };
}

/// Pure admission cost: the service is paused, so every submit exercises
/// validation, fair-share push, ticket bookkeeping — and nothing else.
void BM_SubmitAdmission(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    serve::ServiceConfig config;
    config.workers = 1;
    config.start_paused = true;
    config.max_queued_total = 1u << 20;
    config.default_quota = {1.0, 4, 1u << 20};
    config.runner = null_runner();
    serve::BenchService service(std::move(config));
    state.ResumeTiming();

    for (int i = 0; i < 1024; ++i) {
      serve::CampaignRequest req;
      req.tenant = "tenant" + std::to_string(i % tenants);
      req.experiment = "exp/v";
      req.system = "cts1";
      benchpark_bench::keep(service.submit(req));
    }

    state.PauseTiming();
    service.wait_all();  // settle before the dtor drains
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
  state.SetLabel(std::to_string(tenants) + " tenants");
}
BENCHMARK(BM_SubmitAdmission)->Arg(1)->Arg(16);

/// The soak: 16 tenants x 64 campaigns land from 16 submitter threads
/// while 4 workers dispatch. Items/sec is end-to-end campaign
/// throughput; counters carry the admission-wait distribution.
void BM_ServiceSoak(benchmark::State& state) {
  constexpr int kTenants = 16;
  constexpr int kPerTenant = 64;
  double wait_p50_us = 0;
  double wait_p99_us = 0;
  for (auto _ : state) {
    serve::ServiceConfig config;
    config.workers = 4;
    config.max_queued_total = 1u << 20;
    config.default_quota = {1.0, 2, 1u << 20};
    config.runner = null_runner();
    serve::BenchService service(std::move(config));

    std::vector<std::thread> submitters;
    submitters.reserve(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      submitters.emplace_back([&service, t] {
        for (int i = 0; i < kPerTenant; ++i) {
          serve::CampaignRequest req;
          req.tenant = "tenant" + std::to_string(t);
          req.experiment = "exp" + std::to_string(i % 5) + "/v";
          req.system = "cts1";
          (void)service.submit(req);
        }
      });
    }
    for (auto& s : submitters) s.join();
    auto statuses = service.wait_all();

    std::vector<double> waits_us;
    waits_us.reserve(statuses.size());
    for (const auto& st : statuses) {
      waits_us.push_back(st.admission_wait_seconds * 1e6);
    }
    wait_p50_us = support::percentile(waits_us, 50.0);
    wait_p99_us = support::percentile(waits_us, 99.0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kTenants * kPerTenant);
  state.counters["admission_wait_p50_us"] = wait_p50_us;
  state.counters["admission_wait_p99_us"] = wait_p99_us;
}
BENCHMARK(BM_ServiceSoak)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Durable admission: every submit journals the ticket and fsyncs. The
/// delta against BM_SubmitAdmission is the crash-durability price.
void BM_SubmitDurable(benchmark::State& state) {
  support::TempDir base;
  serve::ServiceConfig config;
  config.base_dir = base.path();
  config.workers = 2;  // dispatch keeps pace, so the queue stays bounded
  config.max_queued_total = 1u << 20;
  config.default_quota = {1.0, 4, 1u << 20};
  config.runner = null_runner();
  serve::BenchService service(std::move(config));

  int i = 0;
  for (auto _ : state) {
    serve::CampaignRequest req;
    req.tenant = "tenant" + std::to_string(i++ % 8);
    req.experiment = "exp/v";
    req.system = "cts1";
    benchpark_bench::keep(service.submit(req));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  service.wait_all();
}
BENCHMARK(BM_SubmitDurable);

}  // namespace

BENCHMARK_MAIN();
