// BenchService tests: the multi-tenant daemon's whole contract.
//
//  - FairShareQueue properties: exact weighted shares (DRR quanta), the
//    no-starvation bound (a saturated tenant waits at most one rotation),
//    intra-tenant priority order, in-flight caps.
//  - Concurrency stress: 1056 campaigns from 16 tenants submitted from 16
//    threads, exactly-once execution per ticket, per-tenant in-flight
//    quotas never exceeded, results identical to a serial submission.
//  - Backpressure: bounded tenant/global queues reject with ServiceBusy
//    (retry-after hint), and a seeded "serve.admit" fault plan rejects
//    the same submissions on every run.
//  - Durability: drain/restart re-executes zero completed experiments
//    (the replayed campaign is all store hits, .out files byte-identical)
//    and a crash-stopped service's durable queued tickets replay.
//
// Carries the "threads" label: the TSAN job races submit/dispatch/drain
// for real.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/serve/admission.hpp"
#include "src/serve/service.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/fs_util.hpp"

namespace fs = std::filesystem;
namespace obs = benchpark::obs;
namespace serve = benchpark::serve;
namespace support = benchpark::support;
using benchpark::Error;
using serve::BenchService;
using serve::CampaignRequest;
using serve::FairShareQueue;
using serve::ServiceBusy;
using serve::ServiceConfig;
using serve::TenantQuota;
using serve::TicketId;
using serve::TicketState;

namespace {

/// Shared accounting for synthetic campaign runners: exactly-once and
/// quota checks for the stress tests.
struct RunnerProbe {
  std::mutex mu;
  std::map<TicketId, int> executions;
  std::map<std::string, int> tenant_in_flight;
  std::map<std::string, int> tenant_in_flight_max;
  int in_flight = 0;
  int in_flight_max = 0;
};

/// A synthetic campaign: no Driver, no filesystem. The outcome is a pure
/// function of the request, so concurrent and serial runs must agree.
serve::CampaignRunner synthetic_runner(RunnerProbe& probe,
                                       int sleep_us = 0) {
  return [&probe, sleep_us](const CampaignRequest& req,
                            const serve::CampaignContext& ctx) {
    {
      std::lock_guard<std::mutex> lock(probe.mu);
      ++probe.executions[ctx.ticket];
      int cur = ++probe.tenant_in_flight[req.tenant];
      probe.tenant_in_flight_max[req.tenant] =
          std::max(probe.tenant_in_flight_max[req.tenant], cur);
      probe.in_flight_max = std::max(probe.in_flight_max, ++probe.in_flight);
    }
    if (sleep_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    }
    serve::CampaignOutcome out;
    out.experiments = 1 + req.experiment.size() % 3;
    out.succeeded = out.experiments;
    {
      std::lock_guard<std::mutex> lock(probe.mu);
      --probe.tenant_in_flight[req.tenant];
      --probe.in_flight;
    }
    return out;
  };
}

/// Collect every .out file under a campaign workspace, keyed by path
/// relative to `root` (the byte-identical restart comparison).
std::map<std::string, std::string> out_files(const fs::path& root) {
  std::map<std::string, std::string> found;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".out") continue;
    found[fs::relative(entry.path(), root).string()] =
        support::read_file(entry.path());
  }
  return found;
}

}  // namespace

// ------------------------------------------------- fair-share properties

TEST(FairShare, WeightedSharesConvergeExactly) {
  FairShareQueue q;
  q.configure("a", {1.0, 1024, 4096});
  q.configure("b", {2.0, 1024, 4096});
  q.configure("c", {4.0, 1024, 4096});
  TicketId id = 1;
  for (int i = 0; i < 150; ++i) q.push("a", id++, 0);
  for (int i = 0; i < 250; ++i) q.push("b", id++, 0);
  for (int i = 0; i < 450; ++i) q.push("c", id++, 0);

  // 700 pops = 100 full DRR rotations of quanta 1 + 2 + 4. Releasing
  // after every pop keeps every tenant eligible throughout.
  std::map<std::string, int> served;
  std::map<TicketId, std::string> owner;
  id = 1;
  for (int i = 0; i < 150; ++i) owner[id++] = "a";
  for (int i = 0; i < 250; ++i) owner[id++] = "b";
  for (int i = 0; i < 450; ++i) owner[id++] = "c";
  for (int i = 0; i < 700; ++i) {
    auto picked = q.pop();
    ASSERT_TRUE(picked.has_value()) << "pop " << i;
    const std::string& tenant = owner.at(*picked);
    ++served[tenant];
    q.release(tenant);
  }
  // Weights 1:2:4 over 100 rotations: exact, not approximate.
  EXPECT_EQ(served["a"], 100);
  EXPECT_EQ(served["b"], 200);
  EXPECT_EQ(served["c"], 400);
}

TEST(FairShare, NoStarvationBoundedWait) {
  // 15 heavy tenants (weight 8) saturate the queue; the weight-1 tenant
  // must still be served at least once per rotation: its wait between
  // consecutive dispatches is bounded by the sum of normalized quanta,
  // 15 * 8 + 1 = 121, no matter how heavy the neighbors are.
  FairShareQueue q;
  std::map<TicketId, std::string> owner;
  TicketId id = 1;
  for (int t = 0; t < 15; ++t) {
    std::string name = "heavy" + std::to_string(t);
    q.configure(name, {8.0, 1024, 4096});
    for (int i = 0; i < 40; ++i) {
      owner[id] = name;
      q.push(name, id++, 0);
    }
  }
  q.configure("light", {1.0, 1024, 4096});
  for (int i = 0; i < 8; ++i) {
    owner[id] = "light";
    q.push("light", id++, 0);
  }

  constexpr int kRotation = 15 * 8 + 1;
  int last_light = 0;
  int light_served = 0;
  for (int i = 1; i <= 3 * kRotation; ++i) {
    auto picked = q.pop();
    ASSERT_TRUE(picked.has_value()) << "pop " << i;
    const std::string& tenant = owner.at(*picked);
    if (tenant == "light") {
      EXPECT_LE(i - last_light, kRotation) << "light starved at pop " << i;
      last_light = i;
      ++light_served;
    }
    q.release(tenant);
  }
  EXPECT_EQ(light_served, 3);
}

TEST(FairShare, PriorityOrdersWithinTenantFifoAmongEquals) {
  FairShareQueue q;
  q.configure("a", {1.0, 16, 64});
  q.push("a", 1, 0);
  q.push("a", 2, 5);
  q.push("a", 3, 5);
  q.push("a", 4, 9);
  std::vector<TicketId> order;
  while (auto picked = q.pop()) {
    order.push_back(*picked);
    q.release("a");
  }
  EXPECT_EQ(order, (std::vector<TicketId>{4, 2, 3, 1}));
}

TEST(FairShare, InFlightCapAndRelease) {
  FairShareQueue q;
  q.configure("a", {1.0, 2, 64});
  for (TicketId i = 1; i <= 5; ++i) q.push("a", i, 0);
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_EQ(q.in_flight("a"), 2);
  // At the cap: the tenant is ineligible even with queued work.
  EXPECT_FALSE(q.pop().has_value());
  q.release("a");
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_EQ(q.depth("a"), 2u);
}

TEST(FairShare, TenantQueueBoundRefuses) {
  FairShareQueue q;
  q.configure("a", {1.0, 4, 2});
  EXPECT_EQ(q.push("a", 1, 0), FairShareQueue::Refusal::none);
  EXPECT_EQ(q.push("a", 2, 0), FairShareQueue::Refusal::none);
  EXPECT_EQ(q.push("a", 3, 0), FairShareQueue::Refusal::tenant_full);
  EXPECT_EQ(q.depth(), 2u);
}

// ------------------------------------------------------ service: stress

TEST(ServiceStress, ConcurrentTenantsExactlyOnceWithinQuota) {
  constexpr int kTenants = 16;
  constexpr int kPerTenant = 66;  // 1056 campaigns total
  RunnerProbe probe;

  ServiceConfig config;
  config.workers = 8;
  config.max_queued_total = 4096;
  config.default_quota = {1.0, 3, 4096};
  for (int t = 0; t < kTenants; ++t) {
    config.tenants["tenant" + std::to_string(t)] =
        TenantQuota{static_cast<double>(t % 4 + 1), 3, 4096};
  }
  config.runner = synthetic_runner(probe);
  BenchService service(std::move(config));

  std::vector<std::thread> submitters;
  std::atomic<int> accepted{0};
  submitters.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    submitters.emplace_back([&service, &accepted, t] {
      for (int i = 0; i < kPerTenant; ++i) {
        CampaignRequest req;
        req.tenant = "tenant" + std::to_string(t);
        req.experiment = "bench" + std::to_string(i % 7) + "/variant";
        req.system = "cts1";
        service.submit(req);
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& s : submitters) s.join();
  EXPECT_EQ(accepted.load(), kTenants * kPerTenant);

  auto statuses = service.wait_all();
  ASSERT_EQ(statuses.size(), static_cast<std::size_t>(kTenants * kPerTenant));

  // Exactly-once: every ticket executed once, none twice, none dropped.
  std::lock_guard<std::mutex> lock(probe.mu);
  EXPECT_EQ(probe.executions.size(),
            static_cast<std::size_t>(kTenants * kPerTenant));
  for (const auto& [ticket, runs] : probe.executions) {
    EXPECT_EQ(runs, 1) << "ticket " << ticket;
  }
  // Quotas: per-tenant in-flight never exceeded its cap, service-wide
  // concurrency never exceeded the worker pool.
  for (const auto& [tenant, peak] : probe.tenant_in_flight_max) {
    EXPECT_LE(peak, 3) << tenant;
  }
  EXPECT_LE(probe.in_flight_max, 8);

  // Every ticket completed, with a distinct admission sequence number.
  std::set<std::uint64_t> seqs;
  for (const auto& st : statuses) {
    EXPECT_EQ(st.state, TicketState::completed) << "ticket " << st.id;
    EXPECT_GE(st.admission_wait_seconds, 0.0);
    seqs.insert(st.admit_seq);
  }
  EXPECT_EQ(seqs.size(), statuses.size());

  auto stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTenants *
                                                        kPerTenant));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(ServiceStress, ConcurrentResultsMatchSerialSubmission) {
  // The synthetic outcome is a pure function of the request, so the
  // (tenant, experiment, outcome) multiset from a 16-thread submission
  // must equal the one from submitting the same requests serially.
  using Row = std::tuple<std::string, std::string, std::size_t>;
  auto run = [](bool concurrent) {
    RunnerProbe probe;
    ServiceConfig config;
    config.workers = concurrent ? 6 : 1;
    config.max_queued_total = 4096;
    config.default_quota = {1.0, 2, 4096};
    config.runner = synthetic_runner(probe);
    BenchService service(std::move(config));

    constexpr int kTenants = 8;
    constexpr int kPerTenant = 32;
    auto submit_tenant = [&service](int t) {
      for (int i = 0; i < kPerTenant; ++i) {
        CampaignRequest req;
        req.tenant = "t" + std::to_string(t);
        req.experiment = "exp" + std::to_string((t * 7 + i) % 5) + "/v";
        req.system = "cts1";
        service.submit(req);
      }
    };
    if (concurrent) {
      std::vector<std::thread> threads;
      for (int t = 0; t < kTenants; ++t) {
        threads.emplace_back(submit_tenant, t);
      }
      for (auto& th : threads) th.join();
    } else {
      for (int t = 0; t < kTenants; ++t) submit_tenant(t);
    }
    std::vector<Row> rows;
    for (const auto& st : service.wait_all()) {
      EXPECT_EQ(st.state, TicketState::completed);
      rows.emplace_back(st.tenant, st.experiment, st.succeeded);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  EXPECT_EQ(run(/*concurrent=*/true), run(/*concurrent=*/false));
}

// ------------------------------------------------- service: backpressure

TEST(ServiceBackpressure, TenantAndGlobalBoundsRejectWithRetryAfter) {
  RunnerProbe probe;
  ServiceConfig config;
  config.workers = 1;
  config.start_paused = true;  // freeze dispatch: queue states are exact
  config.max_queued_total = 3;
  config.tenants["a"] = TenantQuota{1.0, 4, 2};
  config.runner = synthetic_runner(probe);
  BenchService service(std::move(config));

  auto req = [](const std::string& tenant) {
    CampaignRequest r;
    r.tenant = tenant;
    r.experiment = "exp/v";
    r.system = "cts1";
    return r;
  };
  service.submit(req("a"));
  service.submit(req("a"));
  try {
    service.submit(req("a"));  // tenant queue bound (2)
    FAIL() << "expected ServiceBusy";
  } catch (const ServiceBusy& e) {
    EXPECT_GT(e.retry_after_seconds, 0.0);
    EXPECT_NE(std::string(e.what()).find("tenant queue is full"),
              std::string::npos)
        << e.what();
  }
  service.submit(req("b"));  // depth now 3 == global bound
  try {
    service.submit(req("b"));
    FAIL() << "expected ServiceBusy";
  } catch (const ServiceBusy& e) {
    EXPECT_NE(std::string(e.what()).find("service queue is full"),
              std::string::npos)
        << e.what();
  }

  auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.queue_depth, 3u);

  // wait_all resumes the paused dispatch and runs the accepted backlog.
  auto statuses = service.wait_all();
  ASSERT_EQ(statuses.size(), 3u);
  for (const auto& st : statuses) {
    EXPECT_EQ(st.state, TicketState::completed);
  }
}

TEST(ServiceBackpressure, SeededAdmitFaultsRejectDeterministically) {
  // The "serve.admit" fault key is the tenant's submission ordinal, so a
  // seeded probabilistic plan rejects the same submissions on every run.
  support::ScopedFaultPlan guard;
  auto run_once = [] {
    auto& plan = support::FaultPlan::global();
    plan.clear();
    plan.set_seed(42);
    support::FaultRule rule;
    rule.site = "serve.admit";
    rule.probability = 0.35;
    plan.add_rule(rule);

    RunnerProbe probe;
    ServiceConfig config;
    config.workers = 1;
    config.start_paused = true;
    config.max_queued_total = 4096;
    config.default_quota = {1.0, 4, 4096};
    config.runner = synthetic_runner(probe);
    BenchService service(std::move(config));

    std::vector<int> rejected;
    for (int i = 0; i < 100; ++i) {
      CampaignRequest req;
      req.tenant = "t" + std::to_string(i % 4);
      req.experiment = "exp/v";
      req.system = "cts1";
      try {
        service.submit(req);
      } catch (const ServiceBusy&) {
        rejected.push_back(i);
      }
    }
    support::FaultPlan::global().clear();
    service.wait_all();
    return rejected;
  };

  auto first = run_once();
  auto second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 100u);  // the plan rejects some, not all
}

TEST(ServicePriority, HigherPriorityDispatchesFirstWithinTenant) {
  RunnerProbe probe;
  ServiceConfig config;
  config.workers = 1;
  config.start_paused = true;
  config.runner = synthetic_runner(probe);
  BenchService service(std::move(config));

  CampaignRequest req;
  req.tenant = "a";
  req.experiment = "exp/v";
  req.system = "cts1";
  req.priority = 0;
  TicketId low1 = service.submit(req);
  req.priority = 5;
  TicketId high = service.submit(req);
  req.priority = 0;
  TicketId low2 = service.submit(req);

  service.wait_all();
  auto hi = service.status(high);
  auto lo1 = service.status(low1);
  auto lo2 = service.status(low2);
  EXPECT_LT(hi.admit_seq, lo1.admit_seq);
  EXPECT_LT(lo1.admit_seq, lo2.admit_seq);
}

// ----------------------------------------------- service: dispatch faults

TEST(ServiceFaults, TransientDispatchFaultRetriesThenCompletes) {
  support::ScopedFaultPlan guard;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "serve.dispatch";
  rule.key = "t1";
  rule.nth = 1;  // first attempt fails, second is clean
  plan.add_rule(rule);

  RunnerProbe probe;
  ServiceConfig config;
  config.runner = synthetic_runner(probe);
  BenchService service(std::move(config));
  TicketId id = service.submit({"a", "exp/v", "cts1"});
  auto st = service.wait(id);
  EXPECT_EQ(st.state, TicketState::completed);
  EXPECT_EQ(st.attempts, 2);
}

TEST(ServiceFaults, ExhaustedDispatchRetriesParkInterrupted) {
  support::ScopedFaultPlan guard;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "serve.dispatch";
  rule.key = "t1";
  rule.nth = 1;
  rule.count = 10;  // every attempt fails
  plan.add_rule(rule);

  RunnerProbe probe;
  ServiceConfig config;
  config.runner = synthetic_runner(probe);
  BenchService service(std::move(config));
  TicketId id = service.submit({"a", "exp/v", "cts1"});
  auto st = service.wait(id);
  EXPECT_EQ(st.state, TicketState::interrupted);
  EXPECT_EQ(st.attempts, 3);  // support::kRetryAttempts
  EXPECT_EQ(service.stats().interrupted, 1u);
  // The campaign never ran: the fault killed dispatch before the runner.
  std::lock_guard<std::mutex> lock(probe.mu);
  EXPECT_TRUE(probe.executions.empty());
}

// ------------------------------------------------------- service: drain

TEST(ServiceDrain, FinishesAcceptedWorkThenRefusesNew) {
  RunnerProbe probe;
  ServiceConfig config;
  config.workers = 2;
  config.default_quota = {1.0, 2, 256};
  config.runner = synthetic_runner(probe, /*sleep_us=*/200);
  BenchService service(std::move(config));

  for (int i = 0; i < 20; ++i) {
    CampaignRequest req;
    req.tenant = "t" + std::to_string(i % 4);
    req.experiment = "exp/v";
    req.system = "cts1";
    service.submit(req);
  }
  EXPECT_TRUE(service.accepting());
  service.drain();
  EXPECT_FALSE(service.accepting());

  // Every accepted ticket reached a terminal state.
  auto statuses = service.tickets();
  ASSERT_EQ(statuses.size(), 20u);
  for (const auto& st : statuses) {
    EXPECT_EQ(st.state, TicketState::completed) << "ticket " << st.id;
  }
  EXPECT_THROW(service.submit({"t0", "exp/v", "cts1"}), ServiceBusy);
  EXPECT_EQ(service.stats().completed, 20u);
}

// ------------------------------------------- service: real-driver runs

TEST(ServiceDriver, EndToEndCampaignWarmStartsTenantStore) {
  support::TempDir base;
  ServiceConfig config;
  config.base_dir = base.path();
  config.workers = 2;
  config.run.threads = 2;
  BenchService service(std::move(config));

  TicketId cold = service.submit({"llnl", "saxpy/openmp", "cts1"});
  auto cold_st = service.wait(cold);
  ASSERT_EQ(cold_st.state, TicketState::completed);
  EXPECT_EQ(cold_st.experiments, 8u);
  EXPECT_EQ(cold_st.succeeded, 8u);
  EXPECT_EQ(cold_st.store_hits, 0u);
  EXPECT_EQ(cold_st.store_misses, 8u);

  // Same tenant, same campaign: the per-tenant store makes it all hits.
  TicketId warm = service.submit({"llnl", "saxpy/openmp", "cts1"});
  auto warm_st = service.wait(warm);
  ASSERT_EQ(warm_st.state, TicketState::completed);
  EXPECT_EQ(warm_st.store_hits, 8u);
  EXPECT_EQ(warm_st.store_misses, 0u);

  EXPECT_TRUE(fs::exists(BenchService::tenant_root(base.path(), "llnl") /
                         "store"));
}

TEST(ServiceDriver, TenantsAreIsolated) {
  support::TempDir base;
  ServiceConfig config;
  config.base_dir = base.path();
  config.workers = 2;
  config.run.threads = 2;
  BenchService service(std::move(config));

  TicketId alice = service.submit({"alice", "saxpy/openmp", "cts1"});
  ASSERT_EQ(service.wait(alice).state, TicketState::completed);
  // Bob's first campaign sees a cold store: Alice's results never leak
  // across the tenant boundary.
  TicketId bob = service.submit({"bob", "saxpy/openmp", "cts1"});
  auto bob_st = service.wait(bob);
  ASSERT_EQ(bob_st.state, TicketState::completed);
  EXPECT_EQ(bob_st.store_hits, 0u);
  EXPECT_EQ(bob_st.store_misses, 8u);

  EXPECT_TRUE(fs::exists(base.path() / "tenants" / "alice" / "store"));
  EXPECT_TRUE(fs::exists(base.path() / "tenants" / "bob" / "store"));
  EXPECT_TRUE(fs::exists(base.path() / "tenants" / "alice" / "campaigns"));
  EXPECT_TRUE(fs::exists(base.path() / "tenants" / "bob" / "campaigns"));
}

TEST(ServiceDriver, InvalidRequestsRejectAtSubmitTime) {
  support::TempDir base;
  ServiceConfig config;
  config.base_dir = base.path();
  BenchService service(std::move(config));
  // Unknown experiment / system: plain Error, not ServiceBusy — the
  // request is wrong, not the service busy.
  EXPECT_THROW(service.submit({"llnl", "nope/nope", "cts1"}), Error);
  EXPECT_THROW(service.submit({"llnl", "saxpy/openmp", "atlantis"}), Error);
  EXPECT_THROW(service.submit({"../evil", "saxpy/openmp", "cts1"}), Error);
  EXPECT_EQ(service.stats().rejected, 0u);  // invalid != backpressure
}

// ------------------------------------- service: restart & crash recovery

TEST(ServiceRestart, ReplayedCampaignReExecutesNothing) {
  support::TempDir base;
  support::ScopedFaultPlan guard;
  TicketId killed = 0;
  {
    // A permanent "serve.dispatch" fault on ticket 2 models the worker
    // node dying with the campaign on it.
    auto& plan = support::FaultPlan::global();
    plan.clear();
    support::FaultRule rule;
    rule.site = "serve.dispatch";
    rule.key = "t2";
    rule.nth = 1;
    rule.count = 100;
    rule.kind = support::FaultKind::permanent;
    plan.add_rule(rule);

    ServiceConfig config;
    config.base_dir = base.path();
    config.workers = 1;
    config.run.threads = 2;
    BenchService first(std::move(config));
    TicketId ok = first.submit({"llnl", "saxpy/openmp", "cts1"});
    killed = first.submit({"llnl", "saxpy/openmp", "cts1"});
    EXPECT_EQ(first.wait(ok).state, TicketState::completed);
    EXPECT_EQ(first.wait(killed).state, TicketState::interrupted);
    first.drain();
  }
  support::FaultPlan::global().clear();

  ServiceConfig config;
  config.base_dir = base.path();
  config.workers = 1;
  config.run.threads = 2;
  BenchService second(std::move(config));
  EXPECT_EQ(second.stats().replayed, 1u);
  auto statuses = second.wait_all();
  ASSERT_EQ(statuses.size(), 1u);
  const auto& replayed = statuses.front();
  EXPECT_EQ(replayed.id, killed);
  EXPECT_TRUE(replayed.replayed);
  EXPECT_EQ(replayed.state, TicketState::completed);
  // Zero re-executed experiments: the pre-crash campaign's results are
  // all in the tenant store, so the replay is pure restore.
  EXPECT_EQ(replayed.store_hits, 8u);
  EXPECT_EQ(replayed.store_misses, 0u);

  // Byte-identical outputs between the pre-crash campaign and the
  // replayed one, from different workspace directories.
  auto campaigns = BenchService::tenant_root(base.path(), "llnl") /
                   "campaigns";
  auto original = out_files(campaigns / "t1");
  auto restored = out_files(campaigns / ("t" + std::to_string(killed)));
  ASSERT_FALSE(original.empty());
  EXPECT_EQ(original, restored);

  // A third incarnation finds a fully-settled journal.
  second.drain();
}

TEST(ServiceRestart, CrashStopReplaysDurableQueuedTickets) {
  support::TempDir base;
  RunnerProbe before;
  std::vector<TicketId> submitted;
  {
    ServiceConfig config;
    config.base_dir = base.path();
    config.workers = 2;
    config.start_paused = true;  // nothing dispatches before the crash
    config.runner = synthetic_runner(before);
    BenchService service(std::move(config));
    for (int i = 0; i < 10; ++i) {
      CampaignRequest req;
      req.tenant = (i % 2 == 0) ? "even" : "odd";
      req.experiment = "exp" + std::to_string(i) + "/v";
      req.system = "cts1";
      submitted.push_back(service.submit(req));
    }
    service.crash_stop();
    EXPECT_FALSE(service.accepting());
    EXPECT_THROW(service.submit({"even", "exp/v", "cts1"}), ServiceBusy);
  }
  {
    std::lock_guard<std::mutex> lock(before.mu);
    EXPECT_TRUE(before.executions.empty());
  }

  RunnerProbe after;
  ServiceConfig config;
  config.base_dir = base.path();
  config.workers = 2;
  config.runner = synthetic_runner(after);
  BenchService revived(std::move(config));
  EXPECT_EQ(revived.stats().replayed, 10u);
  auto statuses = revived.wait_all();
  ASSERT_EQ(statuses.size(), 10u);
  std::set<TicketId> seen;
  for (const auto& st : statuses) {
    EXPECT_TRUE(st.replayed);
    EXPECT_EQ(st.state, TicketState::completed) << "ticket " << st.id;
    seen.insert(st.id);
  }
  EXPECT_EQ(seen, std::set<TicketId>(submitted.begin(), submitted.end()));
  std::lock_guard<std::mutex> lock(after.mu);
  EXPECT_EQ(after.executions.size(), 10u);
  for (const auto& [ticket, runs] : after.executions) {
    EXPECT_EQ(runs, 1) << "ticket " << ticket;
  }
}

// -------------------------------------------------- service: observability

TEST(ServiceObs, CountersAndSpans) {
  auto& collector = obs::TraceCollector::global();
  collector.reset();
  collector.set_enabled(true);
  {
    RunnerProbe probe;
    ServiceConfig config;
    config.workers = 2;
    config.runner = synthetic_runner(probe);
    BenchService service(std::move(config));
    for (int i = 0; i < 5; ++i) {
      CampaignRequest req;
      req.tenant = "obs";
      req.experiment = "exp/v";
      req.system = "cts1";
      service.submit(req);
    }
    service.drain();
  }
  auto trace = collector.snapshot();
  collector.set_enabled(false);
  collector.reset();

  EXPECT_EQ(trace.counters.at("serve.submitted"), 5);
  EXPECT_EQ(trace.counters.at("serve.dispatched"), 5);
  EXPECT_EQ(trace.counters.at("serve.completed"), 5);
  EXPECT_EQ(trace.counters.at("serve.tenant.obs.completed"), 5);
  EXPECT_GE(trace.counters.at("serve.drains"), 1);  // dtor drains again
  EXPECT_TRUE(trace.counters.count("serve.admission_wait_us"));
  EXPECT_EQ(trace.count_named("serve.submit"), 5u);
  EXPECT_EQ(trace.count_named("serve.dispatch"), 5u);
  EXPECT_TRUE(trace.gauges.count("serve.queue_depth"));
}
