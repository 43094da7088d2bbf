// Binary-cache unit tests: cold/warm hit-miss accounting, the transfer
// cost model, and thread-safety of the sharded mirror under concurrent
// push/fetch traffic (the paper's rolling cache is shared by every CI
// site at once).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/buildcache/binary_cache.hpp"
#include "src/concretizer/concretizer.hpp"
#include "src/obs/trace.hpp"
#include "src/pkg/repo.hpp"
#include "src/spec/spec.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"

namespace cz = benchpark::concretizer;
namespace pkg = benchpark::pkg;
using benchpark::buildcache::BinaryCache;
using benchpark::spec::Version;

namespace {

cz::Concretizer simple_concretizer() {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.set_default_target("broadwell");
  config.package("mpi").preferred_providers = {"mvapich2"};
  return cz::Concretizer(pkg::default_repo_stack(), config);
}

/// One root through the unified API, legacy semantics (fresh context,
/// serial, no memo cache).
benchpark::spec::Spec concretize1(const cz::Concretizer& c,
                                  const std::string& text) {
  cz::ConcretizeRequest request;
  request.roots = {benchpark::spec::Spec::parse(text)};
  request.unify = false;
  request.use_cache = false;
  request.threads = 1;
  return std::move(c.concretize_all(request).specs.front());
}

std::vector<benchpark::spec::Spec> distinct_concrete_specs() {
  auto concretizer = simple_concretizer();
  std::vector<benchpark::spec::Spec> specs;
  for (const char* name :
       {"zlib", "cmake", "gmake", "adiak", "caliper", "hypre", "openblas",
        "python"}) {
    specs.push_back(concretize1(concretizer, name));
  }
  return specs;
}

}  // namespace

TEST(BuildCache, ColdThenWarmAccounting) {
  BinaryCache cache;
  auto concretizer = simple_concretizer();
  auto spec = concretize1(concretizer, "zlib");

  EXPECT_FALSE(cache.fetch(spec).has_value());  // cold miss
  cache.push(spec, 1 << 20);
  auto entry = cache.fetch(spec);  // warm hit
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->size_bytes, 1u << 20);
  EXPECT_EQ(entry->dag_hash, spec.dag_hash());

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.pushes, 1u);
  EXPECT_EQ(stats.lookups(), 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(BuildCache, FetchCostModelIsLatencyPlusBandwidth) {
  BinaryCache cache(0.5, 2.0e6);
  EXPECT_DOUBLE_EQ(cache.fetch_cost_seconds(4'000'000), 0.5 + 2.0);
  EXPECT_DOUBLE_EQ(cache.fetch_cost_seconds(0), 0.5);

  BinaryCache defaults;
  EXPECT_LT(defaults.fetch_cost_seconds(1 << 20),
            defaults.fetch_cost_seconds(256u << 20));
}

TEST(BuildCache, PushOverwritesSameHash) {
  BinaryCache cache;
  auto concretizer = simple_concretizer();
  auto spec = concretize1(concretizer, "zlib");
  cache.push(spec, 100);
  cache.push(spec, 200);
  EXPECT_EQ(cache.size(), 1u);
  auto entry = cache.fetch(spec);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->size_bytes, 200u);
  EXPECT_EQ(cache.stats().pushes, 2u);
}

TEST(BuildCache, ConcurrentPushFetchStress) {
  const auto specs = distinct_concrete_specs();
  BinaryCache cache;
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;

  std::atomic<std::size_t> fetch_calls{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const auto& mine = specs[(t + round) % specs.size()];
        cache.push(mine, 1000u + static_cast<std::uint64_t>(round));
        const auto& theirs = specs[(t * 3 + round * 7) % specs.size()];
        (void)cache.fetch(theirs);
        fetch_calls.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(cache.size(), specs.size());
  for (const auto& spec : specs) EXPECT_TRUE(cache.contains(spec.dag_hash()));
  auto stats = cache.stats();
  EXPECT_EQ(stats.pushes, static_cast<std::size_t>(kThreads) * kRounds);
  EXPECT_EQ(stats.lookups(), fetch_calls.load());
}

TEST(BuildCache, ConcurrentWarmFetchesAllHit) {
  const auto specs = distinct_concrete_specs();
  BinaryCache cache;
  for (const auto& spec : specs) cache.push(spec, 1 << 20);

  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& spec : specs) {
          EXPECT_TRUE(cache.fetch(spec).has_value());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits,
            static_cast<std::size_t>(kThreads) * kRounds * specs.size());
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0);
}

TEST(BuildCache, TransientFetchFaultsAreRetriedInternally) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();

  auto concretizer = simple_concretizer();
  auto spec = concretize1(concretizer, "zlib");
  BinaryCache cache;
  cache.push(spec, 1 << 20);

  benchpark::support::FaultRule rule;
  rule.site = "buildcache.fetch";
  rule.nth = 1;  // first attempt of every fetch fails; retry recovers
  plan.add_rule(rule);

  auto entry = cache.fetch(spec);
  ASSERT_TRUE(entry.has_value());
  EXPECT_GT(entry->injected_latency_seconds, 0.0);  // re-request round trip
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);  // the retried request counts once
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.retries, 1u);
}

TEST(BuildCache, ExhaustedFetchRetriesThrowTransient) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();

  auto concretizer = simple_concretizer();
  auto spec = concretize1(concretizer, "zlib");
  BinaryCache cache;
  cache.push(spec, 1 << 20);

  benchpark::support::FaultRule rule;
  rule.site = "buildcache.fetch";
  rule.nth = 1;
  rule.count = 99;
  plan.add_rule(rule);

  EXPECT_THROW((void)cache.fetch(spec), benchpark::TransientError);
  // The failed request never reached the mirror: no hit, no miss.
  EXPECT_EQ(cache.stats().lookups(), 0u);
  EXPECT_EQ(cache.stats().retries,
            static_cast<std::size_t>(benchpark::support::kRetryAttempts - 1));
}

// ------------------------------------------------ rolling eviction

TEST(BuildCache, EvictsOldestWhenOverCapacity) {
  const auto specs = distinct_concrete_specs();
  BinaryCache cache;
  cache.set_capacity_bytes(3 << 20);  // room for three 1 MiB artifacts
  for (std::size_t i = 0; i < 5; ++i) {
    cache.push(specs[i], 1 << 20);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_LE(cache.total_bytes(), cache.capacity_bytes());
  // The two oldest pushes rolled off; the three newest remain.
  EXPECT_FALSE(cache.contains(specs[0].dag_hash()));
  EXPECT_FALSE(cache.contains(specs[1].dag_hash()));
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_TRUE(cache.contains(specs[i].dag_hash())) << specs[i].name();
  }
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(BuildCache, OverwriteRefreshesEvictionOrder) {
  const auto specs = distinct_concrete_specs();
  BinaryCache cache;
  cache.set_capacity_bytes(2 << 20);
  cache.push(specs[0], 1 << 20);
  cache.push(specs[1], 1 << 20);
  // Re-pushing the oldest makes it the newest; the next eviction takes
  // specs[1] instead.
  cache.push(specs[0], 1 << 20);
  cache.push(specs[2], 1 << 20);
  EXPECT_TRUE(cache.contains(specs[0].dag_hash()));
  EXPECT_FALSE(cache.contains(specs[1].dag_hash()));
  EXPECT_TRUE(cache.contains(specs[2].dag_hash()));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(BuildCache, ArtifactLargerThanCapacityIsEvictedImmediately) {
  auto concretizer = simple_concretizer();
  auto spec = concretize1(concretizer, "zlib");
  BinaryCache cache;
  cache.set_capacity_bytes(100);
  cache.push(spec, 1000);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.total_bytes(), 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.fetch(spec).has_value());
}

TEST(BuildCache, OverwriteAccountsByteDelta) {
  auto concretizer = simple_concretizer();
  auto spec = concretize1(concretizer, "zlib");
  BinaryCache cache;
  cache.push(spec, 500);
  EXPECT_EQ(cache.total_bytes(), 500u);
  cache.push(spec, 200);  // shrink
  EXPECT_EQ(cache.total_bytes(), 200u);
  cache.push(spec, 900);  // grow
  EXPECT_EQ(cache.total_bytes(), 900u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(BuildCache, ConcurrentPushesRespectCapacityInvariant) {
  const auto specs = distinct_concrete_specs();
  BinaryCache cache;
  const std::uint64_t capacity = 4 << 20;
  cache.set_capacity_bytes(capacity);
  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        cache.push(specs[(t + round) % specs.size()], 1 << 20);
        // No capacity assertion here: a concurrent observer may see the
        // cache transiently over capacity between a push's insert and
        // its eviction sweep; the bound holds at quiescence.
        (void)cache.fetch(specs[(t * 5 + round) % specs.size()]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.total_bytes(), capacity);
  EXPECT_LE(cache.size(), 4u);
  auto stats = cache.stats();
  EXPECT_EQ(stats.pushes, static_cast<std::size_t>(kThreads) * kRounds);
  // Byte ledger still consistent with the surviving entries.
  std::uint64_t resident = 0;
  for (const auto& spec : specs) {
    if (cache.contains(spec.dag_hash())) resident += 1 << 20;
  }
  EXPECT_EQ(cache.total_bytes(), resident);
}

// --------------------------------- stats exactness under fault plans

TEST(BuildCache, ConcurrentStatsExactUnderFaultPlan) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();
  benchpark::support::FaultRule rule;
  rule.site = "buildcache.fetch";
  rule.nth = 1;  // every fetch's first attempt fails, retry recovers
  rule.latency_seconds = 0.05;
  plan.add_rule(rule);

  const auto specs = distinct_concrete_specs();
  BinaryCache cache;
  for (const auto& spec : specs) cache.push(spec, 1 << 20);

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::atomic<std::size_t> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        auto entry = cache.fetch(specs[(t + round) % specs.size()]);
        ASSERT_TRUE(entry.has_value());
        EXPECT_GT(entry->injected_latency_seconds, 0.0);
        successes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto total = static_cast<std::size_t>(kThreads) * kRounds;
  EXPECT_EQ(successes.load(), total);
  auto stats = cache.stats();
  // Exactly one hit and one retry per successful fetch — no lost or
  // double-counted updates even with every request faulting once.
  EXPECT_EQ(stats.hits, total);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.retries, total);
}

TEST(BuildCache, FetchCostEdgeCases) {
  BinaryCache cache(0.25, 1.0e6);
  // Zero bytes costs exactly the round-trip latency.
  EXPECT_DOUBLE_EQ(cache.fetch_cost_seconds(0), 0.25);
  // Cost is monotone and linear in size.
  EXPECT_DOUBLE_EQ(cache.fetch_cost_seconds(2'000'000) -
                       cache.fetch_cost_seconds(1'000'000),
                   1.0);
  // A missing artifact still pays no transfer: the miss is latency-only
  // in the installer's model, and the entry is absent.
  auto concretizer = simple_concretizer();
  auto spec = concretize1(concretizer, "zlib");
  EXPECT_FALSE(cache.fetch(spec).has_value());
}

// ----------------------------------------- counters agree with spans

TEST(BuildCache, TraceCountersAndSpansAgreeWithStats) {
  auto& collector = benchpark::obs::TraceCollector::global();
  collector.reset();
  collector.set_enabled(true);

  const auto specs = distinct_concrete_specs();
  {
    BinaryCache cache;
    cache.set_capacity_bytes(2 << 20);
    for (std::size_t i = 0; i < 4; ++i) cache.push(specs[i], 1 << 20);
    (void)cache.fetch(specs[3]);  // hit
    (void)cache.fetch(specs[0]);  // miss (evicted)
    auto stats = cache.stats();

    auto trace = collector.snapshot();
    EXPECT_EQ(trace.counters.at("buildcache.pushes"),
              static_cast<long long>(stats.pushes));
    EXPECT_EQ(trace.counters.at("buildcache.hits"),
              static_cast<long long>(stats.hits));
    EXPECT_EQ(trace.counters.at("buildcache.misses"),
              static_cast<long long>(stats.misses));
    // One span per mirror operation, one instant per eviction.
    EXPECT_EQ(trace.count_named("push"), stats.pushes);
    EXPECT_EQ(trace.count_named("fetch"), stats.lookups());
    EXPECT_EQ(trace.count_named("evict"), stats.evictions);
    // Fetch spans carry the outcome annotation.
    std::size_t hit_spans = 0, miss_spans = 0;
    for (const auto* span : trace.named("fetch")) {
      const auto* outcome = span->arg("outcome");
      ASSERT_NE(outcome, nullptr);
      hit_spans += *outcome == "hit";
      miss_spans += *outcome == "miss";
    }
    EXPECT_EQ(hit_spans, stats.hits);
    EXPECT_EQ(miss_spans, stats.misses);
  }

  collector.set_enabled(false);
  collector.reset();
}
