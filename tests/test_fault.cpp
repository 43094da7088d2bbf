// Fault-injection unit tests: plan grammar, nth/count windows, seeded
// probability determinism, severity kinds, latency rules, per-site
// counters, the global-plan programmability that chaos CI relies on, and
// the retry gate every retrying fault site goes through.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/support/error.hpp"
#include "src/support/fault.hpp"

using benchpark::Error;
using benchpark::PermanentError;
using benchpark::TransientError;
using benchpark::support::FaultKind;
using benchpark::support::FaultPlan;
using benchpark::support::FaultRule;
using benchpark::support::ScopedFaultPlan;
using benchpark::support::fault_hit;
using benchpark::support::kRetryAttempts;
using benchpark::support::retry_backoff_seconds;
using benchpark::support::retry_transient;

TEST(FaultPlan, EmptyPlanIsFreeAndNeverFires) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.on_hit("buildcache.fetch", "abc", 1), 0.0);
  EXPECT_EQ(plan.total_hits(), 0u);  // unarmed plans do not even count
}

TEST(FaultPlan, ParsesSeedAndClauses) {
  auto plan = FaultPlan::parse(
      "seed=42; buildcache.fetch:nth=1 ; install.build_step:p=0.5,key=abc;"
      "ci.mirror:latency=1.5");
  EXPECT_EQ(plan.seed(), 42u);
  EXPECT_FALSE(plan.empty());
  // nth=1 → first attempt fails, second succeeds.
  EXPECT_THROW(plan.on_hit("buildcache.fetch", "h", 1), TransientError);
  EXPECT_DOUBLE_EQ(plan.on_hit("buildcache.fetch", "h", 2), 0.0);
  // Latency-only clause delays without failing.
  EXPECT_DOUBLE_EQ(plan.on_hit("ci.mirror", "repo#1", 1), 1.5);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("seed=banana"), Error);
  EXPECT_THROW(FaultPlan::parse("noparams"), Error);
  EXPECT_THROW(FaultPlan::parse("site:nth=0"), Error);
  EXPECT_THROW(FaultPlan::parse("site:p=1.5"), Error);
  EXPECT_THROW(FaultPlan::parse("site:latency=-1"), Error);
  EXPECT_THROW(FaultPlan::parse("site:kind=sideways"), Error);
  EXPECT_THROW(FaultPlan::parse("site:bogus=1"), Error);
  // kind=none with no latency has no effect — reject rather than ignore.
  EXPECT_THROW(FaultPlan::parse("site:kind=none"), Error);
}

TEST(FaultPlan, NthWindowFailsExactlyCountAttempts) {
  auto plan = FaultPlan::parse("install.build_step:nth=2,count=2");
  EXPECT_DOUBLE_EQ(plan.on_hit("install.build_step", "h", 1), 0.0);
  EXPECT_THROW(plan.on_hit("install.build_step", "h", 2), TransientError);
  EXPECT_THROW(plan.on_hit("install.build_step", "h", 3), TransientError);
  EXPECT_DOUBLE_EQ(plan.on_hit("install.build_step", "h", 4), 0.0);
  // The window applies per operation, not globally: a different key sees
  // the same schedule.
  EXPECT_DOUBLE_EQ(plan.on_hit("install.build_step", "other", 1), 0.0);
  EXPECT_THROW(plan.on_hit("install.build_step", "other", 2), TransientError);
}

TEST(FaultPlan, KeyedRuleOnlyMatchesItsOperation) {
  auto plan = FaultPlan::parse("sched.job:nth=1,key=amg-run");
  EXPECT_THROW(plan.on_hit("sched.job", "amg-run", 1), TransientError);
  EXPECT_DOUBLE_EQ(plan.on_hit("sched.job", "saxpy-run", 1), 0.0);
  EXPECT_DOUBLE_EQ(plan.on_hit("other.site", "amg-run", 1), 0.0);
}

TEST(FaultPlan, PermanentKindThrowsPermanentError) {
  auto plan = FaultPlan::parse("install.build_step:nth=1,kind=permanent");
  EXPECT_THROW(plan.on_hit("install.build_step", "h", 1), PermanentError);
}

TEST(FaultPlan, ProbabilityScheduleIsAPureFunctionOfSeedAndInputs) {
  auto decide = [](std::uint64_t seed, std::string_view key,
                   std::uint64_t attempt) {
    FaultPlan plan;
    plan.set_seed(seed);
    FaultRule rule;
    rule.site = "buildcache.fetch";
    rule.probability = 0.5;
    plan.add_rule(rule);
    try {
      plan.on_hit("buildcache.fetch", key, attempt);
      return false;
    } catch (const TransientError&) {
      return true;
    }
  };

  // Same (seed, key, attempt) → same decision, independent of call order
  // or plan instance.
  std::vector<bool> first, second;
  for (std::uint64_t a = 1; a <= 32; ++a) first.push_back(decide(7, "h1", a));
  for (std::uint64_t a = 32; a >= 1; --a) {
    second.insert(second.begin(), decide(7, "h1", a));
  }
  EXPECT_EQ(first, second);

  // At p=0.5 over 32 attempts both outcomes must occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);

  // A different seed produces a different schedule somewhere.
  std::vector<bool> other_seed;
  for (std::uint64_t a = 1; a <= 32; ++a) {
    other_seed.push_back(decide(8, "h1", a));
  }
  EXPECT_NE(first, other_seed);
}

TEST(FaultPlan, CountersTrackHitsFailuresAndLatency) {
  auto plan = FaultPlan::parse("ci.job:nth=1,latency=0.5");
  EXPECT_THROW(plan.on_hit("ci.job", "build", 1), TransientError);
  EXPECT_DOUBLE_EQ(plan.on_hit("ci.job", "build", 2), 0.0);
  auto c = plan.counters("ci.job");
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.failures, 1u);
  EXPECT_DOUBLE_EQ(c.latency_seconds, 0.5);
  EXPECT_EQ(plan.total_hits(), 2u);
  EXPECT_EQ(plan.total_failures(), 1u);
  plan.clear();
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.total_hits(), 0u);
}

TEST(FaultPlan, GlobalPlanIsProgrammableAndScopedRestoreWorks) {
  {
    ScopedFaultPlan scope;
    FaultPlan::global().clear();
    FaultPlan::global() = FaultPlan::parse("runtime.exec:nth=1,key=saxpy");
    EXPECT_THROW(fault_hit("runtime.exec", "saxpy", 1), TransientError);
    EXPECT_DOUBLE_EQ(fault_hit("runtime.exec", "stream", 1), 0.0);
  }
  // Whatever the ambient plan is (usually empty; a chaos plan under
  // BENCHPARK_FAULT_PLAN), the scoped rule must be gone.
  {
    ScopedFaultPlan scope;
    FaultPlan::global().clear();
    EXPECT_DOUBLE_EQ(fault_hit("runtime.exec", "saxpy", 1), 0.0);
  }
}

// ------------------------------------------------------------ retry gate

TEST(RetryGate, FirstAttemptSuccessPassesResultThrough) {
  int calls = 0;
  int retries = 0;
  auto result = retry_transient(
      [&](int attempt) {
        ++calls;
        return std::string("attempt ") + std::to_string(attempt);
      },
      [&](int, const TransientError&) { ++retries; });
  EXPECT_EQ(result, "attempt 1");
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0);
}

TEST(RetryGate, TransientFailuresAreRetriedUntilSuccess) {
  std::vector<int> attempts;
  std::vector<std::string> retried;
  int result = retry_transient(
      [&](int attempt) {
        attempts.push_back(attempt);
        if (attempt < kRetryAttempts) {
          throw TransientError("flake " + std::to_string(attempt));
        }
        return attempt * 10;
      },
      [&](int attempt, const TransientError& e) {
        retried.push_back(std::to_string(attempt) + ":" + e.what());
      });
  EXPECT_EQ(result, kRetryAttempts * 10);
  EXPECT_EQ(attempts, (std::vector<int>{1, 2, 3}));
  // on_retry runs after every failed attempt that gets another one.
  EXPECT_EQ(retried, (std::vector<std::string>{"1:flake 1", "2:flake 2"}));
}

TEST(RetryGate, LastTransientIsRethrownAfterTheBudget) {
  int calls = 0;
  int retries = 0;
  try {
    retry_transient(
        [&](int attempt) {
          ++calls;
          throw TransientError("flake " + std::to_string(attempt));
        },
        [&](int, const TransientError&) { ++retries; });
    FAIL() << "the exhausted gate must rethrow";
  } catch (const TransientError& e) {
    EXPECT_EQ(std::string(e.what()), "flake 3");
  }
  EXPECT_EQ(calls, kRetryAttempts);
  EXPECT_EQ(retries, kRetryAttempts - 1);
}

TEST(RetryGate, PermanentAndOtherErrorsAreNeverRetried) {
  int calls = 0;
  int retries = 0;
  auto body = [&](int) {
    ++calls;
    throw PermanentError("dead");
  };
  auto on_retry = [&](int, const TransientError&) { ++retries; };
  EXPECT_THROW(retry_transient(body, on_retry), PermanentError);
  EXPECT_EQ(calls, 1);

  EXPECT_THROW(retry_transient(
                   [&](int) {
                     ++calls;
                     throw Error("not transient");
                   },
                   on_retry),
               Error);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(retries, 0);
}

TEST(RetryGate, BackoffIsPinnedAndGrowsExponentially) {
  // attempt k waits 0.25 * 2^(k-1) plus up to 25% jitter.
  for (int attempt = 1; attempt <= kRetryAttempts; ++attempt) {
    const double base = 0.25 * static_cast<double>(1 << (attempt - 1));
    const double wait = retry_backoff_seconds("pkg", attempt);
    EXPECT_GE(wait, base);
    EXPECT_LT(wait, 1.25 * base);
    EXPECT_DOUBLE_EQ(retry_backoff_seconds("pkg", attempt), wait);
  }
  EXPECT_DOUBLE_EQ(retry_backoff_seconds("exp-a", 1), 0.29949456889396459);
  EXPECT_DOUBLE_EQ(retry_backoff_seconds("exp-b", 1), 0.28591058601923391);
}
