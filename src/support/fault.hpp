// Seeded, deterministic fault injection.
//
// Trustworthy continuous benchmarking across federated HPC sites must
// treat partial failure as the common case: mirrors blip, build steps
// flake, jobs get preempted. This module lets tests and chaos runs
// *program* those failures so every retry path in the codebase can be
// exercised reproducibly. Hot paths declare named fault sites (the 13 of
// DESIGN.md §8, e.g. "buildcache.fetch", "install.build_step", "ci.job",
// "experiment.exec", "serve.dispatch", "store.flush") and report each
// attempt to the process-wide FaultPlan; the plan decides — purely as a
// function of (seed, site, key, attempt) — whether that attempt fails,
// and with what severity. Sites that retry all go through
// retry_transient(): one budget, one backoff, one retried error type.
//
// Keying decisions on the operation's stable key (a DAG hash, a job name)
// and its attempt number, rather than on a global hit counter, is what
// makes the failure schedule independent of thread interleaving: two runs
// with the same seed produce byte-identical install reports even when the
// wavefront engine schedules packages in a different order.
//
// Plans are programmable from code (tests) or from the
// BENCHPARK_FAULT_PLAN environment variable (chaos CI):
//
//   BENCHPARK_FAULT_PLAN="seed=42;buildcache.fetch:nth=1;install.build_step:p=0.2"
//
// Grammar: ';'-separated clauses. "seed=N" sets the plan seed; every
// other clause is "<site>:<param>=<value>,..." with parameters
//   nth=N       fail attempts N .. N+count-1 of every matching operation
//   count=M     width of the nth window (default 1)
//   p=X         fail each attempt independently with probability X
//   key=K       only match operations with this exact key
//   latency=S   inject S modeled seconds instead of (or alongside) failing
//   kind=transient|permanent|none   severity (default: transient, or
//               none when only latency is given)
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/error.hpp"

namespace benchpark::support {

/// Severity of an injected fault. `none` means the rule only injects
/// latency; `transient` throws TransientError (retry loops recover);
/// `permanent` throws PermanentError (retry loops give up immediately).
enum class FaultKind { none, transient, permanent };

[[nodiscard]] std::string_view fault_kind_name(FaultKind k);

/// One programmed fault. Trigger precedence: an attempt window (nth > 0)
/// if set, else a per-attempt probability (p > 0), else every hit.
struct FaultRule {
  std::string site;            // exact fault-site name
  std::string key;             // exact operation key; empty matches any
  std::uint64_t nth = 0;       // 1-based first failing attempt; 0 = off
  std::uint64_t count = 1;     // how many consecutive attempts fail
  double probability = 0.0;    // per-attempt failure probability
  double latency_seconds = 0.0;
  FaultKind kind = FaultKind::transient;
};

/// Per-site observability counters; snapshot via FaultPlan::counters().
struct FaultSiteCounters {
  std::uint64_t hits = 0;       // attempts reported at the site
  std::uint64_t failures = 0;   // attempts the plan failed
  double latency_seconds = 0.0; // total injected latency
};

/// A programmable schedule of failures. The process-wide instance
/// (global()) is what production fault sites consult; tests may also
/// build standalone plans.
class FaultPlan {
public:
  FaultPlan() = default;

  // Copying clones the programmed rules and seed but gives the copy its
  // own counters and lock (used by ScopedFaultPlan to save/restore).
  FaultPlan(const FaultPlan& other);
  FaultPlan& operator=(const FaultPlan& other);

  /// The shared plan every built-in fault site consults. On first use it
  /// is loaded from BENCHPARK_FAULT_PLAN when that is set (malformed
  /// specs throw loudly rather than silently running fault-free).
  static FaultPlan& global();

  /// Parse the BENCHPARK_FAULT_PLAN grammar. Throws Error on bad specs.
  static FaultPlan parse(std::string_view spec);

  void add_rule(FaultRule rule);
  void set_seed(std::uint64_t seed);
  [[nodiscard]] std::uint64_t seed() const;
  /// Drop all rules and counters (the plan becomes a no-op).
  void clear();
  /// True when no rules are programmed; on_hit is then a single relaxed
  /// atomic load.
  [[nodiscard]] bool empty() const;
  /// Stable content hash of (seed, rules); "" for an empty plan. The
  /// experiment store key folds this in so results produced under a
  /// fault plan are never conflated with clean runs (an injected latency
  /// changes the outcome, so it must change the content address too).
  /// When `site_prefixes` is non-empty only rules whose site starts with
  /// one of the prefixes are hashed ("" again if none match): the store
  /// key uses {"experiment.", "runtime."} so a plan that only perturbs,
  /// say, service dispatch or cache fetches does not retire every
  /// experiment's content address.
  [[nodiscard]] std::string fingerprint(
      const std::vector<std::string>& site_prefixes = {}) const;

  /// Report attempt `attempt` (1-based) of the operation identified by
  /// `key` at fault site `site`. Returns the injected latency in modeled
  /// seconds (usually 0); throws TransientError or PermanentError when
  /// the plan fails this attempt. Thread-safe; the decision depends only
  /// on (seed, site, key, attempt), never on call order.
  double on_hit(std::string_view site, std::string_view key = {},
                std::uint64_t attempt = 1);

  [[nodiscard]] FaultSiteCounters counters(std::string_view site) const;
  [[nodiscard]] std::uint64_t total_hits() const;
  [[nodiscard]] std::uint64_t total_failures() const;

private:
  mutable std::mutex mu_;
  std::vector<FaultRule> rules_;
  std::uint64_t seed_ = 0;
  std::map<std::string, FaultSiteCounters, std::less<>> counters_;
  std::atomic<bool> armed_{false};  // fast path: any rules programmed?
};

/// Convenience: FaultPlan::global().on_hit(...). This is what production
/// fault sites call.
double fault_hit(std::string_view site, std::string_view key = {},
                 std::uint64_t attempt = 1);

/// Attempts every retrying fault site gets: the first try plus two
/// retries.
inline constexpr int kRetryAttempts = 3;

/// Modeled wait before retry `attempt` (1-based) of the operation `key`:
/// 0.25 s * 2^(attempt-1), plus up to 25% jitter drawn from
/// Rng(0xb5eed ^ fnv1a(key) ^ 0x9e3779b97f4a7c15 * attempt). A pure
/// function of (key, attempt), so serial and parallel runs report the
/// same waits byte for byte.
[[nodiscard]] double retry_backoff_seconds(std::string_view key,
                                           int attempt);

/// The retry gate. Runs body(attempt) for attempt = 1, 2, ... and returns
/// its result. A TransientError is retried — on_retry(attempt, error)
/// runs after each failed attempt that gets another — until
/// kRetryAttempts attempts have failed; the last one is rethrown. Any
/// other exception (PermanentError included) passes straight through.
template <class Body, class OnRetry>
auto retry_transient(Body&& body, OnRetry&& on_retry) {
  for (int attempt = 1;; ++attempt) {
    try {
      return body(attempt);
    } catch (const TransientError& e) {
      if (attempt >= kRetryAttempts) throw;
      on_retry(attempt, e);
    }
  }
}

/// RAII save/restore of the global plan for tests: snapshot on
/// construction, restore on destruction, so a test can clear() and
/// program its own schedule without leaking it into later tests (or
/// clobbering a chaos plan installed via BENCHPARK_FAULT_PLAN).
class ScopedFaultPlan {
public:
  ScopedFaultPlan() : saved_(FaultPlan::global()) {}
  ~ScopedFaultPlan() { FaultPlan::global() = saved_; }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

private:
  FaultPlan saved_;
};

}  // namespace benchpark::support
