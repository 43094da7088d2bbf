#include "src/support/fault.hpp"

#include <cstdio>
#include <cstdlib>

#include "src/support/error.hpp"
#include "src/support/hash.hpp"
#include "src/support/rng.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::support {

std::string_view fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::none: return "none";
    case FaultKind::transient: return "transient";
    case FaultKind::permanent: return "permanent";
  }
  return "?";
}

namespace {

/// SplitMix64 finalizer: decorrelates the xor-combined decision inputs.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultPlan::FaultPlan(const FaultPlan& other) { *this = other; }

FaultPlan& FaultPlan::operator=(const FaultPlan& other) {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    rules_ = other.rules_;
    seed_ = other.seed_;
    counters_ = other.counters_;
    armed_.store(!rules_.empty(), std::memory_order_relaxed);
  }
  return *this;
}

FaultPlan& FaultPlan::global() {
  static FaultPlan* plan = [] {
    auto* p = new FaultPlan();
    if (const char* env = std::getenv("BENCHPARK_FAULT_PLAN")) {
      *p = FaultPlan::parse(env);
    }
    return p;
  }();
  return *plan;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  for (const auto& raw_clause : split(std::string(spec), ';')) {
    auto clause = trim(raw_clause);
    if (clause.empty()) continue;
    if (starts_with(clause, "seed=")) {
      try {
        plan.set_seed(static_cast<std::uint64_t>(
            parse_int(clause.substr(5))));
      } catch (const Error&) {
        throw Error("fault plan: bad seed in '" + clause + "'");
      }
      continue;
    }
    auto colon = clause.find(':');
    if (colon == std::string::npos || colon == 0) {
      throw Error("fault plan: clause '" + clause +
                  "' is not 'seed=N' or '<site>:<params>'");
    }
    FaultRule rule;
    rule.site = trim(clause.substr(0, colon));
    bool kind_given = false;
    for (const auto& raw_param : split(clause.substr(colon + 1), ',')) {
      auto param = trim(raw_param);
      if (param.empty()) continue;
      auto [name, value] = split_first(param, '=');
      try {
        if (name == "nth") {
          rule.nth = static_cast<std::uint64_t>(parse_int(value));
          if (rule.nth == 0) throw Error("nth is 1-based");
        } else if (name == "count") {
          rule.count = static_cast<std::uint64_t>(parse_int(value));
          if (rule.count == 0) throw Error("count must be >= 1");
        } else if (name == "p") {
          rule.probability = parse_double(value);
          if (rule.probability < 0.0 || rule.probability > 1.0) {
            throw Error("p must be in [0, 1]");
          }
        } else if (name == "key") {
          rule.key = value;
        } else if (name == "latency") {
          rule.latency_seconds = parse_double(value);
          if (rule.latency_seconds < 0.0) {
            throw Error("latency must be >= 0");
          }
        } else if (name == "kind") {
          kind_given = true;
          if (value == "transient") rule.kind = FaultKind::transient;
          else if (value == "permanent") rule.kind = FaultKind::permanent;
          else if (value == "none") rule.kind = FaultKind::none;
          else throw Error("unknown kind '" + value + "'");
        } else {
          throw Error("unknown parameter '" + std::string(name) + "'");
        }
      } catch (const Error& e) {
        throw Error("fault plan: bad parameter '" + param + "' for site '" +
                    rule.site + "': " + e.what());
      }
    }
    // A clause with only latency is a pure delay; anything else defaults
    // to a transient failure.
    if (!kind_given && rule.latency_seconds > 0.0 && rule.nth == 0 &&
        rule.probability == 0.0) {
      rule.kind = FaultKind::none;
    }
    if (rule.kind == FaultKind::none && rule.latency_seconds == 0.0) {
      throw Error("fault plan: clause for site '" + rule.site +
                  "' has no effect (kind=none and no latency)");
    }
    plan.add_rule(std::move(rule));
  }
  return plan;
}

void FaultPlan::add_rule(FaultRule rule) {
  if (rule.site.empty()) throw Error("fault rule needs a site name");
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(std::move(rule));
  armed_.store(true, std::memory_order_relaxed);
}

void FaultPlan::set_seed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
}

std::uint64_t FaultPlan::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

void FaultPlan::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  counters_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

bool FaultPlan::empty() const {
  return !armed_.load(std::memory_order_relaxed);
}

std::string FaultPlan::fingerprint(
    const std::vector<std::string>& site_prefixes) const {
  if (empty()) return "";
  std::lock_guard<std::mutex> lock(mu_);
  if (rules_.empty()) return "";
  auto selected = [&](const FaultRule& r) {
    if (site_prefixes.empty()) return true;
    for (const auto& prefix : site_prefixes) {
      if (r.site.compare(0, prefix.size(), prefix) == 0) return true;
    }
    return false;
  };
  bool any = false;
  for (const auto& r : rules_) any = any || selected(r);
  if (!any) return "";
  Hasher h;
  h.update("fault-plan-v1");
  h.update(seed_);
  for (const auto& r : rules_) {
    if (!selected(r)) continue;
    h.update(r.site);
    h.update(r.key);
    h.update(r.nth);
    h.update(r.count);
    // Worst case: two 24-byte "%.17g" doubles ("-1.2345678901234567e-308"),
    // the '/', and the NUL. Truncating would make plans that differ only
    // in late digits share a fingerprint, and so an exp-v2 store key.
    char buf[2 * 24 + 2];
    std::snprintf(buf, sizeof(buf), "%.17g/%.17g", r.probability,
                  r.latency_seconds);
    h.update(buf);
    h.update(fault_kind_name(r.kind));
  }
  return h.base32();
}

double FaultPlan::on_hit(std::string_view site, std::string_view key,
                         std::uint64_t attempt) {
  if (!armed_.load(std::memory_order_relaxed)) return 0.0;

  double latency = 0.0;
  FaultKind failure = FaultKind::none;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(site);
    if (it == counters_.end()) {
      it = counters_.emplace(std::string(site), FaultSiteCounters{}).first;
    }
    FaultSiteCounters& c = it->second;
    ++c.hits;
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      const FaultRule& rule = rules_[r];
      if (rule.site != site) continue;
      if (!rule.key.empty() && rule.key != key) continue;
      bool triggered;
      if (rule.nth > 0) {
        triggered = attempt >= rule.nth && attempt < rule.nth + rule.count;
      } else if (rule.probability > 0.0) {
        // Pure function of (seed, site, key, attempt, rule): the schedule
        // is identical run-to-run no matter how threads interleave.
        std::uint64_t h = mix(seed_ ^ mix(fnv1a(site)) ^
                              mix(fnv1a(key) + 0x51ed270b0f0dULL) ^
                              mix(attempt * 0x2545f4914f6cdd1dULL + r));
        triggered = Rng(h).next_double() < rule.probability;
      } else {
        triggered = true;
      }
      if (!triggered) continue;
      latency += rule.latency_seconds;
      c.latency_seconds += rule.latency_seconds;
      if (rule.kind != FaultKind::none && failure == FaultKind::none) {
        failure = rule.kind;
        ++c.failures;
      }
      if (failure == FaultKind::permanent) break;
    }
  }
  if (failure != FaultKind::none) {
    std::string what = "injected " + std::string(fault_kind_name(failure)) +
                       " fault at '" + std::string(site) + "'";
    if (!key.empty()) what += " (key '" + std::string(key) + "')";
    what += ", attempt " + std::to_string(attempt);
    if (failure == FaultKind::permanent) throw PermanentError(what);
    throw TransientError(what);
  }
  return latency;
}

FaultSiteCounters FaultPlan::counters(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(site);
  return it == counters_.end() ? FaultSiteCounters{} : it->second;
}

std::uint64_t FaultPlan::total_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [site, c] : counters_) total += c.hits;
  return total;
}

std::uint64_t FaultPlan::total_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [site, c] : counters_) total += c.failures;
  return total;
}

double fault_hit(std::string_view site, std::string_view key,
                 std::uint64_t attempt) {
  return FaultPlan::global().on_hit(site, key, attempt);
}

}  // namespace benchpark::support
