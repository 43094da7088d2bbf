#include "src/buildcache/binary_cache.hpp"

#include <algorithm>

#include "src/obs/trace.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"

namespace benchpark::buildcache {

BinaryCache::BinaryCache(double base_latency_seconds, double bytes_per_second)
    : SnapshotCache("buildcache", "pushes"),
      base_latency_seconds_(base_latency_seconds),
      bytes_per_second_(bytes_per_second) {}

std::optional<CacheEntry> BinaryCache::fetch(const spec::Spec& concrete) {
  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan span(collector, "fetch", "buildcache");
  auto hash = concrete.dag_hash();
  if (span.active()) span.annotate("hash", hash);
  // Fault gate before the counters: retried-then-resolved requests count
  // exactly one hit or miss, so cache statistics stay comparable whether
  // or not a chaos plan is active.
  double injected = 0.0;
  const int max_attempts = 1 + std::max(0, fetch_retries_);
  for (int attempt = 1;; ++attempt) {
    try {
      injected += support::fault_hit("buildcache.fetch", hash,
                                     static_cast<std::uint64_t>(attempt));
      break;
    } catch (const TransientError&) {
      if (attempt >= max_attempts) {
        span.annotate("outcome", "transient-exhausted");
        throw;
      }
      retries_.fetch_add(1, std::memory_order_release);
      collector.counter_add("buildcache.retries");
      injected += base_latency_seconds_;  // re-request round trip
    }
  }
  auto entry = lookup(hash);
  span.annotate("outcome", entry ? "hit" : "miss");
  if (entry) entry->injected_latency_seconds = injected;
  return entry;
}

void BinaryCache::push(const spec::Spec& concrete, std::uint64_t size_bytes) {
  obs::ScopedSpan span(obs::TraceCollector::global(), "push", "buildcache");
  auto hash = concrete.dag_hash();
  if (span.active()) {
    span.annotate("hash", hash);
    span.annotate("bytes", std::to_string(size_bytes));
  }
  support::fault_hit("buildcache.push", hash);
  insert(hash, CacheEntry{hash, concrete.short_str(), size_bytes});
}

CacheStats BinaryCache::stats() const {
  // Retries first: they are caused by fetches the later reads include.
  CacheStats out;
  out.retries = retries_.load(std::memory_order_acquire);
  const auto generic = SnapshotCache::stats();
  out.hits = generic.hits;
  out.misses = generic.misses;
  out.pushes = generic.inserts;
  out.evictions = generic.evictions;
  return out;
}

std::vector<CacheEntry> BinaryCache::export_entries() const {
  std::vector<CacheEntry> out;
  for (auto& e : SnapshotCache::export_entries()) {
    out.push_back(std::move(e.value));
  }
  return out;
}

void BinaryCache::restore(const std::vector<CacheEntry>& entries,
                          const CacheStats& stats) {
  std::vector<Entry> generic;
  generic.reserve(entries.size());
  for (const auto& e : entries) {
    generic.push_back({e.dag_hash, e, e.sequence});
    generic.back().value.injected_latency_seconds = 0.0;  // never stored
  }
  SnapshotCache::restore(std::move(generic),
                         {stats.hits, stats.misses, stats.pushes,
                          stats.evictions, 0});
  support::raise_to(retries_, stats.retries);  // read first, raised last
}

double BinaryCache::fetch_cost_seconds(std::uint64_t size_bytes) const {
  return base_latency_seconds_ +
         static_cast<double>(size_bytes) / bytes_per_second_;
}

}  // namespace benchpark::buildcache
