// The rolling binary cache (Spack component 5; Sections 3.1 and 7.2):
// "the Spack build pipeline and rolling binary cache makes packages
// available to all Spack users ... focusing the time to build
// applications on only the dependencies with special requirements."
//
// A thread-safe, hash-addressed build mirror: an instantiation of
// support::SnapshotCache keyed by the concrete spec's DAG hash and
// weighted by artifact size, so the capacity is in bytes and the oldest
// push rolls off first. What is the binary cache's own: the
// fault-retrying fetch with its `retries` counter, the spec-level push,
// and the transfer-cost model (mirror round-trip plus size over sustained
// bandwidth). Fetch latency is modeled — the decision logic (what is
// mirrored, what is rebuilt) is fully real.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/spec/spec.hpp"
#include "src/support/snapshot_cache.hpp"

namespace benchpark::buildcache {

/// One mirrored build artifact, addressed by the spec's DAG hash.
struct CacheEntry {
  std::string dag_hash;
  std::string short_spec;  // human-readable "name@version" for logs
  std::uint64_t size_bytes = 0;
  /// Push order (process-wide, 1-based), kept by the cache. The rolling
  /// cache evicts the oldest sequence first; an overwrite refreshes it.
  std::uint64_t sequence = 0;
  /// Modeled extra seconds this fetch paid to injected faults (failed
  /// attempts re-request the mirror; latency rules add delay). Set on the
  /// copy fetch() returns, never stored.
  double injected_latency_seconds = 0.0;
};

/// The binary cache's counters as persisted ("binary.stats"): the
/// generic ones, with inserts named `pushes`, plus fetch retries.
/// Torn-read-free like support::SnapshotCacheStats.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t pushes = 0;
  /// Transient fetch attempts that were retried internally.
  std::size_t retries = 0;
  /// Artifacts dropped to stay under the configured capacity.
  std::size_t evictions = 0;

  [[nodiscard]] std::size_t lookups() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups());
  }
};

/// Weigher: an artifact weighs its size in bytes.
struct ArtifactBytes {
  std::uint64_t operator()(const CacheEntry& e) const { return e.size_bytes; }
};

class BinaryCache : private support::SnapshotCache<CacheEntry, ArtifactBytes> {
public:
  /// Default transfer model: 20 ms mirror round-trip latency plus 1 GB/s
  /// sustained download bandwidth.
  BinaryCache() : BinaryCache(0.02, 1.0e9) {}
  BinaryCache(double base_latency_seconds, double bytes_per_second);

  /// Lookup by DAG hash that does not touch the hit/miss counters.
  using SnapshotCache::contains;
  /// Number of distinct mirrored artifacts.
  using SnapshotCache::size;

  /// Mirror lookup; counts a hit or a miss. The request passes through
  /// the "buildcache.fetch" fault site: transient faults are retried
  /// through support::retry_transient (each retry paying another
  /// modeled round-trip, accumulated into the returned entry's
  /// injected_latency_seconds); exhausted transients rethrow
  /// TransientError and permanent faults rethrow PermanentError — the
  /// installer falls back to a source build in both cases.
  [[nodiscard]] std::optional<CacheEntry> fetch(const spec::Spec& concrete);

  /// Publish a built artifact (every successful source build feeds the
  /// mirror — the paper's rolling cache). Overwrites any entry with the
  /// same DAG hash.
  void push(const spec::Spec& concrete, std::uint64_t size_bytes);

  /// Rolling-cache capacity in bytes; 0 (the default) is unbounded.
  void set_capacity_bytes(std::uint64_t bytes) { set_capacity(bytes); }
  [[nodiscard]] std::uint64_t capacity_bytes() const { return capacity(); }
  /// Bytes currently mirrored.
  [[nodiscard]] std::uint64_t total_bytes() const { return weight(); }

  [[nodiscard]] CacheStats stats() const;

  /// Every mirrored entry, oldest push first.
  [[nodiscard]] std::vector<CacheEntry> export_entries() const;
  /// Warm start from a persisted snapshot (SnapshotCache::restore).
  void restore(const std::vector<CacheEntry>& entries,
               const CacheStats& stats);

  /// Modeled seconds to download size_bytes from the mirror.
  [[nodiscard]] double fetch_cost_seconds(std::uint64_t size_bytes) const;

private:
  double base_latency_seconds_;
  double bytes_per_second_;
  std::atomic<std::size_t> retries_{0};
};

}  // namespace benchpark::buildcache
