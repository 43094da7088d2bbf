// The one sharded memo table behind every process-wide cache: the
// rolling binary cache (buildcache::BinaryCache), concretization reuse
// (concretizer::ConcretizationCache) and compiled Ramble templates
// (ramble::TemplateCache) are instantiations that add only their own
// miss handling on top.
//
// Entries live in 16 shards, each an immutable map published through a
// SnapshotPtr (support/snapshot.hpp): the hit path is one hazard-pinned
// snapshot load and a heterogeneous find, with no lock. Writers copy the
// shard map under the shard mutex, mutate the copy and publish it.
//
// Every insert takes a process-wide sequence number. With a capacity
// set, entries are dropped oldest-sequence-first until the total weight
// (Weigher: 1 per entry by default, bytes for the binary cache) fits; an
// overwrite refreshes the sequence, and an entry heavier than the whole
// capacity goes right after its own insert.
//
// get_or_insert() makes misses single-flight: the first thread to miss a
// key runs `make` outside every lock; concurrent missers of that key wait
// for it and count as hits. If `make` throws, nothing is published and a
// waiter retries as the new leader. `make` must not wait on pool work, or
// a pool worker blocked as a waiter could starve it.
//
// Counters are atomics mirrored into the trace collector under the
// cache's obs prefix ("<prefix>.hits", ...). stats() snapshots are
// torn-read-free: effects are read before causes, so evictions and
// invalidations never exceed inserts within one snapshot. export_entries()
// and restore() carry entries, sequences and counters through the
// persistent store; restore() raises each counter to the larger of the
// live and persisted values, so counters never run backwards.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/support/snapshot.hpp"

namespace benchpark::support {

/// Key hash of every SnapshotCache. Keys up to 128 bytes (DAG hashes,
/// concretizer keys, most templates) hash in full; longer ones hash a
/// bounded sample (head + tail + length) so lookup cost doesn't scale with
/// script-sized templates. Generated scripts share long prefixes, so the
/// tail carries the distinguishing bytes; the map's full key equality
/// still guards correctness.
struct SampledStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    constexpr std::size_t kSample = 64;
    std::hash<std::string_view> h;
    if (s.size() <= 2 * kSample) return h(s);
    std::size_t head = h(s.substr(0, kSample));
    std::size_t tail = h(s.substr(s.size() - kSample));
    return head ^ (tail + 0x9e3779b97f4a7c15ULL + (head << 6)) ^ s.size();
  }
};

/// Atomically raise `counter` to at least `value` (release on success):
/// a warm start merges persisted counters without moving them backwards.
template <typename T>
void raise_to(std::atomic<T>& counter, T value) {
  T current = counter.load(std::memory_order_relaxed);
  while (current < value &&
         !counter.compare_exchange_weak(current, value,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
  }
}

/// Default weigher: every entry counts 1 toward the capacity.
struct UnitWeight {
  template <typename V>
  std::uint64_t operator()(const V&) const {
    return 1;
  }
};

/// Cumulative counters; snapshot by value via SnapshotCache::stats().
/// Within one snapshot evictions <= inserts and invalidations <= inserts;
/// every counter is monotone across successive snapshots.
struct SnapshotCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t inserts = 0;
  std::size_t evictions = 0;      // dropped to stay under capacity
  std::size_t invalidations = 0;  // dropped explicitly (invalidate())

  [[nodiscard]] std::size_t lookups() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups());
  }
};

/// Every counter as (name, field) in field order: the obs counter
/// suffixes and the YAML fields the store persists them under.
inline constexpr std::array<
    std::pair<const char*, std::size_t SnapshotCacheStats::*>, 5>
    kSnapshotCacheCounters{{{"hits", &SnapshotCacheStats::hits},
                            {"misses", &SnapshotCacheStats::misses},
                            {"inserts", &SnapshotCacheStats::inserts},
                            {"evictions", &SnapshotCacheStats::evictions},
                            {"invalidations",
                             &SnapshotCacheStats::invalidations}}};

template <typename V, typename Weigher = UnitWeight>
class SnapshotCache {
public:
  /// One entry as exported to (and restored from) the persistent store.
  struct Entry {
    std::string key;
    V value;
    std::uint64_t sequence = 0;
  };

  /// Counters mirror into "<obs_prefix>.<name>"; `insert_name` names the
  /// insert counter ("inserts", or "pushes" for the binary cache).
  explicit SnapshotCache(std::string_view obs_prefix,
                         std::string_view insert_name = "inserts")
      : prefix_(obs_prefix) {
    for (std::size_t c = 0; c < kCounters; ++c) {
      names_[c] = prefix_ + "." +
                  std::string(c == kInserts ? insert_name
                                            : kSnapshotCacheCounters[c].first);
    }
  }

  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  /// Lock-free lookup; counts a hit or a miss.
  [[nodiscard]] std::optional<V> lookup(std::string_view key) {
    auto found = find(shard_for(key), key);
    count(found ? kHits : kMisses);
    return found;
  }

  /// Lookup that does not touch the counters.
  [[nodiscard]] bool contains(std::string_view key) const {
    return find(shard_for(key), key).has_value();
  }

  /// Publish `value` under `key`, overwriting (and re-sequencing) any
  /// existing entry, then evict down to capacity.
  void insert(std::string_view key, V value) {
    publish(shard_for(key), key, std::move(value), /*landing=*/false);
  }

  /// Single-flight fetch-or-compute (see the header comment). The leader
  /// counts one miss and one insert; waiters count hits.
  template <typename Make>
  V get_or_insert(std::string_view key, Make&& make) {
    Shard& shard = shard_for(key);
    {
      auto map = shard.snapshot.load();
      auto it = map->find(key);
      if (it != map->end()) {
        count(kHits);
        return it->second.value;
      }
    }
    return get_or_insert_slow(shard, key, make);
  }

  /// Drop one entry; false when absent.
  bool invalidate(std::string_view key) {
    Shard& shard = shard_for(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto next = std::make_shared<Map>(*shard.snapshot.load());
      auto it = next->find(key);
      if (it == next->end()) return false;
      drop(*next, it);
      shard.snapshot.store(std::move(next));
    }
    count(kInvalidations);
    return true;
  }

  /// Drop every entry; counters are kept.
  void clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.snapshot.store(std::make_shared<const Map>());
    }
    weight_.store(0, std::memory_order_relaxed);
  }

  /// Capacity in Weigher units; 0 (the default) is unbounded.
  void set_capacity(std::uint64_t capacity) {
    capacity_.store(capacity, std::memory_order_relaxed);
    evict_to_capacity();
  }
  [[nodiscard]] std::uint64_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  /// Total weight of the resident entries.
  [[nodiscard]] std::uint64_t weight() const {
    return weight_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (auto& shard : shards_) total += shard.snapshot.load()->size();
    return total;
  }

  [[nodiscard]] SnapshotCacheStats stats() const {
    SnapshotCacheStats out;
    for (Counter c : kReadOrder) {
      out.*kSnapshotCacheCounters[c].second =
          counters_[c].load(std::memory_order_acquire);
    }
    return out;
  }

  /// Every entry, oldest sequence first, so persisted snapshots are
  /// deterministic.
  [[nodiscard]] std::vector<Entry> export_entries() const {
    std::vector<Entry> out;
    for (auto& shard : shards_) {
      // One guard at a time: hazard slots are a small per-thread budget.
      auto map = shard.snapshot.load();
      for (const auto& [key, slot] : *map) {
        out.push_back({key, slot.value, slot.sequence});
      }
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.sequence < b.sequence;
    });
    return out;
  }

  /// Bulk warm start: publish `entries` with their original sequences
  /// (each touched shard once; a restored entry overwrites a live one),
  /// keep later inserts sequencing after them, raise every counter to at
  /// least its persisted value, then evict down to capacity.
  void restore(std::vector<Entry> entries, const SnapshotCacheStats& stats) {
    {
      std::lock_guard<std::mutex> evict_lock(evict_mu_);
      std::array<std::vector<Entry>, kShards> by_shard;
      std::uint64_t max_sequence = 0;
      for (auto& entry : entries) {
        max_sequence = std::max(max_sequence, entry.sequence);
        by_shard[shard_index(entry.key)].push_back(std::move(entry));
      }
      for (std::size_t i = 0; i < kShards; ++i) {
        if (by_shard[i].empty()) continue;
        Shard& shard = shards_[i];
        std::lock_guard<std::mutex> lock(shard.mu);
        auto next = std::make_shared<Map>(*shard.snapshot.load());
        for (auto& entry : by_shard[i]) {
          put(*next, std::move(entry.key), std::move(entry.value),
              entry.sequence);
        }
        shard.snapshot.store(std::move(next));
      }
      raise_to(next_sequence_, max_sequence + 1);
      for (auto c = kReadOrder.rbegin(); c != kReadOrder.rend(); ++c) {
        raise_to(counters_[*c], stats.*kSnapshotCacheCounters[*c].second);
      }
    }
    evict_to_capacity();
  }

private:
  static constexpr std::size_t kShards = 16;

  struct Slot {
    V value{};
    std::uint64_t sequence = 0;
  };
  using Map =
      std::unordered_map<std::string, Slot, SampledStringHash, std::equal_to<>>;
  struct Shard {
    std::mutex mu;
    SnapshotPtr<Map> snapshot;
    /// Keys whose leader is running make(); guarded by mu. `landed` is
    /// notified whenever one of them is published or abandoned.
    std::unordered_set<std::string, SampledStringHash, std::equal_to<>>
        in_flight;
    std::condition_variable landed;
  };

  /// Counter slots, in kSnapshotCacheCounters order.
  enum Counter : std::size_t {
    kHits,
    kMisses,
    kInserts,
    kEvictions,
    kInvalidations,
    kCounters
  };
  /// stats() reads effects before causes (acquire loads pairing with the
  /// release increments), so a snapshot never shows more evictions or
  /// invalidations than inserts; restore() raises counters in the
  /// reverse order.
  static constexpr std::array<Counter, kCounters> kReadOrder{
      kEvictions, kInvalidations, kInserts, kMisses, kHits};

  static std::size_t shard_index(std::string_view key) {
    return SampledStringHash{}(key) % kShards;
  }
  Shard& shard_for(std::string_view key) const {
    return shards_[shard_index(key)];
  }

  static std::optional<V> find(const Shard& shard, std::string_view key) {
    auto map = shard.snapshot.load();
    auto it = map->find(key);
    if (it == map->end()) return std::nullopt;
    return it->second.value;
  }

  /// The miss path of get_or_insert(), out of line so the hit path stays
  /// small. A leader publishes and retires its flight in one critical
  /// section, so under the lock the key is published, in flight, or ours.
  template <typename Make>
  V get_or_insert_slow(Shard& shard, std::string_view key, Make& make) {
    std::unique_lock<std::mutex> lock(shard.mu);
    for (;;) {
      if (auto hit = find(shard, key)) {
        lock.unlock();
        count(kHits);
        return *std::move(hit);
      }
      if (!shard.in_flight.contains(key)) break;
      // Wait for the leader; if its make threw, the key is ours to take.
      shard.landed.wait(lock, [&] { return !shard.in_flight.contains(key); });
    }
    shard.in_flight.emplace(key);
    lock.unlock();
    count(kMisses);
    try {
      V value = make();
      publish(shard, key, value, /*landing=*/true);
      return value;
    } catch (...) {
      lock.lock();
      shard.in_flight.erase(std::string(key));  // absent if publish landed
      lock.unlock();
      shard.landed.notify_all();
      throw;
    }
  }

  void count(Counter c) {
    counters_[c].fetch_add(1, std::memory_order_release);
    obs::TraceCollector::global().counter_add(names_[c]);
  }

  /// Insert or overwrite in an unpublished map copy, keeping weight_ in
  /// step (the new weight lands before the old one leaves, so a
  /// concurrent evictor never reads a wrapped total). A V with a
  /// `sequence` member carries its entry's sequence, so lookups hand it
  /// out too.
  void put(Map& map, std::string key, V value, std::uint64_t sequence) {
    if constexpr (requires { value.sequence = sequence; }) {
      value.sequence = sequence;
    }
    weight_.fetch_add(Weigher{}(value), std::memory_order_relaxed);
    auto [it, fresh] = map.try_emplace(std::move(key));
    if (!fresh) {
      weight_.fetch_sub(Weigher{}(it->second.value),
                        std::memory_order_relaxed);
    }
    it->second = Slot{std::move(value), sequence};
  }

  /// Copy-on-write insert with a fresh sequence, then evict down to
  /// capacity. A `landing` leader retires its flight in the same critical
  /// section and wakes the waiters.
  void publish(Shard& shard, std::string_view key, V value, bool landing) {
    // Counted before the entry is visible: a concurrent evictor can only
    // drop published entries, so evictions <= inserts in every snapshot.
    count(kInserts);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto next = std::make_shared<Map>(*shard.snapshot.load());
      put(*next, std::string(key), std::move(value),
          next_sequence_.fetch_add(1, std::memory_order_relaxed));
      shard.snapshot.store(std::move(next));
      if (landing) shard.in_flight.erase(shard.in_flight.find(key));
    }
    if (landing) shard.landed.notify_all();
    evict_to_capacity();
  }

  /// Erase from an unpublished map copy, keeping weight_ in step.
  std::uint64_t drop(Map& map, typename Map::iterator it) {
    const std::uint64_t w = Weigher{}(it->second.value);
    weight_.fetch_sub(w, std::memory_order_relaxed);
    map.erase(it);
    return w;
  }

  /// Drop oldest-sequence entries until the weight fits the capacity.
  /// Lock order is evict_mu_ -> shard.mu, never the reverse.
  void evict_to_capacity() {
    if (capacity() == 0 || weight() <= capacity()) return;
    auto& collector = obs::TraceCollector::global();
    std::lock_guard<std::mutex> evict_lock(evict_mu_);
    const std::uint64_t limit = capacity();
    while (limit != 0 && weight() > limit) {
      // The globally oldest entry, found from the lock-free snapshots.
      Shard* victim = nullptr;
      std::string victim_key;
      std::uint64_t victim_sequence = UINT64_MAX;
      for (auto& shard : shards_) {
        auto map = shard.snapshot.load();
        for (const auto& [key, slot] : *map) {
          if (slot.sequence < victim_sequence) {
            victim = &shard;
            victim_key = key;
            victim_sequence = slot.sequence;
          }
        }
      }
      if (victim == nullptr) return;  // raced to empty
      std::lock_guard<std::mutex> lock(victim->mu);
      auto next = std::make_shared<Map>(*victim->snapshot.load());
      // Erase only the exact (key, sequence) pair chosen: the entry may
      // have been refreshed or dropped since the scan.
      auto it = next->find(std::string_view(victim_key));
      if (it == next->end() || it->second.sequence != victim_sequence) {
        continue;
      }
      const std::uint64_t w = drop(*next, it);
      victim->snapshot.store(std::move(next));
      count(kEvictions);
      if (collector.enabled()) {
        collector.instant("evict", prefix_,
                          {{"key", victim_key},
                           {"weight", std::to_string(w)}});
      }
    }
  }

  const std::string prefix_;  // obs prefix, also the evict event category
  std::array<std::string, kCounters> names_;

  mutable std::array<Shard, kShards> shards_;
  std::mutex evict_mu_;
  std::atomic<std::uint64_t> capacity_{0};
  std::atomic<std::uint64_t> weight_{0};
  std::atomic<std::uint64_t> next_sequence_{1};
  // The counters start a cache line of their own (and end the object):
  // every hit writes one, and sharing that line with the fields above
  // cost the 16-thread hit path about a quarter of its throughput.
  alignas(64) std::array<std::atomic<std::size_t>, kCounters> counters_{};
};

}  // namespace benchpark::support
