// support::SnapshotCache: the one sharded RCU memo table behind the
// binary, concretization and template caches. Every behaviour is checked
// at weight 1 (one unit per entry) and with a byte weigher.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/support/snapshot_cache.hpp"

namespace support = benchpark::support;

namespace {

/// A value whose byte weight is explicit; `tag` tells copies apart.
struct Blob {
  std::uint64_t bytes = 10;
  int tag = 0;
};

struct BlobBytes {
  std::uint64_t operator()(const Blob& b) const { return b.bytes; }
};

template <typename Weigher>
class SnapshotCacheTest : public ::testing::Test {
protected:
  using Cache = support::SnapshotCache<Blob, Weigher>;
  /// Weight of one default Blob under this weigher.
  static constexpr std::uint64_t kUnit =
      std::is_same_v<Weigher, support::UnitWeight> ? 1 : 10;

  static std::vector<std::string> keys(const Cache& cache) {
    std::vector<std::string> out;
    for (const auto& e : cache.export_entries()) out.push_back(e.key);
    return out;
  }
};

using Weighers = ::testing::Types<support::UnitWeight, BlobBytes>;
TYPED_TEST_SUITE(SnapshotCacheTest, Weighers);

TYPED_TEST(SnapshotCacheTest, EvictsOldestFirst) {
  typename TestFixture::Cache cache("test.cache");
  cache.set_capacity(3 * TestFixture::kUnit);
  for (int i = 0; i < 5; ++i) cache.insert("k" + std::to_string(i), Blob{});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.weight(), 3 * TestFixture::kUnit);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(TestFixture::keys(cache),
            (std::vector<std::string>{"k2", "k3", "k4"}));
}

TYPED_TEST(SnapshotCacheTest, OverwriteRefreshesEvictionOrder) {
  typename TestFixture::Cache cache("test.cache");
  cache.set_capacity(2 * TestFixture::kUnit);
  cache.insert("a", Blob{});
  cache.insert("b", Blob{});
  cache.insert("a", Blob{10, 1});  // refresh: "b" is now the oldest
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.weight(), 2 * TestFixture::kUnit);
  cache.insert("c", Blob{});
  EXPECT_EQ(TestFixture::keys(cache), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(cache.lookup("a")->tag, 1);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().inserts, 4u);
}

TYPED_TEST(SnapshotCacheTest, InvalidateAndClearKeepCounters) {
  typename TestFixture::Cache cache("test.cache");
  cache.insert("a", Blob{});
  cache.insert("b", Blob{});
  EXPECT_TRUE(cache.lookup("a"));
  EXPECT_FALSE(cache.lookup("zzz"));
  EXPECT_TRUE(cache.contains("b"));  // uncounted
  EXPECT_TRUE(cache.invalidate("a"));
  EXPECT_FALSE(cache.invalidate("a"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.weight(), TestFixture::kUnit);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.weight(), 0u);
  EXPECT_FALSE(cache.contains("b"));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TYPED_TEST(SnapshotCacheTest, ExportRestoreKeepsSequencesAndEvictionOrder) {
  typename TestFixture::Cache source("test.cache");
  for (int i = 0; i < 4; ++i) source.insert("k" + std::to_string(i), Blob{});
  source.insert("k1", Blob{10, 7});  // refreshed: newest
  (void)source.lookup("k0");
  (void)source.lookup("missing");
  const auto exported = source.export_entries();
  ASSERT_EQ(exported.size(), 4u);
  EXPECT_EQ(TestFixture::keys(source),
            (std::vector<std::string>{"k0", "k2", "k3", "k1"}));
  for (std::size_t i = 1; i < exported.size(); ++i) {
    EXPECT_LT(exported[i - 1].sequence, exported[i].sequence);
  }

  typename TestFixture::Cache warm("test.cache");
  warm.restore(exported, source.stats());
  const auto restored = warm.export_entries();
  ASSERT_EQ(restored.size(), exported.size());
  for (std::size_t i = 0; i < exported.size(); ++i) {
    EXPECT_EQ(restored[i].key, exported[i].key);
    EXPECT_EQ(restored[i].sequence, exported[i].sequence);
    EXPECT_EQ(restored[i].value.tag, exported[i].value.tag);
  }
  EXPECT_EQ(warm.size(), 4u);
  EXPECT_EQ(warm.weight(), 4 * TestFixture::kUnit);
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(warm.stats().misses, 1u);
  EXPECT_EQ(warm.stats().inserts, 5u);

  // A new insert sequences after every restored entry...
  warm.insert("fresh", Blob{});
  EXPECT_GT(warm.export_entries().back().sequence, exported.back().sequence);
  EXPECT_EQ(warm.export_entries().back().key, "fresh");
  // ...and eviction keeps the persisted oldest-first order.
  warm.set_capacity(2 * TestFixture::kUnit);
  EXPECT_EQ(TestFixture::keys(warm),
            (std::vector<std::string>{"k1", "fresh"}));
  EXPECT_EQ(warm.stats().evictions, 3u);
}

TYPED_TEST(SnapshotCacheTest, RestoreRaisesCountersNeverLowersThem) {
  typename TestFixture::Cache cache("test.cache");
  for (int i = 0; i < 3; ++i) cache.insert("k" + std::to_string(i), Blob{});
  for (int i = 0; i < 5; ++i) (void)cache.lookup("k0");
  support::SnapshotCacheStats persisted;
  persisted.hits = 2;            // below live: kept at 5
  persisted.misses = 9;          // above live: raised
  persisted.inserts = 1;         // below live: kept at 3
  persisted.evictions = 1;
  persisted.invalidations = 1;
  cache.restore({}, persisted);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 9u);
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(cache.size(), 3u);  // an empty restore keeps live entries
}

TYPED_TEST(SnapshotCacheTest, StatsTornReadFreeUnderConcurrentInserts) {
  typename TestFixture::Cache cache("test.cache");
  cache.set_capacity(4 * TestFixture::kUnit);  // eviction + insert races
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 300; ++i) {
        const std::string key =
            "w" + std::to_string(w) + "-" + std::to_string(i % 8);
        cache.insert(key, Blob{});
        (void)cache.lookup(key);
        if (i % 16 == 0) (void)cache.invalidate(key);
      }
    });
  }
  std::thread closer([&] {
    for (auto& t : writers) t.join();
    done.store(true);
  });

  support::SnapshotCacheStats prev;
  for (bool last = false; !last;) {
    last = done.load();
    const auto st = cache.stats();
    EXPECT_LE(st.evictions, st.inserts);
    EXPECT_LE(st.invalidations, st.inserts);
    EXPECT_GE(st.hits, prev.hits);
    EXPECT_GE(st.misses, prev.misses);
    EXPECT_GE(st.inserts, prev.inserts);
    EXPECT_GE(st.evictions, prev.evictions);
    EXPECT_GE(st.invalidations, prev.invalidations);
    prev = st;
  }
  closer.join();
  EXPECT_EQ(prev.inserts, 4u * 300u);
  EXPECT_EQ(prev.lookups(), 4u * 300u);
  EXPECT_LE(cache.weight(), 4 * TestFixture::kUnit);
}

TYPED_TEST(SnapshotCacheTest, SingleFlightRunsMakeOnce) {
  typename TestFixture::Cache cache("test.cache");
  constexpr int kThreads = 8;
  std::atomic<int> makes{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<int> tags(kThreads, -1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      tags[t] = cache
                    .get_or_insert("key",
                                   [&] {
                                     makes.fetch_add(1);
                                     // Hold the flight open so the other
                                     // threads miss while it runs.
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(50));
                                     return Blob{10, 42};
                                   })
                    .tag;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(makes.load(), 1);
  for (int tag : tags) EXPECT_EQ(tag, 42);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads - 1));
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TYPED_TEST(SnapshotCacheTest, ThrowingMakePublishesNothing) {
  typename TestFixture::Cache cache("test.cache");
  EXPECT_THROW((void)cache.get_or_insert(
                   "bad", []() -> Blob { throw std::runtime_error("no"); }),
               std::runtime_error);
  EXPECT_FALSE(cache.contains("bad"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // Errors are not cached: the next call runs make again.
  EXPECT_THROW((void)cache.get_or_insert(
                   "bad", []() -> Blob { throw std::runtime_error("no"); }),
               std::runtime_error);
  EXPECT_EQ(cache.stats().misses, 2u);

  // A waiter behind a failing leader retries as the new leader.
  std::atomic<bool> leader_running{false};
  std::atomic<int> good_makes{0};
  std::thread leader([&] {
    EXPECT_THROW((void)cache.get_or_insert("k",
                                           [&]() -> Blob {
                                             leader_running.store(true);
                                             std::this_thread::sleep_for(
                                                 std::chrono::milliseconds(
                                                     30));
                                             throw std::runtime_error("no");
                                           }),
                 std::runtime_error);
  });
  while (!leader_running.load()) std::this_thread::yield();
  const Blob got = cache.get_or_insert("k", [&] {
    good_makes.fetch_add(1);
    return Blob{10, 5};
  });
  leader.join();
  EXPECT_EQ(got.tag, 5);
  EXPECT_EQ(good_makes.load(), 1);
  EXPECT_TRUE(cache.contains("k"));
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(SnapshotCacheBytes, EntryLargerThanCapacityIsEvictedRightAway) {
  support::SnapshotCache<Blob, BlobBytes> cache("test.cache");
  cache.set_capacity(100);
  cache.insert("big", Blob{500, 0});
  EXPECT_FALSE(cache.contains("big"));
  EXPECT_EQ(cache.weight(), 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.insert("fits", Blob{60, 0});
  cache.insert("also", Blob{40, 0});
  EXPECT_EQ(cache.weight(), 100u);
  EXPECT_EQ(cache.size(), 2u);
  // Overwrites account by the weight delta.
  cache.insert("fits", Blob{20, 0});
  EXPECT_EQ(cache.weight(), 60u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SnapshotCacheObs, CountersMirrorUnderThePrefix) {
  auto& collector = benchpark::obs::TraceCollector::global();
  collector.reset();
  collector.set_enabled(true);
  {
    support::SnapshotCache<Blob> cache("test.mirror", "pushes");
    cache.set_capacity(1);
    cache.insert("a", Blob{});
    cache.insert("b", Blob{});
    (void)cache.lookup("b");
    (void)cache.lookup("a");
    (void)cache.invalidate("b");
    const auto stats = cache.stats();
    const auto trace = collector.snapshot();
    EXPECT_EQ(trace.counters.at("test.mirror.pushes"), 2);
    EXPECT_EQ(trace.counters.at("test.mirror.hits"), 1);
    EXPECT_EQ(trace.counters.at("test.mirror.misses"), 1);
    EXPECT_EQ(trace.counters.at("test.mirror.evictions"), 1);
    EXPECT_EQ(trace.counters.at("test.mirror.invalidations"), 1);
    EXPECT_EQ(trace.count_named("evict"), stats.evictions);
  }
  collector.set_enabled(false);
  collector.reset();
}

}  // namespace
