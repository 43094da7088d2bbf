// Lock-free hot-path tests: zero steady-state heap allocations in warm
// template expansion (counting global allocator), and torn-read-free
// stats() snapshots hammered against concurrent writers on all three
// RCU caches. This suite carries the "threads" label so the TSAN CI job
// runs it under the race detector.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/buildcache/binary_cache.hpp"
#include "src/concretizer/concretize_cache.hpp"
#include "src/concretizer/concretizer.hpp"
#include "src/pkg/repo.hpp"
#include "src/ramble/expansion.hpp"
#include "src/spec/spec.hpp"
#include "src/support/arena.hpp"

// ----------------------------------------------------- counting allocator
// Global operator new/delete overrides for this binary only: when armed,
// every heap allocation bumps the counter. The zero-allocation test warms
// its caches/arena/buffers, arms the counter, runs the steady-state loop
// single-threaded, and asserts the count stayed zero.

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<bool> g_count_allocations{false};

void* counted_alloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, std::align_val_t) {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

namespace cz = benchpark::concretizer;
namespace pkg = benchpark::pkg;
namespace ramble = benchpark::ramble;
namespace support = benchpark::support;
using benchpark::buildcache::BinaryCache;
using benchpark::spec::Spec;
using benchpark::spec::Version;

struct AllocationGuard {
  AllocationGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() {
    g_count_allocations.store(false, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

cz::Concretizer simple_concretizer() {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.set_default_target("broadwell");
  config.package("mpi").preferred_providers = {"mvapich2"};
  return cz::Concretizer(pkg::default_repo_stack(), config);
}

std::vector<Spec> distinct_concrete_specs() {
  auto concretizer = simple_concretizer();
  std::vector<Spec> specs;
  for (const char* name :
       {"zlib", "cmake", "gmake", "adiak", "caliper", "hypre", "openblas",
        "python"}) {
    cz::ConcretizeRequest request;
    request.roots = {Spec::parse(name)};
    request.unify = false;
    request.use_cache = false;
    request.threads = 1;
    specs.push_back(
        std::move(concretizer.concretize_all(request).specs.front()));
  }
  return specs;
}

}  // namespace

// ------------------------------------------------ zero-allocation warm path

TEST(HotPathAlloc, WarmTemplateExpansionAllocatesNothing) {
  ramble::VariableMap vars{
      {"n_nodes", "4"},
      {"processes_per_node", "8"},
      {"n_ranks", "{processes_per_node} * {n_nodes}"},
      {"mpi_command", "srun -N {n_nodes} -n {n_ranks}"},
      {"exe", "saxpy"},
  };
  auto tmpl = ramble::TemplateCache::global().get(
      "{mpi_command} ./{exe} --ranks {n_ranks} --again {n_ranks}");

  support::Arena arena;
  std::string out;
  // Warm everything: compile cache entries for the value templates, the
  // arena's high-water blocks, and `out`'s capacity.
  for (int i = 0; i < 3; ++i) {
    arena.reset();
    out.clear();
    tmpl->expand_into(out, vars, true, arena);
  }
  EXPECT_EQ(out, "srun -N 4 -n 32 ./saxpy --ranks 32 --again 32");

  AllocationGuard guard;
  for (int i = 0; i < 100; ++i) {
    arena.reset();
    out.clear();
    tmpl->expand_into(out, vars, true, arena);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "warm expansion must be heap-allocation-free";
  EXPECT_EQ(out, "srun -N 4 -n 32 ./saxpy --ranks 32 --again 32");
}

TEST(HotPathAlloc, ArenaExpansionMatchesPlainExpansion) {
  ramble::VariableMap vars{
      {"a", "1"}, {"b", "{a} + 2"}, {"idx", "2"}, {"p2", "deep"}};
  const std::string text = "x={b} nested={p{idx}} esc={{lit}}";
  auto tmpl = ramble::TemplateCache::global().get(text);
  support::Arena arena;
  EXPECT_EQ(tmpl->expand(vars, true, arena), tmpl->expand(vars, true));
  arena.reset();
  EXPECT_EQ(tmpl->expand(vars, false, arena), "x=3 nested=deep esc={lit}");
}

TEST(HotPathAlloc, ArenaReuseAcrossManyExpansionsStaysBounded) {
  ramble::VariableMap vars{{"v", "value"}};
  auto tmpl = ramble::TemplateCache::global().get("{v}/{v}/{v}");
  support::Arena arena;
  std::string out;
  tmpl->expand_into(out, vars, true, arena);
  const auto blocks = arena.block_count();
  for (int i = 0; i < 1000; ++i) {
    arena.reset();
    out.clear();
    tmpl->expand_into(out, vars, true, arena);
  }
  EXPECT_EQ(arena.block_count(), blocks)
      << "steady-state expansion must not grow the arena";
  EXPECT_EQ(out, "value/value/value");
}

// -------------------------------------------- stats() vs concurrent writers
// Each test hammers stats() from the main thread while writer threads
// insert concurrently, asserting every snapshot is internally consistent
// (effect counters never exceed their cause counters) and monotone across
// successive snapshots. TSAN covers the memory-order claims.

TEST(HotPathStats, BinaryCacheSnapshotsConsistentUnderPushes) {
  BinaryCache cache;
  cache.set_capacity_bytes(6 * 100);  // forces a rolling eviction stream
  auto specs = distinct_concrete_specs();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 300; ++i) {
        const auto& s = specs[static_cast<std::size_t>((w + i) %
                                                       specs.size())];
        cache.push(s, 100);
        (void)cache.fetch(s);
      }
    });
  }

  benchpark::buildcache::CacheStats prev;
  while (!stop.load(std::memory_order_relaxed)) {
    auto st = cache.stats();
    // Cause-before-effect: an eviction implies a completed push.
    EXPECT_LE(st.evictions, st.pushes);
    // Monotone: no counter ever runs backwards.
    EXPECT_GE(st.hits, prev.hits);
    EXPECT_GE(st.misses, prev.misses);
    EXPECT_GE(st.pushes, prev.pushes);
    EXPECT_GE(st.retries, prev.retries);
    EXPECT_GE(st.evictions, prev.evictions);
    prev = st;
    if (prev.pushes >= 4 * 300) break;
  }
  for (auto& t : writers) t.join();

  auto final_stats = cache.stats();
  EXPECT_EQ(final_stats.pushes, 4u * 300u);
  EXPECT_LE(final_stats.evictions, final_stats.pushes);
  EXPECT_EQ(final_stats.lookups(), 4u * 300u);
}

TEST(HotPathStats, ConcretizeCacheSnapshotsConsistentUnderInserts) {
  cz::ConcretizationCache cache;
  cache.set_capacity(4);  // eviction + insert races
  auto specs = distinct_concrete_specs();

  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 250; ++i) {
        const auto idx = static_cast<std::size_t>((w * 3 + i) % specs.size());
        const std::string key =
            "key-" + std::to_string(w) + "-" + std::to_string(i % 8);
        cache.insert(key,
                     std::make_shared<const benchpark::spec::Spec>(specs[idx]));
        (void)cache.lookup(key);
        if (i % 16 == 0) (void)cache.invalidate(key);
      }
    });
  }

  benchpark::support::SnapshotCacheStats prev;
  while (true) {
    auto st = cache.stats();
    EXPECT_LE(st.evictions, st.inserts);
    EXPECT_LE(st.invalidations, st.inserts);
    EXPECT_GE(st.hits, prev.hits);
    EXPECT_GE(st.misses, prev.misses);
    EXPECT_GE(st.inserts, prev.inserts);
    EXPECT_GE(st.evictions, prev.evictions);
    EXPECT_GE(st.invalidations, prev.invalidations);
    prev = st;
    if (st.inserts >= 4 * 250) break;
  }
  for (auto& t : writers) t.join();

  auto final_stats = cache.stats();
  EXPECT_EQ(final_stats.inserts, 4u * 250u);
  EXPECT_LE(final_stats.evictions, final_stats.inserts);
  EXPECT_LE(cache.size(), 4u);
}

TEST(HotPathStats, TemplateCacheSnapshotsConsistentUnderGets) {
  ramble::TemplateCache cache;
  cache.set_capacity(8);

  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 250; ++i) {
        auto tmpl = cache.get("tpl-" + std::to_string(w) + "-{x}-" +
                              std::to_string(i % 12));
        ASSERT_NE(tmpl, nullptr);
      }
    });
  }

  benchpark::support::SnapshotCacheStats prev;
  while (true) {
    auto st = cache.stats();
    EXPECT_LE(st.evictions, st.inserts);
    EXPECT_LE(st.inserts, st.misses);  // every insert began as a miss
    EXPECT_GE(st.hits, prev.hits);
    EXPECT_GE(st.misses, prev.misses);
    EXPECT_GE(st.inserts, prev.inserts);
    EXPECT_GE(st.evictions, prev.evictions);
    prev = st;
    if (st.lookups() >= 4 * 250) break;
  }
  for (auto& t : writers) t.join();

  auto final_stats = cache.stats();
  EXPECT_EQ(final_stats.lookups(), 4u * 250u);
  EXPECT_LE(final_stats.evictions, final_stats.inserts);
  EXPECT_LE(cache.size(), 8u);
}

// --------------------------------------------------- RCU reader guarantees

TEST(HotPathRcu, ReadersSeeFullyFormedEntriesDuringWrites) {
  // Readers race get()/fetch() against writers; every observed entry must
  // be complete (a snapshot is published only after the entry is built).
  BinaryCache cache;
  auto specs = distinct_concrete_specs();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      cache.push(specs[static_cast<std::size_t>(i) % specs.size()],
                 1000 + static_cast<std::uint64_t>(i));
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const auto& s : specs) {
          auto entry = cache.fetch(s);
          if (entry) {
            // A published entry always carries its key and a sequence.
            EXPECT_EQ(entry->dag_hash, s.dag_hash());
            EXPECT_GT(entry->sequence, 0u);
            EXPECT_GE(entry->size_bytes, 1000u);
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(cache.size(), specs.size());
}

TEST(HotPathRcu, TemplateCacheHitReturnsSameCompilation) {
  // Warm hits must alias one compiled object (shared snapshot), not
  // recompile per call.
  ramble::TemplateCache cache;
  auto first = cache.get("{a}-{b}");
  auto again = cache.get("{a}-{b}");
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}
