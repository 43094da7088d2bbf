// Lock-free hot-path benchmarks backing the BENCH_hotpath.json CI gate:
// warm cache hit-path throughput at 1/8/16 threads for the RCU snapshot
// design vs. an inline mutex-per-shard baseline (the pre-RCU layout), and
// heap allocations per warm template expansion (gated to zero).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/ramble/expansion.hpp"
#include "src/support/arena.hpp"
#include "src/support/hash.hpp"

#include "bench_util.hpp"

// ----------------------------------------------------- counting allocator
// Same technique as tests/test_hotpath.cpp: global new/delete overrides
// for this binary, armed only around the measured expansion loop.

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

namespace ramble = benchpark::ramble;
namespace support = benchpark::support;

constexpr int kKeys = 64;

std::vector<std::string> template_keys() {
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("srun -N {n_nodes} -n {n_ranks} ./exe-" +
                   std::to_string(i) + " --size {size}");
  }
  return keys;
}

// The pre-RCU shard layout: lookups take the shard mutex. This is the
// baseline the >=2x 16-thread gate compares the snapshot design against.
class MutexShardedTemplateCache {
public:
  std::shared_ptr<const ramble::CompiledTemplate> get(std::string_view text) {
    Shard& shard = shards_[support::SampledStringHash{}(text) % kShards];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(text);
      if (it != shard.map.end()) return it->second;
    }
    auto compiled = std::make_shared<const ramble::CompiledTemplate>(text);
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.map.emplace(std::string(text), compiled).first->second;
  }

private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string,
                       std::shared_ptr<const ramble::CompiledTemplate>,
                       support::SampledStringHash, std::equal_to<>>
        map;
  };
  Shard shards_[kShards];
};

// --------------------------------------------- hit-path throughput gates

ramble::TemplateCache& lockfree_cache() {
  static ramble::TemplateCache cache;
  return cache;
}

MutexShardedTemplateCache& mutex_cache() {
  static MutexShardedTemplateCache cache;
  return cache;
}

const std::vector<std::string>& warm_keys() {
  static const std::vector<std::string> keys = [] {
    auto k = template_keys();
    for (const auto& key : k) {
      benchpark_bench::keep(lockfree_cache().get(key));
      benchpark_bench::keep(mutex_cache().get(key));
    }
    return k;
  }();
  return keys;
}

// Every thread hammers the same hot key — the realistic shape (a matrix
// expansion hits one execute template for every experiment) and the one
// that exposes shard-mutex serialization: all threads funnel into one
// shard, so the baseline's critical section is the bottleneck while the
// snapshot design's readers never exclude each other.

void BM_HitPathLockFree(benchmark::State& state) {
  const std::string& key = warm_keys().front();
  for (auto _ : state) {
    benchpark_bench::keep(lockfree_cache().get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HitPathLockFree)
    ->Threads(1)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

void BM_HitPathMutexBaseline(benchmark::State& state) {
  const std::string& key = warm_keys().front();
  for (auto _ : state) {
    benchpark_bench::keep(mutex_cache().get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HitPathMutexBaseline)
    ->Threads(1)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

// ---------------------------------------- allocations per warm expansion

void BM_ExpansionAllocations(benchmark::State& state) {
  ramble::VariableMap vars{
      {"n_nodes", "4"},
      {"processes_per_node", "8"},
      {"n_ranks", "{processes_per_node} * {n_nodes}"},
      {"size", "1048576"},
  };
  auto tmpl = lockfree_cache().get(warm_keys().front());
  support::Arena arena;
  std::string out;
  for (int i = 0; i < 3; ++i) {
    arena.reset();
    out.clear();
    tmpl->expand_into(out, vars, true, arena);
  }

  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  std::size_t expansions = 0;
  for (auto _ : state) {
    arena.reset();
    out.clear();
    tmpl->expand_into(out, vars, true, arena);
    ++expansions;
  }
  g_count_allocations.store(false, std::memory_order_relaxed);

  state.counters["allocs_per_expansion"] =
      expansions == 0 ? 0.0
                      : static_cast<double>(
                            g_allocations.load(std::memory_order_relaxed)) /
                            static_cast<double>(expansions);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpansionAllocations);

}  // namespace

BENCHMARK_MAIN();
