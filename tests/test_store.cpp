// Persistent store tests: journal round-trips, crash/corruption recovery
// (truncated tails, bit flips, poisoned load/flush fault sites), cache
// snapshot restore (sequences + stats), and the incremental re-run path —
// an unchanged campaign re-run against a warm store performs zero
// installs and zero experiment executions, while a changed input re-runs
// exactly the affected subset. Carries the "threads" label so the TSAN
// job races the store mutex for real.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/buildcache/binary_cache.hpp"
#include "src/concretizer/concretize_cache.hpp"
#include "src/concretizer/concretizer.hpp"
#include "src/core/driver.hpp"
#include "src/obs/trace.hpp"
#include "src/pkg/repo.hpp"
#include "src/ramble/expansion.hpp"
#include "src/ramble/workspace.hpp"
#include "src/store/persist.hpp"
#include "src/store/store.hpp"
#include "src/support/fault.hpp"
#include "src/support/fs_util.hpp"
#include "src/system/system.hpp"
#include "src/yaml/parser.hpp"

namespace buildcache = benchpark::buildcache;
namespace core = benchpark::core;
namespace cz = benchpark::concretizer;
namespace fs = std::filesystem;
namespace obs = benchpark::obs;
namespace ramble = benchpark::ramble;
namespace store = benchpark::store;
namespace support = benchpark::support;
namespace sys = benchpark::system;

namespace {

/// Overwrite the journal bytes directly (the tests' corruption hammer;
/// deliberately not the crash-safe write_file path).
void write_raw(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string read_raw(const fs::path& path) {
  return support::read_file(path);
}

const char* kSaxpyRambleYaml =
    "ramble:\n"
    "  applications:\n"
    "    saxpy:\n"
    "      workloads:\n"
    "        problem:\n"
    "          env_vars:\n"
    "            set:\n"
    "              OMP_NUM_THREADS: '{n_threads}'\n"
    "          variables:\n"
    "            n_ranks: '8'\n"
    "            batch_time: '120'\n"
    "          experiments:\n"
    "            saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:\n"
    "              variables:\n"
    "                processes_per_node: ['8', '4']\n"
    "                n_nodes: ['1', '2']\n"
    "                n_threads: ['2', '4']\n"
    "                n: ['512', '1024']\n"
    "              matrices:\n"
    "              - size_threads:\n"
    "                - n\n"
    "                - n_threads\n"
    "  spack:\n"
    "    packages:\n"
    "      gcc1211:\n"
    "        spack_spec: gcc@12.1.1\n"
    "      default-mpi:\n"
    "        spack_spec: mvapich2@2.3.7\n"
    "      saxpy:\n"
    "        spack_spec: saxpy@1.0.0 +openmp\n"
    "        compiler: gcc1211\n"
    "    environments:\n"
    "      saxpy:\n"
    "        packages:\n"
    "        - default-mpi\n"
    "        - saxpy\n";

ramble::Workspace make_saxpy_workspace(const fs::path& root,
                                       const char* yaml_text =
                                           kSaxpyRambleYaml) {
  auto system = sys::SystemRegistry::instance().get("cts1");
  auto ws = ramble::Workspace::create(root, system);
  ws.configure(benchpark::yaml::parse(yaml_text));
  return ws;
}

}  // namespace

// ------------------------------------------------------------ store core

TEST(Store, PutGetFlushReload) {
  support::TempDir tmp;
  {
    auto s = store::Store::open(tmp.path());
    EXPECT_EQ(s->size(), 0u);
    EXPECT_FALSE(s->stats().cold_start);
    s->put("experiment", "k1", "value one");
    s->put("experiment", "k2", "value two");
    s->put("binary", "k1", "other kind, same key");
    EXPECT_EQ(s->pending(), 3u);
    ASSERT_TRUE(s->get("experiment", "k1").has_value());
    EXPECT_EQ(*s->get("experiment", "k1"), "value one");
    s->flush();
    EXPECT_EQ(s->pending(), 0u);
  }
  auto s = store::Store::open(tmp.path());
  EXPECT_EQ(s->size(), 3u);
  EXPECT_EQ(s->stats().loaded_records, 3u);
  EXPECT_EQ(s->stats().dropped_records, 0u);
  EXPECT_EQ(*s->get("experiment", "k2"), "value two");
  EXPECT_EQ(*s->get("binary", "k1"), "other kind, same key");
  EXPECT_FALSE(s->get("experiment", "missing").has_value());
  EXPECT_TRUE(s->contains("binary", "k1"));
  EXPECT_FALSE(s->contains("template", "k1"));
}

TEST(Store, DedupAndOverwrite) {
  support::TempDir tmp;
  auto s = store::Store::open(tmp.path());
  s->put("meta", "k", "v1");
  EXPECT_EQ(s->pending(), 1u);
  // Identical re-put appends nothing: warm re-runs leave no journal churn.
  s->put("meta", "k", "v1");
  EXPECT_EQ(s->pending(), 1u);
  // A changed value appends one more frame; last record wins.
  s->put("meta", "k", "v2");
  EXPECT_EQ(s->pending(), 2u);
  s->flush();
  auto reopened = store::Store::open(tmp.path());
  EXPECT_EQ(reopened->size(), 1u);
  EXPECT_EQ(*reopened->get("meta", "k"), "v2");
}

TEST(Store, EraseTombstoneSurvivesReload) {
  support::TempDir tmp;
  {
    auto s = store::Store::open(tmp.path());
    s->put("install", "dead", "x");
    s->put("install", "alive", "y");
    s->flush();
    EXPECT_TRUE(s->erase("install", "dead"));
    EXPECT_FALSE(s->erase("install", "dead"));  // already gone
    s->flush();
  }
  auto s = store::Store::open(tmp.path());
  EXPECT_FALSE(s->contains("install", "dead"));
  EXPECT_EQ(*s->get("install", "alive"), "y");
}

TEST(Store, ForEachVisitsOneKindInKeyOrder) {
  support::TempDir tmp;
  auto s = store::Store::open(tmp.path());
  s->put("concretize", "b", "2");
  s->put("concretize", "a", "1");
  s->put("template", "zzz", "not this kind");
  std::vector<std::string> keys;
  s->for_each("concretize", [&](const std::string& key,
                                const std::string& value) {
    keys.push_back(key + "=" + value);
    // The callback runs outside the store lock: re-entering is legal.
    EXPECT_TRUE(s->contains("concretize", key));
  });
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a=1");
  EXPECT_EQ(keys[1], "b=2");
}

TEST(Store, BinaryValuesSurviveRoundTrip) {
  support::TempDir tmp;
  // Keys/values with newlines, NULs, the record separator, and spaces:
  // length-prefixed framing must not care.
  const std::string key("spa ce\n\x1f\x00key", 12);
  const std::string value("v\n\x00\x1f rec del 1 2 3\n", 19);
  {
    auto s = store::Store::open(tmp.path());
    s->put("experiment", key, value);
    s->flush();
  }
  auto s = store::Store::open(tmp.path());
  ASSERT_TRUE(s->get("experiment", key).has_value());
  EXPECT_EQ(*s->get("experiment", key), value);
  EXPECT_EQ(s->stats().dropped_records, 0u);
}

TEST(Store, CompactionDropsDeadFrames) {
  support::TempDir tmp;
  auto s = store::Store::open(tmp.path());
  for (int i = 0; i < 50; ++i) {
    s->put("meta", "hot", "version " + std::to_string(i));
  }
  s->flush();
  const auto before = fs::file_size(s->journal_path());
  s->compact();
  EXPECT_GE(s->stats().compactions, 1u);
  const auto after = fs::file_size(s->journal_path());
  EXPECT_LT(after, before);
  // The rewrite is atomic (temp + rename) and preserves the live set.
  auto reopened = store::Store::open(tmp.path());
  EXPECT_EQ(reopened->size(), 1u);
  EXPECT_EQ(*reopened->get("meta", "hot"), "version 49");
}

// ------------------------------------------------- corruption resilience

TEST(Store, TruncatedTailKeepsValidPrefix) {
  support::ScopedFaultPlan fault_scope;
  support::FaultPlan::global().clear();
  support::TempDir tmp;
  fs::path journal;
  {
    auto s = store::Store::open(tmp.path());
    s->put("experiment", "first", "kept value");
    s->put("experiment", "second", "this frame will be torn");
    s->flush();
    journal = s->journal_path();
  }
  // Simulate a crash mid-append: drop the last 5 bytes.
  auto bytes = read_raw(journal);
  write_raw(journal, bytes.substr(0, bytes.size() - 5));

  auto s = store::Store::open(tmp.path());
  EXPECT_EQ(s->size(), 1u);
  EXPECT_EQ(*s->get("experiment", "first"), "kept value");
  EXPECT_FALSE(s->contains("experiment", "second"));
  EXPECT_EQ(s->stats().dropped_records, 1u);
  EXPECT_FALSE(s->stats().cold_start);
  // Recovery compacted the torn tail away: the next open is clean.
  auto again = store::Store::open(tmp.path());
  EXPECT_EQ(again->size(), 1u);
  EXPECT_EQ(again->stats().dropped_records, 0u);
}

TEST(Store, BitFlipIsCaughtByChecksum) {
  support::ScopedFaultPlan fault_scope;
  support::FaultPlan::global().clear();
  support::TempDir tmp;
  fs::path journal;
  {
    auto s = store::Store::open(tmp.path());
    s->put("experiment", "first", "aaaaaaaaaaaaaaaaaaaa");
    s->put("experiment", "second", "bbbbbbbbbbbbbbbbbbbb");
    s->flush();
    journal = s->journal_path();
  }
  auto bytes = read_raw(journal);
  // Flip one payload byte inside the second record's value.
  bytes[bytes.size() - 3] ^= 0x01;
  write_raw(journal, bytes);

  auto s = store::Store::open(tmp.path());
  EXPECT_EQ(s->size(), 1u);
  EXPECT_EQ(*s->get("experiment", "first"), "aaaaaaaaaaaaaaaaaaaa");
  EXPECT_EQ(s->stats().dropped_records, 1u);
}

TEST(Store, GarbageTailIsDropped) {
  support::ScopedFaultPlan fault_scope;
  support::FaultPlan::global().clear();
  support::TempDir tmp;
  fs::path journal;
  {
    auto s = store::Store::open(tmp.path());
    s->put("experiment", "k", "v");
    s->flush();
    journal = s->journal_path();
  }
  write_raw(journal, read_raw(journal) + "not a frame at all");
  auto s = store::Store::open(tmp.path());
  EXPECT_EQ(s->size(), 1u);
  EXPECT_EQ(s->stats().dropped_records, 1u);
}

TEST(Store, UnrecognizedHeaderStartsCold) {
  support::TempDir tmp;
  fs::path journal;
  {
    auto s = store::Store::open(tmp.path());
    s->put("experiment", "k", "v");
    s->flush();
    journal = s->journal_path();
  }
  auto bytes = read_raw(journal);
  bytes[0] = 'x';
  write_raw(journal, bytes);
  // A store that cannot be read at all degrades to cold start — open()
  // must not throw.
  auto s = store::Store::open(tmp.path());
  EXPECT_EQ(s->size(), 0u);
  EXPECT_TRUE(s->stats().cold_start);
}

TEST(Store, LoadFaultSiteDegradesToColdStart) {
  support::ScopedFaultPlan fault_scope;
  support::TempDir tmp;
  {
    auto s = store::Store::open(tmp.path());
    s->put("experiment", "k", "v");
    s->flush();
  }
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "store.load";
  rule.nth = 1;
  plan.add_rule(rule);

  auto s = store::Store::open(tmp.path());
  EXPECT_EQ(s->size(), 0u);
  EXPECT_TRUE(s->stats().cold_start);
  // The cold handle still works for new writes once the fault clears.
  plan.clear();
  s->put("experiment", "fresh", "w");
  s->flush();
  EXPECT_TRUE(s->contains("experiment", "fresh"));
}

TEST(Store, FlushFaultKeepsBatchPending) {
  support::ScopedFaultPlan fault_scope;
  support::TempDir tmp;
  auto s = store::Store::open(tmp.path());
  s->put("experiment", "k", "v");

  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "store.flush";
  rule.nth = 1;
  plan.add_rule(rule);
  s->flush();  // warns and defers, never throws
  EXPECT_EQ(s->pending(), 1u);
  EXPECT_EQ(s->stats().appended_records, 0u);
  // The record is still visible in memory while deferred.
  EXPECT_EQ(*s->get("experiment", "k"), "v");

  plan.clear();
  s->flush();
  EXPECT_EQ(s->pending(), 0u);
  EXPECT_EQ(s->stats().appended_records, 1u);
  auto reopened = store::Store::open(tmp.path());
  EXPECT_EQ(*reopened->get("experiment", "k"), "v");
}

TEST(Store, ConcurrentPutGetFlush) {
  support::ScopedFaultPlan fault_scope;
  support::FaultPlan::global().clear();
  support::TempDir tmp;
  auto s = store::Store::open(tmp.path());
  constexpr int kThreads = 8;
  constexpr int kKeys = 40;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kKeys; ++i) {
        const std::string key =
            "k" + std::to_string(t) + "-" + std::to_string(i);
        s->put("experiment", key, "value " + key);
        auto got = s->get("experiment", key);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, "value " + key);
        if (i % 10 == 0) s->flush();
        s->for_each("meta", [](const std::string&, const std::string&) {});
      }
    });
  }
  for (auto& w : workers) w.join();
  s->flush();
  EXPECT_EQ(s->size(), static_cast<std::size_t>(kThreads) * kKeys);
  auto reopened = store::Store::open(tmp.path());
  EXPECT_EQ(reopened->size(), static_cast<std::size_t>(kThreads) * kKeys);
  EXPECT_EQ(reopened->stats().dropped_records, 0u);
}

// ------------------------------------------------- cache snapshot restore

TEST(StorePersist, BinaryCacheEntriesStatsAndEvictionOrderSurvive) {
  support::TempDir tmp;
  buildcache::BinaryCache cache;
  std::vector<buildcache::CacheEntry> entries{
      {"hashaaa", "pkga@1.0", 100, 5},
      {"hashbbb", "pkgb@2.0", 200, 9},
      {"hashccc", "pkgc@3.0", 300, 7}};
  buildcache::CacheStats stats;
  stats.hits = 11;
  stats.misses = 4;
  stats.pushes = 3;
  stats.retries = 2;
  stats.evictions = 1;
  cache.restore(entries, stats);

  {
    auto s = store::Store::open(tmp.path());
    store::persist_binary_cache(s, cache);
    s->flush();
  }

  auto s = store::Store::open(tmp.path());
  buildcache::BinaryCache warm;
  EXPECT_EQ(store::warm_binary_cache(s, warm), 3u);
  auto warm_stats = warm.stats();
  EXPECT_EQ(warm_stats.hits, 11u);
  EXPECT_EQ(warm_stats.misses, 4u);
  EXPECT_EQ(warm_stats.pushes, 3u);
  EXPECT_EQ(warm_stats.retries, 2u);
  EXPECT_EQ(warm_stats.evictions, 1u);
  EXPECT_EQ(warm.total_bytes(), 600u);

  // Entries kept their original push sequences across persist/reload...
  auto exported = warm.export_entries();
  ASSERT_EQ(exported.size(), 3u);
  EXPECT_EQ(exported[0].dag_hash, "hashaaa");  // seq 5
  EXPECT_EQ(exported[1].dag_hash, "hashccc");  // seq 7
  EXPECT_EQ(exported[2].dag_hash, "hashbbb");  // seq 9
  EXPECT_EQ(exported[0].sequence, 5u);
  EXPECT_EQ(exported[1].short_spec, "pkgc@3.0");

  // ...so the rolling cache still evicts oldest-sequence-first.
  warm.set_capacity_bytes(350);
  auto rolled = warm.export_entries();
  ASSERT_EQ(rolled.size(), 1u);
  EXPECT_EQ(rolled[0].dag_hash, "hashbbb");
  EXPECT_EQ(warm.stats().evictions, 1u + 2u);
}

TEST(StorePersist, TemplateCacheWarmStartRestoresEntriesAndStats) {
  support::TempDir tmp;
  auto& cache = ramble::TemplateCache::global();
  cache.set_capacity(0);
  cache.clear();
  const ramble::VariableMap vars{{"n", "4"}};
  (void)ramble::expand("persisted-a {n}", vars);
  (void)ramble::expand("persisted-b {n}*2", vars);
  const auto persisted_stats = cache.stats();
  {
    auto s = store::Store::open(tmp.path());
    store::persist_global_caches(s);
    s->flush();
  }
  cache.clear();

  auto s = store::Store::open(tmp.path());
  auto report = store::warm_start_global_caches(s);
  EXPECT_TRUE(report.attempted);
  EXPECT_GE(report.template_entries, 2u);
  EXPECT_EQ(report.skipped_records, 0u);
  // Second warm start of the same handle is a no-op.
  EXPECT_FALSE(store::warm_start_global_caches(s).attempted);

  // Restored counters resume from the snapshot, and a warm lookup is a
  // hit, not a recompile.
  auto warm_stats = cache.stats();
  EXPECT_EQ(warm_stats.hits, persisted_stats.hits);
  EXPECT_EQ(warm_stats.misses, persisted_stats.misses);
  EXPECT_EQ(warm_stats.inserts, persisted_stats.inserts);
  (void)ramble::expand("persisted-a {n}", vars);
  EXPECT_EQ(cache.stats().hits, warm_stats.hits + 2);  // template + value
  EXPECT_EQ(cache.stats().misses, warm_stats.misses);
  cache.clear();
}

TEST(StorePersist, WarmStartingTwoStoresNeverMovesCountersBackwards) {
  // Two stores persisted at different times hold different counter
  // snapshots; warm-starting either one later (say, a second service
  // tenant) must never move a live counter backwards, or deltas of two
  // stats() reads underflow.
  auto& tcache = ramble::TemplateCache::global();
  auto& ccache = cz::ConcretizationCache::global();
  tcache.set_capacity(0);
  ccache.set_capacity(0);
  cz::Config config;
  config.add_compiler({"gcc", benchpark::spec::Version("12.1.1"), "", ""});
  config.set_default_target("broadwell");
  cz::Concretizer concretizer(benchpark::pkg::default_repo_stack(), config);
  buildcache::BinaryCache binary;

  int round = 0;
  auto traffic = [&] {
    const std::string tag = "two-stores-" + std::to_string(round++);
    const ramble::VariableMap vars{{"n", "4"}};
    (void)ramble::expand(tag + " {n}", vars);
    (void)ramble::expand(tag + " {n}", vars);
    cz::ConcretizeRequest request;
    request.roots = {benchpark::spec::Spec::parse("zlib"),
                     benchpark::spec::Spec::parse("cmake")};
    request.unify = false;
    request.use_cache = true;
    request.threads = 1;
    const auto result = concretizer.concretize_all(request);
    for (const auto& s : result.specs) {
      (void)binary.fetch(s);
      binary.push(s, 1000);
      (void)binary.fetch(s);
    }
  };
  auto counters = [&] {
    const auto t = tcache.stats();
    const auto c = ccache.stats();
    const auto b = binary.stats();
    return std::vector<std::size_t>{
        t.hits, t.misses, t.inserts, t.evictions,
        c.hits, c.misses, c.inserts, c.evictions, c.invalidations,
        b.hits, b.misses, b.pushes,  b.retries,   b.evictions};
  };
  auto expect_monotone = [](const std::vector<std::size_t>& before,
                            const std::vector<std::size_t>& after) {
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_GE(after[i], before[i]) << "counter #" << i;
    }
  };

  support::TempDir early_dir, late_dir;
  traffic();
  {
    auto early = store::Store::open(early_dir.path());
    store::persist_global_caches(early);
    store::persist_binary_cache(early, binary);
    early->flush();
  }
  traffic();
  {
    auto late = store::Store::open(late_dir.path());
    store::persist_global_caches(late);
    store::persist_binary_cache(late, binary);
    late->flush();
  }
  traffic();

  for (const auto* dir : {&early_dir, &late_dir}) {
    const auto before = counters();
    auto s = store::Store::open(dir->path());
    EXPECT_TRUE(store::warm_start_global_caches(s).attempted);
    (void)store::warm_binary_cache(s, binary);
    expect_monotone(before, counters());
  }
  tcache.clear();
  ccache.clear();
}

TEST(StorePersist, CorruptPersistedRecordIsSkippedNotFatal) {
  support::TempDir tmp;
  {
    auto s = store::Store::open(tmp.path());
    // A template record whose payload is not valid YAML: warm start must
    // skip it with a warning, not throw.
    s->put("template", "badkey", ":[not yaml");
    s->put("experiment", "badexp", "also not : [yaml");
    s->flush();
  }
  auto s = store::Store::open(tmp.path());
  auto report = store::warm_start_global_caches(s);
  EXPECT_TRUE(report.attempted);
  EXPECT_GE(report.skipped_records, 1u);
  EXPECT_FALSE(store::load_experiment(s, "badexp").has_value());
}

TEST(StorePersist, ExperimentRecordRoundTrip) {
  support::TempDir tmp;
  store::ExperimentRecord record;
  record.success = true;
  record.timed_out = false;
  record.attempts = 3;
  record.retry_wait_seconds = 0.7501220703125;
  record.runtime_seconds = 42.125;
  record.output = "line one\nelapsed 1.5s\nKernel done\n";
  {
    auto s = store::Store::open(tmp.path());
    store::save_experiment(s, "key1", record);
    s->flush();
  }
  auto s = store::Store::open(tmp.path());
  auto loaded = store::load_experiment(s, "key1");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->success, record.success);
  EXPECT_EQ(loaded->timed_out, record.timed_out);
  EXPECT_EQ(loaded->attempts, record.attempts);
  EXPECT_DOUBLE_EQ(loaded->retry_wait_seconds, record.retry_wait_seconds);
  EXPECT_DOUBLE_EQ(loaded->runtime_seconds, record.runtime_seconds);
  EXPECT_EQ(loaded->output, record.output);
  EXPECT_FALSE(store::load_experiment(s, "other").has_value());
}

// ---------------------------------------------------- incremental re-runs

TEST(StoreWarmRun, UnchangedRerunSkipsAllInstallsAndExecutions) {
  support::ScopedFaultPlan fault_scope;
  support::FaultPlan::global().clear();
  support::TempDir store_dir;
  support::TempDir tmp1;
  support::TempDir tmp2;

  auto& collector = obs::TraceCollector::global();
  const bool was_enabled = collector.enabled();
  collector.set_enabled(true);
  collector.reset();

  ramble::RunReport cold;
  {
    auto s = store::Store::open(store_dir.path());
    auto ws = make_saxpy_workspace(tmp1.path() / "workspace");
    ws.set_store(s);
    ws.setup();
    EXPECT_GT(ws.install_report().from_source, 0u);
    cold = ws.run_all(ramble::RunRequest{.threads = 4});
    EXPECT_EQ(cold.experiments, 8u);
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_EQ(cold.store_misses, 8u);
  }

  collector.reset();
  auto s = store::Store::open(store_dir.path());
  auto ws = make_saxpy_workspace(tmp2.path() / "workspace");
  ws.set_store(s);
  ws.setup();
  // The warm install tree reports every package as already installed:
  // zero installs on an unchanged re-run.
  EXPECT_EQ(ws.install_report().from_source, 0u);
  EXPECT_EQ(ws.install_report().from_cache, 0u);
  EXPECT_EQ(ws.install_report().externals, 0u);
  EXPECT_GT(ws.install_report().already_installed, 0u);

  auto warm = ws.run_all(ramble::RunRequest{.threads = 4});
  EXPECT_EQ(warm.experiments, 8u);
  EXPECT_EQ(warm.store_hits, 8u);
  EXPECT_EQ(warm.store_misses, 0u);
  EXPECT_EQ(warm.succeeded, cold.succeeded);
  EXPECT_EQ(warm.total_attempts, cold.total_attempts);
  EXPECT_DOUBLE_EQ(warm.total_simulated_seconds,
                   cold.total_simulated_seconds);

  // Zero executions, by the obs counters: nothing ran, everything hit.
  auto trace = collector.snapshot();
  EXPECT_EQ(trace.counters.count("workspace.experiments.run"), 0u);
  ASSERT_EQ(trace.counters.count("store.hits"), 1u);
  EXPECT_EQ(trace.counters.at("store.hits"), 8);

  // Restored .out files are byte-identical to the cold run's, even though
  // the two runs used different workspace directories.
  for (const auto& exp : ws.prepared()) {
    const auto warm_out =
        support::read_file(exp.run_dir / (exp.name + ".out"));
    const auto cold_out = support::read_file(
        tmp1.path() / "workspace" / "experiments" / exp.app / exp.workload /
        exp.name / (exp.name + ".out"));
    EXPECT_EQ(warm_out, cold_out) << exp.name;
  }

  collector.reset();
  collector.set_enabled(was_enabled);
}

TEST(StoreWarmRun, ChangedInputRerunsExactlyTheAffectedSubset) {
  support::ScopedFaultPlan fault_scope;
  support::FaultPlan::global().clear();
  support::TempDir store_dir;
  support::TempDir tmp1;
  support::TempDir tmp2;
  {
    auto s = store::Store::open(store_dir.path());
    auto ws = make_saxpy_workspace(tmp1.path() / "workspace");
    ws.set_store(s);
    ws.setup();
    auto cold = ws.run_all(ramble::RunRequest{.threads = 4});
    EXPECT_EQ(cold.store_misses, 8u);
  }
  // Change half the matrix: n 1024 -> 2048 produces 4 new experiment
  // keys; the 4 n=512 cells are untouched and must not re-run.
  std::string changed = kSaxpyRambleYaml;
  const auto at = changed.find("'1024'");
  ASSERT_NE(at, std::string::npos);
  changed.replace(at, 6, "'2048'");

  auto s = store::Store::open(store_dir.path());
  auto ws = make_saxpy_workspace(tmp2.path() / "workspace", changed.c_str());
  ws.set_store(s);
  ws.setup();
  // Software is unchanged, so installs still all skip.
  EXPECT_EQ(ws.install_report().from_source, 0u);
  auto warm = ws.run_all(ramble::RunRequest{.threads = 4});
  EXPECT_EQ(warm.experiments, 8u);
  EXPECT_EQ(warm.store_hits, 4u);
  EXPECT_EQ(warm.store_misses, 4u);
}

TEST(StoreWarmRun, DriverWorkflowReportsStoreTraffic) {
  support::ScopedFaultPlan fault_scope;
  support::FaultPlan::global().clear();
  support::TempDir store_dir;
  support::TempDir tmp1;
  support::TempDir tmp2;
  core::Driver driver;
  const core::ExperimentId id{"saxpy", "openmp"};

  ramble::RunRequest request;
  request.threads = 2;
  request.store = store::Store::open(store_dir.path());

  std::vector<std::string> first_steps;
  auto first = driver.run_workflow(
      id, "cts1", tmp1.path() / "ws",
      [&](int, const std::string& text) { first_steps.push_back(text); },
      nullptr, request);
  ASSERT_EQ(first_steps.size(), 10u);
  EXPECT_NE(first_steps[7].find("store 0 hits / 8 misses"),
            std::string::npos)
      << first_steps[7];

  std::vector<std::string> second_steps;
  // run_workflow's workspace_out assigns into an existing workspace;
  // make one via setup() (Workspace has no default constructor).
  ramble::Workspace ws_holder = driver.setup(id, "cts1", tmp2.path() / "ws2");
  auto second = driver.run_workflow(
      id, "cts1", tmp2.path() / "ws",
      [&](int, const std::string& text) { second_steps.push_back(text); },
      &ws_holder, request);
  ASSERT_EQ(second_steps.size(), 10u);
  EXPECT_NE(second_steps[7].find("store 8 hits / 0 misses"),
            std::string::npos)
      << second_steps[7];
  EXPECT_NE(second_steps[5].find("0 built from source"), std::string::npos)
      << second_steps[5];
  EXPECT_EQ(ws_holder.install_report().from_source, 0u);
  EXPECT_EQ(second.num_success(), first.num_success());
  ASSERT_EQ(second.results.size(), first.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(second.results[i].output, first.results[i].output)
        << first.results[i].name;
  }
}
