// Persistence adapters between the on-disk store and the in-memory
// caches (binary cache index, concretization cache, template cache,
// install tree, completed experiment results).
//
// Each adapter serializes through the project YAML emitter (with
// quote_numeric_strings on, so values that look like numbers, booleans,
// or dates survive typed readers). The three caches share one save and
// one load routine over their export_entries()/restore() API
// (support::SnapshotCache): a bulk restore publishes each shard once,
// keeps insert sequences — a reloaded cache evicts in the same
// oldest-first order — and raises every counter to the larger of its
// live and persisted value, so counters never run backwards, not even
// when a second store warm-starts the process-wide caches.
//
// Record kinds used in the journal:
//   "binary"      dag hash        -> cache index entry
//   "concretize"  cache key       -> concrete spec (+ dependency closure)
//   "template"    hash(text)      -> template source text + sequence
//   "install"     dag hash        -> install record (+ spec closure)
//   "experiment"  experiment key  -> completed run outcome
//   "meta"        "<cache>.stats" -> persisted counters
//
// Corrupt or unparsable individual records are skipped with a warning —
// a bad entry costs a recomputation, never a crash.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "src/store/store.hpp"

namespace benchpark::buildcache {
class BinaryCache;
}
namespace benchpark::install {
class InstallTree;
}

namespace benchpark::store {

/// What a once-per-store warm start of the process-wide caches loaded.
struct WarmStartReport {
  /// False when another call already warmed this store (or store null).
  bool attempted = false;
  std::size_t concretize_entries = 0;
  std::size_t template_entries = 0;
  /// Records that failed to parse and were skipped.
  std::size_t skipped_records = 0;
};

/// Warm-load the process-wide ConcretizationCache and TemplateCache from
/// `store`, exactly once per store handle (guarded by
/// Store::begin_warm_start). Safe to call with a null handle.
WarmStartReport warm_start_global_caches(const StoreHandle& store);

/// Snapshot the process-wide caches into `store` (put only; callers
/// flush).
void persist_global_caches(const StoreHandle& store);

/// Restore a workspace's binary-cache index (entries, sequences, stats);
/// returns the number of entries loaded.
std::size_t warm_binary_cache(const StoreHandle& store,
                              buildcache::BinaryCache& cache);
void persist_binary_cache(const StoreHandle& store,
                          const buildcache::BinaryCache& cache);

/// Restore install-tree records (keyed by DAG hash). A warm record makes
/// the installer's skip-if-installed path report the package as
/// `already_installed`, which is what turns an unchanged re-run into
/// zero installs. Returns the number of records loaded.
std::size_t warm_install_tree(const StoreHandle& store,
                              install::InstallTree& tree);
void persist_install_tree(const StoreHandle& store,
                          const install::InstallTree& tree);

/// The stored outcome of one completed experiment execution.
struct ExperimentRecord {
  bool success = false;
  bool timed_out = false;
  int attempts = 1;
  double retry_wait_seconds = 0.0;
  double runtime_seconds = 0.0;
  std::string output;
};

[[nodiscard]] std::optional<ExperimentRecord> load_experiment(
    const StoreHandle& store, std::string_view key);
void save_experiment(const StoreHandle& store, std::string_view key,
                     const ExperimentRecord& record);

}  // namespace benchpark::store
