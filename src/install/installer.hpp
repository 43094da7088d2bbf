// The installation engine (Spack component 4): installs a concrete spec
// DAG from source or binary cache into an install tree.
//
// Builds are *simulated*: a package "build" costs its recipe's
// build_cost_seconds (scaled by make-level parallelism), a cache fetch
// costs the mirror transfer model, and externals are free. What is fully
// real is everything the paper's workflow depends on: topological
// ordering, per-hash install prefixes, skip-if-installed semantics, build
// logs, and the produced install-tree database.
//
// The engine schedules the closure as dependency wavefronts on the shared
// ThreadPool: all DAG nodes whose dependencies are satisfied build or
// fetch concurrently (engine_threads controls the width; 1 keeps the old
// serial walk). Nodes of one wavefront are distinct hashes, so each is
// built at most once per install() call; a node already in the tree is
// recorded as already installed. One Installer serves one install() call
// at a time: an environment's roots install one after another on the
// same tree (Environment::install_all), and a later root reuses what an
// earlier root built.
//
// Failure handling: every build step passes through the
// "install.build_step" fault site and is retried per package through
// support::retry_transient (the shared attempt budget and deterministic
// backoff); cache fetches that keep failing fall back to source builds;
// cache pushes are best-effort. A package that exhausts its retries
// throws PermanentError, its dependents are skipped, everything
// independent still installs, and the install reports the aggregate
// failure. Nothing of a failed package is recorded, so a later call
// tries it again.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/buildcache/binary_cache.hpp"
#include "src/pkg/repo.hpp"
#include "src/spec/spec.hpp"

namespace benchpark::install {

/// How an install was satisfied.
enum class InstallSource { source_build, binary_cache, external, already };

[[nodiscard]] std::string_view install_source_name(InstallSource s);

/// One installed package.
struct InstallRecord {
  spec::Spec spec;
  std::string prefix;          // install prefix (hash-addressed)
  InstallSource source = InstallSource::source_build;
  double simulated_seconds = 0.0;
  std::vector<std::string> build_args;  // Figure 11 cmake args used
  /// Target-tuned compiler flags from archspec (Section 3.1.3: "tailor
  /// build recipes to the target architecture").
  std::string arch_flags;
  /// Build/fetch attempts this record spent: 1 for a clean build or cache
  /// fetch, 1+k after k transient retries, 0 for externals and
  /// already-installed records.
  int attempts = 1;
  /// Modeled seconds spent waiting in retry backoff (included in
  /// simulated_seconds).
  double retry_wait_seconds = 0.0;
};

/// Result of installing one root spec (closure).
struct InstallReport {
  std::vector<InstallRecord> installed;  // topological order
  /// Serial sum of every node's simulated seconds (what one builder with
  /// no DAG parallelism would pay).
  double total_simulated_seconds = 0.0;
  /// Longest dependency-chain time through the closure: the modeled
  /// wall-clock of the wavefront engine with unbounded workers.
  double critical_path_seconds = 0.0;
  std::size_t from_cache = 0;
  std::size_t from_source = 0;
  std::size_t externals = 0;
  std::size_t already_installed = 0;
  /// Sum of per-record attempts (equals installed.size() minus externals
  /// and already-installed records when nothing was retried).
  std::size_t total_attempts = 0;
  /// Total modeled backoff across all retried packages.
  double retry_wait_seconds = 0.0;
  std::string build_log;
};

/// The install tree: database of installed specs keyed by DAG hash.
/// Internally locked; safe to share across concurrent install workers.
class InstallTree {
public:
  explicit InstallTree(std::string root = "/opt/benchpark/install");

  // Movable despite the internal mutex (the Workspace holds its tree by
  // value); moving while installers are running on it is undefined.
  InstallTree(InstallTree&& other) noexcept;
  InstallTree& operator=(InstallTree&& other) noexcept;

  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] bool installed(const spec::Spec& concrete) const;
  /// Pointer into the database (records are never erased, so std::map
  /// node stability keeps it valid); prefer lookup() from concurrent code
  /// since the pointee may be re-assigned by a later add().
  [[nodiscard]] const InstallRecord* find(std::string_view dag_hash) const;
  /// Snapshot copy of the record for a hash, if installed.
  [[nodiscard]] std::optional<InstallRecord> lookup(
      std::string_view dag_hash) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<const InstallRecord*> all() const;

  /// Prefix layout: <root>/<target>/<name>-<version>-<hash>.
  [[nodiscard]] std::string prefix_for(const spec::Spec& concrete) const;

  void add(InstallRecord record);

private:
  std::string root_;
  mutable std::mutex mu_;
  std::map<std::string, InstallRecord> records_;  // by dag hash
};

struct InstallOptions {
  /// Make-level parallelism for source builds ("make -jN").
  int build_jobs = 8;
  /// DAG-level engine parallelism: how many independent nodes of one
  /// wavefront build/fetch concurrently. 0 means
  /// support::ThreadPool::default_threads() (BENCHPARK_NUM_THREADS).
  int engine_threads = 0;
};

class Installer {
public:
  Installer(pkg::RepoStack repos, InstallTree* tree,
            buildcache::BinaryCache* cache);

  /// Install `concrete` and its full dependency closure. Throws
  /// PermanentError when any package in the closure fails for good (its
  /// dependents are skipped, everything independent still installs, and
  /// a later call tries the failed packages again). Not reentrant: one
  /// call at a time per Installer.
  InstallReport install(const spec::Spec& concrete,
                        const InstallOptions& options = {});

  /// Topological (dependencies-first) ordering of the spec closure,
  /// deduplicated by DAG hash.
  [[nodiscard]] static std::vector<const spec::Spec*> build_order(
      const spec::Spec& root);

private:
  InstallRecord install_one(const spec::Spec& concrete,
                            const InstallOptions& options, std::string& log);

  pkg::RepoStack repos_;
  InstallTree* tree_;                  // not owned
  buildcache::BinaryCache* cache_;     // not owned; null = no cache
};

/// Deterministic simulated artifact size for a package (bytes).
std::uint64_t simulated_artifact_size(const spec::Spec& concrete);

}  // namespace benchpark::install
