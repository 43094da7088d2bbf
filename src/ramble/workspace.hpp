// Ramble workspaces (Section 3.2): "a self contained directory
// representing a set of experiments", configured by ramble.yaml and at
// least one template execution script.
//
// The five workflow verbs (Figure 5) map to:
//   ramble workspace create  -> Workspace::create
//   ramble workspace edit    -> Workspace::configure (apply ramble.yaml)
//   ramble workspace setup   -> Workspace::setup
//   ramble on                -> Workspace::run_all
//   ramble workspace analyze -> Workspace::analyze
//
// setup() does what Section 3.2.3 lists: ensures compilers are available,
// installs software with Spack (our env/install engines), creates an
// execution directory per experiment, and renders every template.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/fom.hpp"
#include "src/buildcache/binary_cache.hpp"
#include "src/env/environment.hpp"
#include "src/install/installer.hpp"
#include "src/pkg/repo.hpp"
#include "src/ramble/application.hpp"
#include "src/ramble/experiment.hpp"
#include "src/sched/scheduler.hpp"
#include "src/store/store.hpp"
#include "src/support/table.hpp"
#include "src/system/system.hpp"
#include "src/yaml/node.hpp"

namespace benchpark::ramble {

/// The workspace-level model of ramble.yaml (Figure 10).
struct WorkspaceConfig {
  struct SpackPackageDef {
    std::string alias;       // "default-mpi", "saxpy"
    std::string spack_spec;  // "saxpy@1.0.0 +openmp ^cmake@3.23.1"
    std::string compiler;    // alias of a compiler package def ("" = default)
  };
  struct SpackEnvDef {
    std::string name;                     // environment (application) name
    std::vector<std::string> packages;    // aliases
  };
  struct WorkloadConfig {
    std::string name;
    VariableMap env_vars;    // workload env_vars: set: {...}
    VariableMap variables;   // workload-level variables
    std::vector<std::string> modifiers;  // Section 4.5 modifier names
    std::vector<ExperimentTemplate> experiments;
  };
  struct AppConfig {
    std::string app;
    std::vector<WorkloadConfig> workloads;
  };

  std::vector<std::string> includes;
  std::vector<AppConfig> applications;
  std::vector<SpackPackageDef> spack_packages;
  std::vector<SpackEnvDef> spack_environments;

  static WorkspaceConfig from_yaml(const yaml::Node& ramble_yaml);

  [[nodiscard]] const SpackPackageDef* find_package(
      std::string_view alias) const;
  [[nodiscard]] const SpackEnvDef* find_environment(
      std::string_view name) const;
};

/// A fully generated experiment, ready for submission.
/// Aggregate concretization traffic across every spack environment a
/// setup_software() pass resolved (warm-cache runs show hits > 0).
struct ConcretizeSummary {
  std::size_t roots = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

struct PreparedExperiment {
  std::string app;
  std::string workload;
  std::string name;
  VariableMap variables;
  VariableMap env_vars;
  std::vector<std::string> modifiers;  // active modifier names
  std::filesystem::path run_dir;
  std::string script;   // rendered execute_experiment
  bool use_gpu = false; // derived from the app's spack spec (+cuda/+rocm)
};

/// Result of one analyzed experiment.
struct ExperimentResult {
  std::string app;
  std::string workload;
  std::string name;
  bool ran = false;
  bool success = false;
  std::vector<analysis::FomValue> foms;
  VariableMap variables;
  /// Raw experiment stdout (what analysis extracted the FOMs from);
  /// downstream ingestion parses Caliper region profiles out of it.
  std::string output;

  [[nodiscard]] const analysis::FomValue* fom(std::string_view name) const;
};

/// Knobs for the parallel experiment-run engine (run_all / analyze).
struct RunRequest {
  /// Fan-out width: 0 = ThreadPool::default_threads(), 1 = serial. On the
  /// "native" system experiments always run one at a time: each native
  /// kernel spreads over the pool itself, and one started on a pool
  /// worker would run inline on that one core.
  int threads = 0;
  /// Persistent result store consulted before executing each experiment
  /// (and written after). Overrides the workspace-level store for this
  /// run; null falls back to Workspace::set_store's handle, then to
  /// running everything.
  store::StoreHandle store;
};

/// What run_all did, aggregated in experiment (submission) order.
struct RunReport {
  std::size_t experiments = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t timeouts = 0;
  /// Execution attempts across all experiments (>= experiments).
  std::size_t total_attempts = 0;
  /// Experiments that needed more than one attempt.
  std::size_t retried = 0;
  /// Total modeled backoff wait across retries.
  double retry_wait_seconds = 0;
  /// Sum of modeled experiment runtimes (post time-limit clamping).
  double total_simulated_seconds = 0;
  /// TemplateCache traffic during this call (process-wide delta).
  std::size_t template_cache_hits = 0;
  std::size_t template_cache_misses = 0;
  /// Experiments restored from the persistent store without executing,
  /// and experiments that had to run because the store had no record.
  /// Both stay 0 when no store is configured.
  std::size_t store_hits = 0;
  std::size_t store_misses = 0;

  /// One completed experiment, in submission order (the deterministic
  /// axis historical analytics appends samples along).
  struct ExperimentOutcome {
    std::string name;
    std::string app;
    std::string workload;
    /// Content key of this run in the persistent store (the history
    /// layer's config hash); empty when no store was configured.
    std::string store_key;
    double runtime_seconds = 0;
    bool success = false;
    bool from_store = false;
    int attempts = 1;
  };
  std::vector<ExperimentOutcome> per_experiment;
};

struct AnalyzeReport {
  std::vector<ExperimentResult> results;
  [[nodiscard]] std::size_t num_success() const;
  [[nodiscard]] support::Table to_table() const;
};

class Workspace {
public:
  /// `ramble workspace create`: lay out the directory structure.
  static Workspace create(std::filesystem::path root,
                          const system::SystemDescription& system);

  /// `ramble workspace edit`: apply a ramble.yaml document.
  void configure(const yaml::Node& ramble_yaml);

  /// Override the execution template (default is Figure 13's).
  void set_execute_template(std::string template_text);

  /// Override the package repositories consulted during setup (the
  /// `repo/` overlay mechanism of Figure 1a: community recipes shadow
  /// the builtin repo). Default: pkg::default_repo_stack().
  void set_repo_stack(pkg::RepoStack repos);

  /// Attach a persistent store: setup() warm-loads the binary-cache
  /// index and install tree from it (so unchanged software re-installs
  /// nothing) and persists them back; run_all() skips experiments whose
  /// key is already recorded and saves fresh results.
  void set_store(store::StoreHandle store) { store_ = std::move(store); }
  [[nodiscard]] const store::StoreHandle& store() const { return store_; }

  /// `ramble workspace setup`.
  void setup();

  /// `ramble on`: execute every prepared experiment (simulated; "native"
  /// runs kernels for real, one experiment at a time) concurrently on the
  /// shared ThreadPool (their run dirs are disjoint, so they are
  /// independent). Each rendered script is parsed as the batch system
  /// would read it: a node request above the system's size throws
  /// SchedulerError, and a run longer than its time limit is killed
  /// (clamped, failed, and decorated like a scheduler kill). Each
  /// experiment gets a "workflow.experiment"
  /// span, workspace.experiments.* counters, and "experiment.exec" fault
  /// retry/backoff. Results — the .out files, their ordering, and the
  /// report — are byte-identical at every thread width: every retry and
  /// fault decision is a pure function of (seed, site, experiment name,
  /// attempt), outputs land indexed by submission order, and aggregation
  /// is serial in that order.
  RunReport run_all(const RunRequest& request = {});

  /// `ramble workspace analyze`: FOM extraction and success criteria,
  /// fanned out over completed experiments (pure per-experiment regex
  /// work). Same report at any thread width.
  [[nodiscard]] AnalyzeReport analyze(const RunRequest& request = {}) const;

  // -- introspection ------------------------------------------------------
  [[nodiscard]] const std::filesystem::path& root() const { return root_; }
  [[nodiscard]] const system::SystemDescription& target_system() const {
    return system_;
  }
  [[nodiscard]] const std::vector<PreparedExperiment>& prepared() const {
    return prepared_;
  }
  [[nodiscard]] const WorkspaceConfig& config() const { return config_; }
  [[nodiscard]] const install::InstallReport& install_report() const {
    return install_report_;
  }
  [[nodiscard]] const ConcretizeSummary& concretize_summary() const {
    return concretize_summary_;
  }
  [[nodiscard]] bool is_set_up() const { return set_up_; }
  [[nodiscard]] bool has_run() const { return ran_; }
  /// The environment built for an application (after setup()).
  [[nodiscard]] const env::Environment* environment_for(
      std::string_view app) const;

  /// The default Figure 13 template.
  static std::string default_execute_template();

private:
  Workspace(std::filesystem::path root, system::SystemDescription system);

  [[nodiscard]] VariableMap base_variables() const;
  void setup_software();
  void generate_experiments();
  [[nodiscard]] std::string render_script(
      const PreparedExperiment& exp) const;
  /// Content key for one experiment's stored result: covers the
  /// concretization scope (config + repo-stack fingerprints), system,
  /// the app environment's concrete DAG hashes, and the experiment's
  /// rendered script/variables/env (workspace root scrubbed, so the key
  /// is stable across workspace directories). Any input change produces
  /// a new key, which is what "re-run exactly the affected subset" means.
  [[nodiscard]] std::string experiment_store_key(
      const PreparedExperiment& exp) const;

  std::filesystem::path root_;
  system::SystemDescription system_;
  pkg::RepoStack repos_;
  WorkspaceConfig config_;
  std::string execute_template_;
  bool configured_ = false;
  bool set_up_ = false;
  bool ran_ = false;

  std::vector<std::pair<std::string, env::Environment>> environments_;
  install::InstallTree install_tree_;
  // unique_ptr: the cache holds a mutex, which would otherwise pin the
  // workspace in place (Workspace::create returns by value).
  std::unique_ptr<buildcache::BinaryCache> cache_;
  install::InstallReport install_report_;
  ConcretizeSummary concretize_summary_;
  std::vector<PreparedExperiment> prepared_;
  store::StoreHandle store_;
  /// "<config fingerprint>/<repo-stack fingerprint>" from the last
  /// setup_software() pass; part of every experiment store key.
  std::string scope_fingerprint_;
};

}  // namespace benchpark::ramble
